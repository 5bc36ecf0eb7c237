"""One pass of a workload in a fresh, single-threaded interpreter.

    python3 perfbench/worker.py ROOT SPEC OUT CPU

ROOT is the checkout, SPEC a JSON file written by run.py, OUT the JSON file
this process writes its result to and CPU the processor it runs on.  The
pass first times the set-up a fresh interpreter pays (import weylorder and
weylorder.cli, build the parser) and a fixed calibration work, then sends
each request to cli.main only after the previous one came back, with stdout
and stderr captured, and times the calibration work again.  Answers
are checked later, off the clock, by run.py; this process only records them.
"""
import os
import sys
import time


def main() -> int:
    root, spec_path, out_path, cpu = sys.argv[1:5]
    os.sched_setaffinity(0, {int(cpu)})
    start = time.perf_counter()
    sys.path.insert(0, f"{root}/src")
    import weylorder  # noqa: F401  (set-up time includes the package import)
    from weylorder import cli
    cli.build_parser()
    setup_s = time.perf_counter() - start

    import json

    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    result = {"setup_s": setup_s}
    calibration_s = calibrate()
    if spec["mode"] == "anchors":
        result.update(_anchors())
    elif spec["mode"] == "requests":
        result.update(_requests(cli, spec["requests"], spec["trace"], spec.get("spans")))
    result["calibration_s"] = min(calibration_s, calibrate())
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# The calibration work is timed before and after the requests of a pass, so
# that run.py can tell how fast the machine was during the run (see there).
CALIBRATION_TRIES = 4


def _calibration_work() -> int:
    """A fixed piece of exact arithmetic on the standard library alone, about 10 ms."""
    from fractions import Fraction

    terms = {}
    for a in range(60):
        for b in range(40):
            key = (a % 13, b % 11)
            terms[key] = terms.get(key, 0) + Fraction(a - b, b + 1) * Fraction(b + 3, a + 2)
    return sum(len(str(value)) for value in terms.values())


def calibrate() -> float:
    """Best time of the calibration work over a few tries, in seconds."""
    best = float("inf")
    for _ in range(CALIBRATION_TRIES):
        t0 = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - t0)
    return best


def _requests(cli, requests, trace, spans_path):
    import contextlib
    import hashlib
    import io
    import resource

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    run = cli.main
    records = []
    began = time.perf_counter()
    for index, req in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = index
        code = error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(req["argv"])
        except Exception as exc:  # a failed request is counted, and the pass goes on
            error = type(exc).__name__
        latency = time.perf_counter() - t0
        text = out.getvalue()
        record = {"code": code, "error": error, "latency_s": latency,
                  "sha256": hashlib.sha256(text.encode()).hexdigest(),
                  "bytes": len(text)}
        if req["kind"] == "check":
            record["stdout"] = text
        records.append(record)
    wall_s = time.perf_counter() - began
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": wall_s, "peak_rss_mb": peak_kb / 1024, "records": records}
    if tracer is not None:
        layers = tracer.metrics()
        memo = getattr(sys.modules.get("weylorder.poly"), "_NO_CACHE", None)
        layers["poly.rewrite_memo.entries"] = len(memo) if isinstance(memo, dict) else None
        result["layers"] = layers
        if spans_path:
            _write_spans(tracer.spans, spans_path)
    return result


def _write_spans(spans, path):
    import json

    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, request, _) in enumerate(spans):
            handle.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request}) + "\n")


# ROADMAP baseline table: (route, j, k), each timed once as its own span.
ANCHORS = (("closed", 20, 20), ("closed", 40, 40), ("cg", 20, 20),
           ("brute", 4, 4), ("brute", 5, 5), ("forced", 4, 4))


def _anchors():
    from weylorder import weyl_bruteforce, weyl_forced, weyl_normal_form, weyl_via_cg

    routes = {"closed": weyl_normal_form, "cg": weyl_via_cg,
              "brute": weyl_bruteforce, "forced": weyl_forced}
    seconds = {}
    results = {}
    for route, j, k in ANCHORS:
        t0 = time.perf_counter()
        results[route, j, k] = routes[route](j, k)
        seconds[f"anchor.{route}.{j}-{k}.s"] = time.perf_counter() - t0
    # off the clock: the anchors that another route can check cheaply agree
    agree = (results["closed", 20, 20] == results["cg", 20, 20]
             and results["brute", 4, 4] == results["forced", 4, 4]
             and results["brute", 5, 5] == weyl_via_cg(5, 5))
    return {"anchors": seconds, "anchors_agree": agree}


if __name__ == "__main__":
    sys.exit(main())
