"""The weylorder benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload weyl-quantize --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out runs.jsonl
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Run it from anywhere; it benchmarks the package in ../src of this file.  A
workload is one seeded list of requests, a pass (see workloads.py).  Each
pass runs in its own fresh, single-threaded interpreter (worker.py) with
one client: a request goes to cli.main only after the previous answer came
back.  Passes repeat until --seconds have gone by (MIN_PASSES at least).
Every answer is then checked off the clock (reference.py).  A request's
time is its best over the run's passes; set-up time and memory are medians.

--trace 1 alternates untraced and traced passes (tracing.py times the calls
into each module's public functions), reports the per-layer metrics of the
traced passes, the tracing overhead, and the ROADMAP baseline anchors timed
in a pass of their own.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (end_to_end for --trace 0, per_layer
for --trace 1).  --out FILE appends the full record of each run to FILE,
JSON lines; --compare prints two such files side by side.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))  # the package, for the answer checks only

import workloads  # noqa: E402

SETUP_PROBES = 5  # extra fresh interpreters that only time the set-up
# A run makes at least this many passes even past --seconds, so that each
# request has a best time of more than one try.
MIN_PASSES = 3
RUN_BUDGET_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # samples beyond the tail percentile
# Best time of worker.py's calibration work on a quiet 2-core VM with
# Python 3.11.7; the machine speed that timings are scaled to (see summarise).
CALIBRATION_REFERENCE_S = 0.010


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run time of the passes (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print two --out files side by side")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "weylorder" / "__init__.py").is_file():
        print(f"error: no weylorder package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names + ['all']}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    for workload in names if args.workload == "all" else [args.workload]:
        spans = (os.path.abspath(f"{args.out}.{workload}.spans.jsonl")
                 if args.out and args.trace else None)
        record = run_workload(workload, args.seed, seconds, bool(args.trace), spans)
        print_record(record)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, allow_nan=False) + "\n")
        specs = bench["per_layer" if args.trace else "end_to_end"]
        values = record["per_layer"] if args.trace else record["metrics"]
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                        for s in specs},
        }, allow_nan=False))
    return 0


# -- running -----------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spans_path=None) -> dict:
    """Run one workload; spans_path receives the last traced pass's spans."""
    began = time.monotonic()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        requests = workloads.generate(workload, seed, workdir)
        spec = {"mode": "requests", "requests": requests, "trace": False}
        run = _Workers(workdir, began)
        run({"mode": "probe"})  # fills the bytecode caches; not counted
        setups = [run({"mode": "probe"})["setup_s"] for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        window = time.monotonic()
        while len(plain) < MIN_PASSES or time.monotonic() - window < seconds:
            plain.append(run(spec))
            if trace:
                traced.append(run(dict(spec, trace=True, spans=spans_path)))
        anchors = run({"mode": "anchors"}) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return summarise(workload, seed, seconds, requests, plain, traced, anchors,
                     setups + [p["setup_s"] for p in plain])


class _Workers:
    """Runs worker.py processes one at a time, each pinned to the next CPU in turn.

    A neighbour on a shared host can slow one CPU for a minute while the
    other runs at full speed; taking turns lets each request's best time
    come from the faster one.
    """

    def __init__(self, workdir: str, began: float):
        self.workdir = workdir
        self.began = began
        self.cpus = sorted(os.sched_getaffinity(0))
        self.count = 0

    def __call__(self, spec: dict) -> dict:
        spec_path = os.path.join(self.workdir, "spec.json")
        out_path = os.path.join(self.workdir, "out.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        cpu = self.cpus[self.count % len(self.cpus)]
        self.count += 1
        timeout = RUN_BUDGET_S - (time.monotonic() - self.began)
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(ROOT), spec_path,
                        out_path, str(cpu)],
                       check=True, timeout=max(timeout, 1), cwd=ROOT,
                       env=dict(os.environ, PYTHONHASHSEED="0"), stdout=subprocess.DEVNULL)
        with open(out_path, encoding="utf-8") as handle:
            result = json.load(handle)
        os.remove(out_path)
        return result


# -- metrics -----------------------------------------------------------------

def tail(samples: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with TAIL_BEYOND
    samples beyond it, or the largest sample when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


# On a shared machine other tenants take the CPU away for milliseconds to
# minutes at a time (a fixed loop ran at 1x to 5x its best time on a 2-core
# VM).  Every pass does the same work and interference only adds time, so a
# request's time is its best over the run's passes, and the run's metrics
# are built from those best times.
def best_ms(passes: list) -> list:
    """Each request's least time in ms over the passes."""
    return [min(times) * 1000
            for times in zip(*[[rec["latency_s"] for rec in p["records"]] for p in passes])]


def request_metrics(ok: list, best: list) -> dict:
    """End-to-end metrics of a run; failed requests enter the latencies as +inf."""
    latencies = [ms if good else math.inf for good, ms in zip(ok, best)]
    tail_ms, percentile, beyond = tail(latencies)
    sweep_s = sum(best) / 1000
    return {"throughput_rps": sum(ok) / sweep_s,
            "latency_p50_ms": statistics.median(latencies),
            "latency_tail_ms": tail_ms, "tail_percentile": percentile,
            "tail_beyond": beyond, "sweep_s": sweep_s}


def _least(values: list):
    """Smallest value, None when any pass reports the target absent."""
    return None if None in values else min(values)


def _finite(value):
    return value if math.isfinite(value) else None


def summarise(workload, seed, seconds, requests, plain, traced, anchors, setups) -> dict:
    from reference import SEED_CHECK_CASES, References, check_cases

    refs = References(ROOT / ".perfbench", ROOT / "src" / "weylorder")
    passes = plain + traced
    # outcome of request i in each pass: right answer, failed, or wrong answer
    right = [[refs.is_correct(i, req, p["records"][i]) for i, req in enumerate(requests)]
             for p in passes]
    failures = [rec for p, ok in zip(passes, right)
                for good, rec in zip(ok, p["records"]) if not good]
    wrong = sum(rec["error"] is None and rec["code"] == 0 for rec in failures)
    refs.save()
    ok = [all(column) for column in zip(*right)]
    # A shared host also changes speed for minutes at a time, and then even
    # the best times of a run move together, by up to 40%.  The calibration
    # work (stdlib only, the same for every version of the package) moves
    # with them, so every timing is scaled by CALIBRATION_REFERENCE_S over
    # the run's best calibration time: it reads as the time on a machine
    # whose calibration takes CALIBRATION_REFERENCE_S.
    calibration = min(p["calibration_s"] for p in plain)
    scale = CALIBRATION_REFERENCE_S / calibration
    raw_best = best_ms(plain)
    run = request_metrics(ok, [ms * scale for ms in raw_best])
    raw = request_metrics(ok, raw_best)
    attempted = len(requests) * len(passes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(traced),
        "python": platform.python_version(), "host": platform.node(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "passes": len(plain), "requests_per_pass": len(requests),
        "tail_percentile": run["tail_percentile"], "tail_beyond": run["tail_beyond"],
        "setup_samples": len(setups),
        "calibration_s": calibration, "speed_scale": scale,
        "correct": wrong == 0 and (anchors is None or anchors["anchors_agree"]),
        "attempted": attempted, "failed": len(failures),
        "failures": sorted({rec["error"] or f"exit {rec['code']}" for rec in failures}),
    }
    if workload == "weyl-quantize":
        record["repeat_rate"] = workloads.repeat_rate(requests)
    record["raw_metrics"] = {
        "setup_s": statistics.median(setups),
        **{name: _finite(raw[name]) for name in
           ("throughput_rps", "latency_p50_ms", "latency_tail_ms", "sweep_s")},
    }
    record["metrics"] = {
        "setup_s": statistics.median(setups) * scale,
        **{name: _finite(run[name]) for name in
           ("throughput_rps", "latency_p50_ms", "latency_tail_ms", "sweep_s")},
        "fail_ratio": len(failures) / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    record["per_pass"] = [{"wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"]}
                          for p in plain]
    if traced:
        # counts repeat exactly from pass to pass; times are the least over passes
        layers = {name: _least([p["layers"][name] for p in traced])
                  for name in traced[0]["layers"]}
        for check in SEED_CHECK_CASES:
            layers[f"verify.cases.{check}"] = min(
                (check_cases(rec["stdout"]).get(check, 0)
                 for p in traced for rec in p["records"] if "stdout" in rec), default=0)
        layers.update(anchors["anchors"])
        layers["trace.traced_s"] = sum(best_ms(traced)) / 1000
        layers["trace.untraced_s"] = raw["sweep_s"]
        layers["trace.overhead_s"] = layers["trace.traced_s"] - raw["sweep_s"]
        record["per_layer"] = layers
    return record


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- output ------------------------------------------------------------------

UNITS = {"setup_s": "s", "throughput_rps": "req/s", "latency_p50_ms": "ms",
         "latency_tail_ms": "ms", "sweep_s": "s", "fail_ratio": "ratio",
         "peak_rss_mb": "MB"}


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_record(record: dict) -> None:
    head = (f"{record['workload']}: seed {record['seed']}, {record['passes']} passes of "
            f"{record['requests_per_pass']} requests, python {record['python']}, "
            f"nproc {record['nproc']}, git {record['git_sha'] or 'unknown'}")
    if "repeat_rate" in record:
        head += f", (j,k) repeat rate {record['repeat_rate']:.3f}"
    print(head)
    notes = {
        "setup_s": f"median of {record['setup_samples']} fresh interpreters",
        "latency_tail_ms": (f"p{record['tail_percentile']:.4g}, {record['tail_beyond']} of "
                            f"{record['requests_per_pass']} samples beyond it"),
        "fail_ratio": (f"{record['failed']} of {record['attempted']}"
                       + (f": {', '.join(record['failures'])}" if record["failures"] else "")),
    }
    print(f"  timings scaled by {record['speed_scale']:.4f}: best calibration "
          f"{record['calibration_s'] * 1000:.4g} ms, reference "
          f"{CALIBRATION_REFERENCE_S * 1000:.4g} ms; unscaled in brackets")
    for name, value in record["metrics"].items():
        raw = f"[{_fmt(record['raw_metrics'][name])}]" if name in record["raw_metrics"] else ""
        print(f"  {name:<16} {_fmt(value):>12} {UNITS[name]:<6} {raw:>12} {notes.get(name, '')}")
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:<44} {_fmt(value):>12}")
    print(f"  correct: {record['correct']}")


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    """Median and quartiles of every metric, per workload, for two --out files."""
    runs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            runs.append([json.loads(line) for line in handle if line.strip()])
    keys = sorted({(r["workload"], r["trace"]) for side in runs for r in side})
    print(f"A = {path_a}\nB = {path_b}")
    for workload, trace in keys:
        sides = [[r for r in side if (r["workload"], r["trace"]) == (workload, trace)]
                 for side in runs]
        print(f"\n{workload}{' (traced)' if trace else ''}: runs A {len(sides[0])}, "
              f"B {len(sides[1])}; median [q1, q3]")
        for field in ("metrics", "per_layer"):
            names = [n for side in sides for r in side for n in r.get(field, {})]
            for name in dict.fromkeys(names):
                cells = []
                medians = []
                for side in sides:
                    values = [r[field][name] for r in side
                              if r.get(field, {}).get(name) is not None]
                    if not values:
                        cells.append(f"{'absent' if side else '-':>12}".ljust(34))
                        medians.append(None)
                        continue
                    q1, q2, q3 = _quartiles(values)
                    cells.append(f"{_fmt(q2):>12} [{_fmt(q1)}, {_fmt(q3)}]".ljust(34))
                    medians.append(q2)
                ratio = (f"B/A {medians[1] / medians[0]:.3f}"
                         if None not in medians and medians[0] else "")
                print(f"  {name:<40} {cells[0]} {cells[1]} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
