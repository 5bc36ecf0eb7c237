import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from weylorder.altroutes import weyl_via_cg
from weylorder.cli import MAX_DEGREE, MAX_WORD_LETTERS, _quick_args, build_parser, main
from weylorder.poly import NormalPoly
from weylorder.scalar import Scalar
from weylorder.textio import render


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weyl_closed(capsys):
    code, out, err = run(capsys, "weyl", "1", "1")
    assert code == 0
    assert out == "(i/2) ad^2 - (i/2) a^2\n"
    assert "method=closed" in err


def test_weyl_identity(capsys):
    code, out, _ = run(capsys, "weyl", "0", "0")
    assert code == 0
    assert out == "1\n"


def test_weyl_methods_byte_identical(capsys):
    # (5, 4) lies past the cap that the forced route had until it became polynomial
    for j, k in (("2", "1"), ("5", "4")):
        outputs = set()
        for method in ("closed", "brute", "forced", "cg"):
            for fmt in ("plain", "latex", "structured"):
                code, out, _ = run(capsys, "weyl", j, k, "--method", method,
                                   "--format", fmt)
                assert code == 0
                outputs.add((fmt, out))
        assert len(outputs) == 3  # one distinct output per format, none per method


def test_weyl_closed_output_matches_cg_render(capsys):
    for j in range(5):
        for k in range(5):
            cg = weyl_via_cg(j, k)
            for fmt in ("plain", "latex"):
                code, out, _ = run(capsys, "weyl", str(j), str(k), "--format", fmt)
                assert code == 0
                assert out == render(cg, fmt) + "\n"
            code, out, _ = run(capsys, "weyl", str(j), str(k), "--format", "structured")
            assert json.loads(out)["terms"] == json.loads(render(cg, "structured"))["terms"]


def test_weyl_structured_schema(capsys):
    code, out, err = run(capsys, "weyl", "1", "1", "--format", "structured")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["j"] == 1 and doc["k"] == 1
    assert doc["hbar_exponent_times_2"] == 2
    assert doc["terms"][0] == {"m": 2, "n": 0, "x_re": "0/1", "x_im": "1/2",
                               "y_re": "0/1", "y_im": "0/1"}


def test_weyl_determinism(capsys):
    first = run(capsys, "weyl", "3", "2", "--format", "structured")
    second = run(capsys, "weyl", "3", "2", "--format", "structured")
    assert first == second


def test_weyl_cap_exceeded(capsys):
    # one degree bound on j + k for every route; zeta_row alone costs j^2 at closed
    for method in ("closed", "brute", "forced", "cg"):
        code, out, err = run(capsys, "weyl", "1000000000", "0", "--method", method)
        assert (code, out) == (3, "")
        assert f"degree 1000000000 exceeds cap {MAX_DEGREE}" in err
    assert run(capsys, "weyl", str(MAX_DEGREE - 1), "2")[0] == 3


def test_degree_bound_on_every_input(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"qdot": [{"j": 0, "k": 1, "coeff": "1"},
                                         {"j": 10 ** 9, "k": 0, "coeff": "1"}],
                                "pdot": []}))
    for argv in (["coeffs", "1000000000", "0"], ["coeffs", "0", str(MAX_DEGREE + 1)],
                 ["quantize", str(path)], ["check", "--max", str(MAX_DEGREE + 1)]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, ""), argv
        assert f"exceeds cap {MAX_DEGREE}" in err
    # the bound itself is accepted
    assert run(capsys, "coeffs", "0", str(MAX_DEGREE), "--which", "zeta")[0] == 0


def test_weyl_brute_degree_16_matches_closed(capsys):
    # brute has no cap, so degree 16 must stay cheap
    code, brute, _ = run(capsys, "weyl", "8", "8", "--method", "brute")
    assert code == 0
    assert (0, brute) == run(capsys, "weyl", "8", "8", "--method", "closed")[:2]


def test_negative_caps_rejected(capsys):
    code, out, err = run(capsys, "check", "--max", "2", "--eta-cap", "-1")
    assert (code, out) == (2, "")
    assert "--eta-cap: must be nonnegative" in err
    # --forced-cap is gone: the forced route has no cap of its own
    for argv in (["weyl", "2", "2", "--forced-cap", "-1"],
                 ["weyl", "2", "2", "--method", "forced", "--forced-cap", "3"],
                 ["check", "--max", "2", "--forced-cap", "0"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --forced-cap" in err


def test_negative_powers_rejected(capsys):
    for argv in (["weyl", "-1", "2"], ["weyl", "2", "-1"], ["coeffs", "-1", "0"],
                 ["coeffs", "0", "-3"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "must be nonnegative" in err
    # argparse names the type function in its message unless the function raises
    for argv in (["weyl", "x", "1"], ["weyl", "1", "1.5"], ["coeffs", "x", "0"],
                 ["check", "--max", "1.5"], ["weyl", "9" * 5000, "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "expected a nonnegative integer, got" in err
        assert "_nonnegative" not in err


def test_negative_max_degree_rejected(capsys):
    # "check --max -1" used to print "0 cases ok" six times and exit 0
    code, out, err = run(capsys, "check", "--max", "-1")
    assert code == 2
    assert out == ""
    assert "--max" in err and "must be nonnegative" in err
    code, out, _ = run(capsys, "check", "--max", "0")
    assert code == 0 and out.endswith("all checks passed\n")


def test_zero_caps_accepted(capsys):
    code, out, _ = run(capsys, "check", "--max", "2", "--eta-cap", "0")
    assert code == 0
    # forced-vs-brute covers every pair of j + k <= 2; the eta check only (0, 0)
    assert "forced-vs-brute: 6 cases ok" in out
    assert "eta-decomposition: 1 cases ok" in out


def test_normal_order(capsys):
    code, out, _ = run(capsys, "normal-order", "a ad")
    assert code == 0
    assert out == "ad a + 1\n"
    code, out, _ = run(capsys, "normal-order", "a^2 ad^2")
    assert out == "ad^2 a^2 + 4 ad a + 2\n"
    code, out, _ = run(capsys, "normal-order", "ad a", "--route", "blasiak")
    assert out == "ad a\n"


@pytest.mark.parametrize("expr", [
    "a ad^2000", "a^32 ad^32",
    # 64 letters in alternating runs, d_M = 4
    "ad^4 a^4 ad^4 a^5 ad^3 a^6 ad^6 a ad^6 a^3 ad a^4 ad^2 a^3 ad^3 a ad^4 a^3 ad",
    # 64 letters in nine blocks, d_M = -16: the adjoint branch of the Blasiak route
    "a^4 ad a^4 ad^6 a^5 ad^2 a^3 ad a^6 ad a^6 ad^6 a^5 ad^3 a^5 ad^4 a^2",
])
def test_normal_order_deep_words(capsys, expr):
    # deep enough for RecursionError in an oracle that recurses once per inversion;
    # the long words also reach the high-k end of the Blasiak row
    code, out, _ = run(capsys, "normal-order", expr)
    assert code == 0
    assert (code, out) == run(capsys, "normal-order", expr, "--route", "blasiak")[:2]


def test_normal_order_parse_error(capsys):
    code, _, err = run(capsys, "normal-order", "a !!")
    assert code == 2
    assert "at 2" in err
    # a power past sys.maxsize: no word has that many letters, whatever the cap
    code, out, err = run(capsys, "normal-order", "ad^99999999999999999999")
    assert (code, out) == (2, "")
    assert "power too large" in err
    # more digits than int() converts (sys.get_int_max_str_digits)
    code, out, err = run(capsys, "normal-order", "ad^" + "9" * 5000)
    assert (code, out) == (2, "")
    assert "too many digits (at 3..5003)" in err


def test_normal_order_letter_cap(capsys):
    # the cap is checked before either route runs: a^100000000 would step the rewrite 10^8 times
    for expr in ("a^100000000", f"ad a^{MAX_WORD_LETTERS}", "a^5000 ad^5000 a"):
        start = time.perf_counter()
        code, out, err = run(capsys, "normal-order", expr, "--route", "blasiak")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, ""), expr
        assert f"exceeds cap {MAX_WORD_LETTERS}" in err
        assert "boson word: letters " in err
    code, out, _ = run(capsys, "normal-order", f"ad^{MAX_WORD_LETTERS}")
    assert (code, out) == (0, f"ad^{MAX_WORD_LETTERS}\n")


def test_normal_order_error_order(capsys):
    # a syntax error, then a power past sys.maxsize, then the letter cap: the first one met wins
    long_word, huge = f"a^{MAX_WORD_LETTERS + 1}", "ad^" + "9" * 20
    for expr, code, message in ((f"{long_word} {huge} !!", 2, "unexpected character"),
                                (f"{long_word} {huge}", 2, "power too large"),
                                (f"{long_word} ad", 3, "exceeds cap")):
        got, out, err = run(capsys, "normal-order", expr)
        assert (got, out) == (code, ""), expr
        assert message in err


def test_normal_order_routes_disagree(capsys, monkeypatch):
    # the guard between the two routes: exit 1, nothing on stdout, the word echoed short
    from weylorder import cli

    monkeypatch.setattr(cli, "blasiak_normal_order", lambda string: NormalPoly({(0, 0): 2}))
    for expr in ("a ad", " ".join(["ad"] * (MAX_WORD_LETTERS - 1) + ["a"])):
        code, out, err = run(capsys, "normal-order", expr)
        assert (code, out) == (1, "")
        assert "routes disagree" in err
        assert len(err) < 100


def test_long_argument_echo_is_truncated(capsys, tmp_path, monkeypatch):
    # a rejected argument is echoed by its first characters only, and a message is cut too;
    # so are main's own messages, word and whole: a path, a coeff string, a long exponent
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coeff.json").write_text(
        json.dumps({"qdot": [{"j": 0, "k": 1, "coeff": "x" * 5000}]}), encoding="utf-8")
    (tmp_path / "exponent.json").write_text(
        '{"qdot": [{"j": -' + "1" * 4000 + ', "k": 0, "coeff": "1"}]}', encoding="utf-8")
    for argv in (["weyl", "9" * 5000, "1"], ["weyl", "x" * 300, "1"],
                 ["coeffs", "1", "-" + "9" * 3000], ["weyl", "1", "1", "--method", "x" * 5000],
                 ["weyl", "1", "1", "--method", "x " * 1000], ["weyl", "1", "1", *["a"] * 1000],
                 ["quantize", "x" * 5000], ["quantize", "x " * 2500], ["quantize", "coeff.json"],
                 ["quantize", "exponent.json"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "..." in err
        assert max(len(line) for line in err.splitlines()) < 200
    # a cap message too: a 4000-digit exponent is past MAX_DEGREE
    (tmp_path / "degree.json").write_text(
        '{"qdot": [{"j": ' + "1" * 4000 + ', "k": 0, "coeff": "1"}], "pdot": []}',
        encoding="utf-8")
    code, out, err = run(capsys, "quantize", "degree.json")
    assert (code, out) == (3, "")
    assert err == f"error: quantize monomial q^{'1' * 18}... p^0: degree {'1' * 20}... " \
                  f"exceeds cap {MAX_DEGREE}\n"


def test_coeffs_h(capsys):
    code, out, _ = run(capsys, "coeffs", "1", "1", "--which", "h",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert {"u": 0, "v": 0, "x_re": "0/1", "x_im": "1/2",
            "y_re": "0/1", "y_im": "0/1"} in doc["rows"]


def test_coeffs_zeta(capsys):
    code, out, _ = run(capsys, "coeffs", "2", "1", "--which", "zeta",
                       "--format", "structured")
    doc = json.loads(out)
    assert {"t": 2, "value": -1} in doc["rows"]


def test_coeffs_lambda_trivial(capsys):
    code, out, _ = run(capsys, "coeffs", "0", "0", "--which", "lambda",
                       "--format", "structured")
    assert json.loads(out)["rows"] == [{"u": 0, "v": 0, "value": 1}]


def test_coeffs_plain_table(capsys):
    code, out, _ = run(capsys, "coeffs", "1", "1", "--which", "h")
    assert code == 0
    assert "u=0  v=0  i/2" in out


def test_quantize(capsys, tmp_path):
    path = tmp_path / "ho.json"
    path.write_text(json.dumps({"qdot": [{"j": 0, "k": 1, "coeff": "1/1"}],
                                "pdot": [{"j": 1, "k": 0, "coeff": "-1/1"}]}))
    code, out, err = run(capsys, "quantize", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "<q>' = (i*sqrt2/2) ad - (i*sqrt2/2) a"
    assert lines[1] == "<p>' = -(sqrt2/2) ad - (sqrt2/2) a"
    assert "hbar_note side=qdot j=0 k=1 exponent_times_2=1" in err


def test_quantize_empty(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"qdot": [], "pdot": []}))
    code, out, _ = run(capsys, "quantize", str(path))
    assert code == 0
    assert out == "<q>' = 0\n<p>' = 0\n"


def test_quantize_malformed(capsys, tmp_path):
    path = tmp_path / "bad.json"
    # a zero denominator passes a plain num/den pattern, then Fraction raises;
    # so does a number of more digits than int() converts
    for coeff in ("0.5", "1/0", "-3/00", "9" * 5000):
        path.write_text(json.dumps({"qdot": [{"j": 0, "k": 1, "coeff": coeff}],
                                    "pdot": []}))
        code, _, err = run(capsys, "quantize", str(path))
        assert code == 2
        assert "qdot[0]" in err


# 4290 digits times the Weyl coefficients of q^40 p^40 pass the 4300-digit int-to-str limit;
# the small qdot side renders, so stdout shows whether it was printed before pdot failed
BIG_COEFF_SYSTEM = {"qdot": [{"j": 1, "k": 0, "coeff": "1"}],
                    "pdot": [{"j": 40, "k": 40, "coeff": "9" * 4290}]}


def test_quantize_big_coefficient(capsys, tmp_path):
    path = tmp_path / "bigcoeff.json"
    path.write_text(json.dumps(BIG_COEFF_SYSTEM))
    for fmt in ("plain", "latex", "structured"):
        code, out, err = run(capsys, "quantize", str(path), "--format", fmt)
        assert (code, out) == (3, ""), fmt
        assert "coefficient: digits " in err and "Traceback" not in err


def test_quantize_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"qdot": [], "pdot": [], "note": "\xe9"}')
    code, out, err = run(capsys, "quantize", str(path))
    assert (code, out, err) == (2, "", "error: not valid UTF-8\n")


# nested past the interpreter's recursion limit: json.load raises RecursionError
DEEP_JSON = "[" * 100000 + "]" * 100000


def test_quantize_deeply_nested(capsys, tmp_path):
    path = tmp_path / "deep.json"
    for text in (DEEP_JSON, f'{{"qdot": {DEEP_JSON}, "pdot": []}}'):
        path.write_text(text)
        code, out, err = run(capsys, "quantize", str(path))
        assert (code, out) == (2, "")
        assert err == "error: nested too deeply\n"


ENTRY = {"j": 1, "k": 0, "coeff": "1"}


# a system document, or None for a file that is not there, and the words stderr must hold
@pytest.mark.parametrize("document, named", [
    ([ENTRY], "document root"),
    ({"qdot": ENTRY, "pdot": []}, "field 'qdot' must be an array"),
    ({"qdot": [], "pdot": [ENTRY, 3]}, "pdot[1]: entry must be an object"),
    ({"qdot": [{"j": 1, "coeff": "1"}], "pdot": []}, "qdot[0]: missing field 'k'"),
    ({"qdot": [{**ENTRY, "j": 1.0}], "pdot": []}, "qdot[0]: j and k must be integers"),
    ({"qdot": [], "pdot": [{**ENTRY, "k": True}]}, "pdot[0]: j and k must be integers"),
    (None, "No such file"),
], ids=["root", "side", "entry", "field", "float", "bool", "missing"])
def test_system_file_errors(capsys, tmp_path, document, named):
    path = tmp_path / "system.json"
    if document is not None:
        path.write_text(json.dumps(document))
    code, out, err = run(capsys, "quantize", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err and len(err.splitlines()) == 1


def src_env() -> dict:
    """os.environ with this checkout's src first on PYTHONPATH."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


# argv, the stream whose reader is gone, the bytes read from it before it closes, the exit
# code.  705 KB of answer, past the pipe buffer, fails in the write after 10 bytes are read;
# a small answer or help text whose reader is gone before the process starts fails in the
# flush of main, and only that stream's descriptor pointed at os.devnull lets the exit-time
# flush succeed
CLOSED_STREAM = {
    "after-10-bytes": (["weyl", "100", "100"], "stdout", b"(1/1267650", 0),
    "before-the-first-byte": (["weyl", "1", "1"], "stdout", b"", 0),
    "help": (["--help"], "stdout", b"", 0),
    "stderr": (["weyl", "1", "1"], "stderr", b"", 0),
    "stderr-coeffs": (["coeffs", "2", "2"], "stderr", b"", 0),
    "stderr-cap": (["weyl", "1000000000", "0"], "stderr", b"", 3),
    "stderr-usage": (["weyl", "x", "1"], "stderr", b"", 2),
}


# each case block-buffered, as an interpreter has it by default, and with PYTHONUNBUFFERED set
@pytest.mark.parametrize("case, unbuffered", [
    pytest.param(case, unbuffered, id=case + "-unbuffered" * unbuffered)
    for case in CLOSED_STREAM for unbuffered in (0, 1)])
def test_closed_stdout_is_not_an_error(capsys, monkeypatch, case, unbuffered):
    argv, closed, head, code = CLOSED_STREAM[case]
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width in both processes
    expected = run(capsys, *argv)
    assert expected[0] == code
    env = {**src_env(), "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "weylorder.cli", *argv],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    gone, kept = (proc.stdout, proc.stderr) if closed == "stdout" else (proc.stderr, proc.stdout)
    assert gone.read(len(head)) == head
    gone.close()
    text = kept.read().decode()
    kept.close()
    assert proc.wait(timeout=60) == code
    # the open stream holds the whole answer or message, and no traceback
    assert text == expected[2 if closed == "stdout" else 1]
    assert "Traceback" not in text and "Exception ignored" not in text


# a descriptor closed before the interpreter starts (Python sets that stream to None), or
# open for reading only (every write fails with EBADF); argparse, left alone, would print
# usage to stdout with stderr closed, and help to stderr with stdout closed
@pytest.mark.parametrize("argv, redirect, code", [
    *(pytest.param(argv, redirect, 0, id=f"{argv[0]}-{redirect}")
      for argv in (["check", "--max", "1"], ["weyl", "3", "3"])
      for redirect in (">&-", "2>&-", "1</dev/null", "2</dev/null")),
    pytest.param(["weyl", "x", "1"], "2>&-", 2, id="usage-2>&-"),
    pytest.param(["--help"], "2>&-", 0, id="help-2>&-"),
    pytest.param(["--help"], ">&-", 0, id="help->&-"),
])
def test_closed_descriptor_is_not_an_error(capsys, argv, redirect, code):
    expected = run(capsys, *argv)
    done = subprocess.run(["sh", "-c", f'"$@" {redirect}', "sh",
                           sys.executable, "-m", "weylorder.cli", *argv],
                          env=src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == expected[0] == code
    # the stream left open holds what it holds when both are open
    stdout_gone = redirect[0] in ">1"  # the redirect names fd 1, else fd 2
    assert (done.stdout, done.stderr) == (("", expected[2]) if stdout_gone else (expected[1], ""))


class ClosedStream(io.StringIO):
    """A stream whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_keeps_the_check_verdict(monkeypatch):
    corrupt_at(monkeypatch, *FAILING_CHECKS[0][:3])
    err = io.StringIO()
    for argv, code in ((["check", "--max", "3"], 1), (["weyl", "1", "1"], 0)):
        with redirect_stdout(ClosedStream()), redirect_stderr(err):
            assert main(argv) == code
    assert err.getvalue() == "# weyl j=1 k=1 method=closed hbar_exponent_times_2=2\n"
    # a closed stderr changes neither the code nor stdout
    for argv, code, answer in ((["check", "--max", "3"], 1, "verification FAILED\n"),
                               (["weyl", "1", "1"], 0, "(i/2) ad^2 - (i/2) a^2\n")):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(ClosedStream()):
            assert main(argv) == code
        assert out.getvalue().endswith(answer)


def test_check_passes(capsys):
    code, out, _ = run(capsys, "check", "--max", "4")
    assert code == 0
    assert "all checks passed" in out


def test_check_trivial(capsys):
    code, out, _ = run(capsys, "check", "--max", "0")
    assert code == 0


def test_check_corrupted_table_hook(monkeypatch):
    from weylorder import verify
    from weylorder.closedform import weyl_normal_form

    def corrupted(j, k):
        terms = dict(weyl_normal_form(j, k).items())
        if (j, k) == (1, 1):
            terms[(2, 0)] = 7  # slot (u, v) = (0, 0) is the term ad^2
        return NormalPoly(terms)

    monkeypatch.setattr(verify, "weyl_normal_form", corrupted)
    report = verify.run_checks(max_degree=2)
    assert not report.ok
    failing = [r for r in report.results if not r.passed]
    assert any("j=1, k=1" in r.witness for r in failing)


def test_check_computes_each_route_once_per_pair(monkeypatch):
    from collections import Counter

    from weylorder import verify
    from weylorder.closedform import weyl_normal_form
    from weylorder.enumeration import weyl_bruteforce

    calls = Counter()

    def counted(name, fn):
        def wrapper(j, k):
            calls[name, j, k] += 1
            return fn(j, k)
        return wrapper

    def corrupted(j, k):
        terms = dict(weyl_normal_form(j, k).items())
        if (j, k) == (1, 1):
            terms[(2, 0)] = 7
        return NormalPoly(terms)

    pairs = list(verify._degree_pairs(3))
    for closed in (weyl_normal_form, corrupted):
        calls.clear()
        monkeypatch.setattr(verify, "weyl_normal_form", counted("closed", closed))
        monkeypatch.setattr(verify, "weyl_bruteforce", counted("brute", weyl_bruteforce))
        report = verify.run_checks(max_degree=3)
        # route-equality stops at the corrupted pair; forced-vs-brute fills in the rest
        assert set(calls.values()) == {1}
        assert {(j, k) for name, j, k in calls if name == "brute"} == set(pairs)
        forced = report.results[1]
        assert forced.passed and forced.cases == len(pairs)


def corrupt_at(monkeypatch, name, bad, corrupt):
    """Make `verify.<name>` return `corrupt(value)` at the arguments `bad`; return its call log."""
    from weylorder import verify

    real = getattr(verify, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(args)
        value = real(*args, **kwargs)
        return corrupt(value) if args == bad else value

    monkeypatch.setattr(verify, name, patched)
    return calls


# the `check --max 3` lines, in order, before their status
CHECK_MAX_3 = ("route-equality(closed,brute,cg): 10 cases", "forced-vs-brute: 10 cases",
               "eta-decomposition: 41 cases", "zeta-agreement: 50 cases",
               "coefficient-symmetries: 10 cases", "hermiticity: 10 cases")

# patched name, failing arguments, corruption, {check index: witness}
FAILING_CHECKS = [
    ("weyl_via_cg", (1, 0), lambda poly: poly + NormalPoly.one(), {0: (
        "closed != cg at (j=1, k=0): "
        "NormalPoly({(1,0): Scalar(0, 0i, 1/2r2, 0ir2), (0,1): Scalar(0, 0i, 1/2r2, 0ir2)}) vs "
        "NormalPoly({(1,0): Scalar(0, 0i, 1/2r2, 0ir2), (0,1): Scalar(0, 0i, 1/2r2, 0ir2), "
        "(0,0): Scalar(1, 0i, 0r2, 0ir2)})")}),
    ("weyl_forced", (2, 1), lambda poly: poly + NormalPoly.one(),
     {1: "forced != brute at (j=2, k=1)"}),
    ("eta_decomposition_check", (1, 1, 0, 1),
     lambda check: check._replace(symbolic_sum=check.symbolic_sum + 1),
     {2: "eta decomposition fails at (j=1, k=1, u=0, v=1): 1 vs 0"}),
    ("zeta_gamma", (2, 1, 2), lambda zeta: zeta + 1,
     {3: "zeta variants disagree at (j=2, k=1, t=2): {0, -1}"}),
    ("symmetry_report", (1, 2),
     lambda report: report._replace(pair_rule_ok=False,
                                    failures=[("pair", 0, 1, Scalar(1), Scalar(-1))]), {4: (
        "pair symmetry fails at (j=1, k=2, u=0, v=1): "
        "Scalar(1, 0i, 0r2, 0ir2) vs Scalar(-1, 0i, 0r2, 0ir2)")}),
    ("weyl_normal_form", (1, 1), lambda poly: poly + NormalPoly({(2, 0): 1}), {0: (
        "closed != brute at (j=1, k=1): "
        "NormalPoly({(2,0): Scalar(1, 1/2i, 0r2, 0ir2), (0,2): Scalar(0, -1/2i, 0r2, 0ir2)}) vs "
        "NormalPoly({(2,0): Scalar(0, 1/2i, 0r2, 0ir2), (0,2): Scalar(0, -1/2i, 0r2, 0ir2)})"),
        5: "not self-adjoint at (j=1, k=1)"}),
]


@pytest.mark.parametrize("name, bad, corrupt, witnesses", FAILING_CHECKS,
                         ids=[case[0] for case in FAILING_CHECKS])
def test_check_failure_output(capsys, monkeypatch, name, bad, corrupt, witnesses):
    # one corrupted case per check: each failing check prints its full case count and first witness
    corrupt_at(monkeypatch, name, bad, corrupt)
    expected = "".join(f"{line} FAIL\n  witness: {witnesses[index]}\n" if index in witnesses
                       else f"{line} ok\n" for index, line in enumerate(CHECK_MAX_3))
    assert run(capsys, "check", "--max", "3")[:2] == (1, expected + "verification FAILED\n")


@pytest.mark.parametrize("name, bad, corrupt",
                         [case[:3] for case in FAILING_CHECKS if case[0] in
                          ("eta_decomposition_check", "zeta_gamma", "symmetry_report")],
                         ids=["eta", "zeta", "symmetry"])
def test_check_stops_at_first_failure(capsys, monkeypatch, name, bad, corrupt):
    # the failing case is the last one the check computes
    calls = corrupt_at(monkeypatch, name, bad, corrupt)
    assert run(capsys, "check", "--max", "3")[0] == 1
    assert calls[-1] == bad and calls.count(bad) == 1


def fresh_process(*argv):
    done = subprocess.run([sys.executable, "-m", "weylorder.cli", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout


def test_cached_parser_matches_fresh_process(capsys, monkeypatch):
    # help text wraps at the terminal width, which COLUMNS fixes in both processes
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser() is build_parser()
    # argparse accepts these three, and the fast lane leaves them to it
    declined = (["weyl", "3", "2", "--form", "latex"], ["weyl", "--method", "cg", "3", "2"],
                ["weyl", "3", "2", "--format=latex"])
    assert [_quick_args(argv) for argv in declined] == [None] * 3
    sequence = (["weyl", "3", "2", "--format", "latex"], ["weyl", "3", "2"],
                ["weyl", "3", "2", "--method", "nope"], ["weyl", "3", "2"], *declined,
                ["weyl", "--help"])
    in_process = [run(capsys, *argv)[:2] for argv in sequence]
    assert in_process == [fresh_process(*argv) for argv in sequence]
    assert [code for code, _ in in_process] == [0, 0, 2, 0, 0, 0, 0, 0]
    assert in_process[4] == in_process[6] == in_process[0]
    assert in_process[-1][1].startswith("usage: weylorder weyl")


def test_plain_argv_takes_the_fast_lane():
    # the form of every benchmark request, and every option of every command:
    # parsed without argparse, to the same Namespace
    positionals = {"weyl": ["3", "2"], "normal-order": ["a^2 ad"], "coeffs": ["1", "1"],
                   "quantize": ["system.json"], "check": []}
    cases = [["normal-order", "a^2 ad", "--route", "blasiak"],
             ["weyl", "3", "2", "--method", "closed", "--format", "latex"],
             ["quantize", "system.json", "--format", "structured"], ["check", "--max", "4"],
             ["coeffs", "1", "1"]]
    for command, (_, options) in PLAIN.items():
        cases += [[command, *positionals[command], option, value]
                  for option in options for value in OPTIONS[option] or ["0", "5"]]
    for argv in cases:
        quick = _quick_args(argv)
        assert quick is not None and quick == build_parser().parse_args(argv)


def test_help_of_every_command(capsys):
    # help comes from argparse; each text names the command's own options
    code, out, _ = run(capsys, "--help")
    assert code == 0 and all(command in out for command in PLAIN)
    assert out == build_parser().format_help()  # main's writer ends it in one newline
    for command, (_, options) in PLAIN.items():
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: weylorder {command}")
        assert all(option in out for option in options)


def test_usage_error_exit_code(capsys):
    assert main(["weyl"]) == 2
    assert main(["nonsense"]) == 2
    code, out, err = run(capsys, "weyl", "x", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage: weylorder weyl")
    assert err.endswith("error: argument j: expected a nonnegative integer, got 'x'\n")


SYSTEMS = {"small.json": {"qdot": [{"j": 2, "k": 1, "coeff": "1/2"}], "pdot": []},
           "huge.json": {"qdot": [{"j": 10 ** 9, "k": 1, "coeff": "1/2"}], "pdot": []},
           "bigcoeff.json": BIG_COEFF_SYSTEM, "deep.json": DEEP_JSON}
COMMANDS = ["weyl", "normal-order", "coeffs", "quantize", "check"]
INTS = ["-1", "0", "3", "1000000000", "9" * 5000]
OPTIONS = {"--method": ["closed", "brute", "forced", "cg"], "--route": ["rewrite", "blasiak"],
           "--format": ["plain", "latex", "structured"], "--which": ["h", "zeta", "lambda", "xi"],
           "--max": [], "--eta-cap": [], "--bogus": []}
POSITIONALS = {"normal-order": ["a", "ad^2 a", "a^3 ad^2", "p", "", "a^100000000"],
               "quantize": [*SYSTEMS, "missing.json"]}


@st.composite
def argvs(draw):
    """A subcommand, a few positionals and options, now and then shuffled."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command] + draw(st.lists(st.sampled_from(POSITIONALS.get(command, INTS)),
                                     max_size=3))
    for option in draw(st.lists(st.sampled_from(list(OPTIONS)), max_size=3)):
        argv += [option, draw(st.sampled_from(OPTIONS[option] + INTS))]
    if draw(st.booleans()):
        argv = draw(st.permutations(argv))
    return argv


@pytest.fixture(scope="module")
def systems_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("systems")
    for name, document in SYSTEMS.items():
        text = document if isinstance(document, str) else json.dumps(document)
        (directory / name).write_text(text)
    return directory


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
@example(argv=["weyl", "1000000000", "0"])
@example(argv=["coeffs", "0", "1000000000"])
@example(argv=["quantize", "huge.json"])
@example(argv=["check", "--max", "1000000000"])
@example(argv=["normal-order", "a^100000000"])
@example(argv=["quantize", "bigcoeff.json"])
@example(argv=["quantize", "deep.json"])
@example(argv=["weyl", "1", "1", "--method", "9" * 5000])
def test_every_argv_honours_the_exit_codes(systems_dir, argv):
    argv = [str(systems_dir / word) if word in POSITIONALS["quantize"] else word
            for word in argv]
    if "check" in argv:
        # the default --max 6 is opt-in work; a drawn --max later in argv still wins
        at = argv.index("check") + 1
        argv[at:at] = ["--max", "3"]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(argv) in (0, 1, 2, 3)
    # no message echoes a long argument whole
    assert all(len(line) < 200 for line in err.getvalue().splitlines())


# the positional count and the options of each command, to draw plain argv from
PLAIN = {"weyl": (2, ["--method", "--format"]), "normal-order": (1, ["--route", "--format"]),
         "coeffs": (2, ["--which", "--format"]), "quantize": (1, ["--format"]),
         "check": (0, ["--max", "--eta-cap"])}


@st.composite
def plain_argvs(draw):
    """COMMAND POSITIONAL... (--OPTION VALUE)... with the command's own options."""
    command = draw(st.sampled_from(list(PLAIN)))
    count, options = PLAIN[command]
    numbers = st.one_of(st.integers(0, 50).map(str), st.sampled_from(INTS))
    tokens = st.text(max_size=6) if command in POSITIONALS else numbers
    argv = [command] + [draw(tokens) for _ in range(count)]
    for option in draw(st.lists(st.sampled_from(options), max_size=3)):
        argv += [option, draw(st.sampled_from(OPTIONS[option]) if OPTIONS[option] else numbers)]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(argvs(), plain_argvs()))
@example(argv=["weyl", "\u0663", "1_0"])
@example(argv=["coeffs", " 4", "0", "--which", "zeta"])
@example(argv=["normal-order", ""])
@example(argv=["weyl", "-1", "2"])
@example(argv=["normal-order", "-a"])
@example(argv=["weyl", "1", "1", "--format", "latex", "--format", "plain"])
def test_fast_lane_matches_argparse(argv):
    quick = _quick_args(argv)
    assert quick is None or quick == build_parser().parse_args(argv)
