"""Rebuild tests/golden/manifest.json from the current CLI.

Run it from the repository root after a change that alters CLI stdout on
purpose, then list each changed entry in CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py

The requests: weyl closed for j, k <= 10 and the other routes for j, k <= 4
in every format; coeffs for j, k <= 6, every table and format; every word of
up to four letters on both routes in every format; the normal-order-words
requests of perfbench seeds 1 and 2, whose routes alternate; the
weyl-quantize system files of those seeds, each in the format that workload
asks for it; a few more system files, good and bad; check --max 0..6; usage
errors; help; and, last, a request past each cap (exit 3) and a system file
for each remaining document error.  Help and usage text wraps at COLUMNS,
fixed at 80 as in the replay.
"""
from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT)]

from perfbench.workloads import generate  # noqa: E402
from test_golden import COLUMNS, MANIFEST, replay, write_files  # noqa: E402

FORMATS = ("plain", "latex", "structured")
SEEDS = (1, 2)

# Input files the requests name, written to the working directory of a replay.
FILES = {
    "oscillator.json": json.dumps({"qdot": [{"j": 0, "k": 1, "coeff": "1/1"}],
                                   "pdot": [{"j": 1, "k": 0, "coeff": "-1/1"}]}),
    "empty.json": json.dumps({"qdot": [], "pdot": []}),
    # terms of either parity share slots, so coefficients get several components
    "mixed-parity.json": json.dumps({
        "qdot": [{"j": 2, "k": 0, "coeff": "1"}, {"j": 1, "k": 1, "coeff": "-2/3"},
                 {"j": 1, "k": 0, "coeff": "5"}, {"j": 0, "k": 3, "coeff": "1/7"}],
        "pdot": [{"j": 2, "k": 2, "coeff": "3/2"}, {"j": 0, "k": 2, "coeff": "-1"},
                 {"j": 2, "k": 1, "coeff": "1/4"}]}),
    "not-json.json": "{\"qdot\": [",
    "decimal-coeff.json": json.dumps({"qdot": [{"j": 0, "k": 1, "coeff": "0.5"}]}),
    "zero-denominator.json": json.dumps({"qdot": [{"j": 0, "k": 1, "coeff": "1/0"}]}),
    "negative-power.json": json.dumps({"qdot": [{"j": -1, "k": 1, "coeff": "1/1"}]}),
    "long-integer.json": "{\"qdot\": [{\"j\": " + "9" * 5000 + ", \"k\": 0, \"coeff\": \"1\"}]}",
}

GOOD_FILES = ("oscillator.json", "empty.json", "mixed-parity.json")

USAGE = [
    [], ["nonsense"], ["weyl"], ["weyl", "1"], ["weyl", "x", "1"], ["weyl", "1", "1.5"],
    ["weyl", "-1", "2"], ["weyl", "2", "-1"], ["weyl", "1", "1", "--method", "nope"],
    ["weyl", "1", "1", "--format", "html"], ["weyl", "1", "1", "--bogus"],
    ["weyl", "2", "2", "--forced-cap", "-1"], ["weyl", "2", "2", "--forced-cap", "x"],
    ["weyl", "2", "2", "--method", "forced", "--forced-cap", "3"],
    ["weyl", "5", "4", "--method", "forced"], ["weyl", "0", "9", "--method", "forced"],
    ["coeffs", "-1", "0"], ["coeffs", "0", "-1"], ["coeffs", "1", "1", "--which", "eta"],
    ["normal-order"], ["normal-order", ""], ["normal-order", "a !!"], ["normal-order", "p"],
    ["normal-order", "a^"], ["normal-order", "ad^-1"], ["normal-order", "a", "--route", "x"],
    ["normal-order", "ad^99999999999999999999"], ["normal-order", "ad^" + "9" * 5000],
    ["quantize"], ["quantize", "missing.json"],
    ["check", "--max", "-1"], ["check", "--max", "x"], ["check", "--eta-cap", "-1"],
    ["check", "--max", "2", "--forced-cap", "-1"],
    ["check", "--max", "2", "--forced-cap", "0", "--eta-cap", "0"],
    ["check", "--max", "2", "--eta-cap", "0"],
]
# Help, and an abbreviated option; argparse answers both.  These six and eight of the
# usage errors above ([], nonsense, weyl, weyl x 1, --method nope, --bogus, --which eta,
# --max x) gave the same bytes under Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
ARGPARSE = [
    ["--help"], ["-h"], ["weyl", "--help"], ["normal-order", "-h"], ["check", "-h"],
    ["weyl", "3", "2", "--form", "latex"],
]

# A request past each cap the CLI checks: MAX_DEGREE on every command that reads a degree,
# MAX_WORD_LETTERS, and the int-to-str digit limit of a rendered coefficient (4290 digits
# times the (40, 40) row makes 4301).  Then one file per SystemFormatError not met above.
# These came last, so that the entries before them kept their places.  All fourteen gave
# the same exit code and stderr under Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
CAPS = [
    ["weyl", "401", "0"], ["weyl", "0", "401", "--method", "cg"], ["coeffs", "200", "201"],
    ["check", "--max", "401"], ["normal-order", "a^10001"],
]
LIMIT_FILES = {
    "degree-401.json": json.dumps({"qdot": [{"j": 401, "k": 0, "coeff": "1"}], "pdot": []}),
    "digits-4301.json": json.dumps({"qdot": [{"j": 1, "k": 0, "coeff": "1"}],
                                    "pdot": [{"j": 40, "k": 40, "coeff": "9" * 4290}]}),
    "root-not-object.json": "[]",
    "field-not-array.json": json.dumps({"qdot": {}, "pdot": []}),
    "entry-not-object.json": json.dumps({"qdot": [1], "pdot": []}),
    "missing-coeff.json": json.dumps({"qdot": [{"j": 0, "k": 1}], "pdot": []}),
    "float-exponent.json": json.dumps({"qdot": [{"j": 1.0, "k": 0, "coeff": "1"}], "pdot": []}),
    "long-coeff.json": json.dumps({"qdot": [{"j": 0, "k": 1, "coeff": "9" * 5000}],
                                   "pdot": []}),
    "deep-nesting.json": "[" * 100_000 + "]" * 100_000,
}


def requests(workdir: str) -> tuple:
    """The argv of every request, and the input files they name."""
    files = {**FILES, **LIMIT_FILES}
    argvs = [["weyl", str(j), str(k), "--format", fmt]
             for j in range(11) for k in range(11) for fmt in FORMATS]
    argvs += [["weyl", str(j), str(k), "--method", method, "--format", fmt]
              for method in ("brute", "forced", "cg")
              for j in range(5) for k in range(5) for fmt in FORMATS]
    argvs += [["coeffs", str(j), str(k), "--which", which, "--format", fmt]
              for which in ("h", "zeta", "lambda", "xi")
              for j in range(7) for k in range(7) for fmt in FORMATS]
    words = [" ".join(letters) for length in range(1, 5)
             for letters in itertools.product(("a", "ad"), repeat=length)]
    argvs += [["normal-order", word, "--route", route, "--format", fmt]
              for word in words for route in ("rewrite", "blasiak") for fmt in FORMATS]
    for seed in SEEDS:
        argvs += [request["argv"] for request in generate("normal-order-words", seed, workdir)]
    for seed in SEEDS:
        for request in generate("weyl-quantize", seed, workdir):
            if request["kind"] == "quantize":
                name = f"seed{seed}-{Path(request['argv'][1]).name}"
                files[name] = json.dumps(request["system"])
                argvs.append(["quantize", name, *request["argv"][2:]])
    argvs += [["quantize", name, "--format", fmt]
              for name in GOOD_FILES for fmt in FORMATS]
    argvs += [["quantize", name] for name in sorted(FILES) if name not in GOOD_FILES]
    argvs += [["check", "--max", str(n)] for n in range(7)]
    limits = CAPS + [["quantize", name] for name in LIMIT_FILES]
    return argvs + USAGE + ARGPARSE + limits, files


def main() -> None:
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as workdir:
        argvs, files = requests(workdir)
        write_files(files, Path(workdir))
        os.chdir(workdir)
        entries = [replay(argv) for argv in argvs]
        os.chdir(ROOT)
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    MANIFEST.write_text(f'{{"files": {json.dumps(files, indent=1, sort_keys=True)},\n'
                        f'"requests": [\n{lines}\n]}}\n', encoding="utf-8")
    print(f"{len(entries)} requests written to {MANIFEST.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
