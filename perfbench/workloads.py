"""Seeded request lists for the benchmark workloads.

A workload is one fixed list of requests, a *pass*, made from the seed
alone.  run.py replays the same pass in fresh interpreters until the run
time is used up.  The work a pass asks for does not depend on the seed:
the (j, k) pairs, output formats, routes and the long words are fixed,
and the seed picks only what costs the same either way (request order,
the short words, coefficients, the splits of small system monomials).  Two seeds
therefore ask for the same amount of work in different words, and the
spread of a metric over seeds is the spread of the timing alone.  This
module imports nothing from the package.
"""
from __future__ import annotations

import json
import os
import random

FORMATS = ("plain", "latex", "structured")

# weyl-quantize: one (j, k) pair per listed value of j + k, split by the
# fractions of SPLITS in turn (so q^n, p^n and mixed shapes all occur; the
# cost of a pair varies by a third with its split, so the split is not
# seeded).  Small pairs take a few ms, mid ones 10-150 ms.
SMALL_DEGREES = range(1, 16, 2)
MID_DEGREES = range(16, 41, 4)
SPLITS = ((1, 2), (1, 4), (3, 4), (0, 1), (1, 1), (1, 3), (2, 3))
# The large request takes about a quarter of a second and renders 30 KB of
# LaTeX.  The ROADMAP target (40, 40) takes 0.6-0.8 s: so long a request
# gets too few tries in a run for a steady best time, so it is timed in the
# traced run's anchors instead.
LARGE_REQUESTS = ((30, 30, "latex"),)
# Every REPEAT_EVERY-th small or mid pair is asked for again in the next
# format, as a user who wants the same answer in another form.
REPEAT_EVERY = 3
SYSTEM_FILES = 16
# Each side of a system has two monomials, of j + k = d and SYSTEM_DEGREE - d
# with d from 1 to 8 (pdot four files on from qdot), split by SPLITS: every
# file asks for the same total degree, and only the coefficients come from
# the seed.
SYSTEM_DEGREE = 17

# normal-order-words.  Routes alternate within each shape, so every pass
# sends the same number of each shape down each route.  The long words
# (mixed, square, block) are the same in every pass and sit at fixed
# places in a fixed order: the rewrite memo makes a word's cost depend on
# the words before it, and the long words set the tail latency.
SHORT_WORDS = 320
SHORT_MAX_RUNS = 4
SHORT_MAX_POWER = 4
MIXED_WORDS = 32
MIXED_LENGTHS = (24, 64)
# The longest MIXED_TOP mixed words all have the greatest length.  With the
# four failing blocks above them, the tail latency (the 11th longest
# request) falls inside this group of like requests, and not in a gap
# between two unlike ones that the timing noise can reorder.
MIXED_TOP = 16
MIXED_MAX_RUN = 6
SQUARE_POWERS = range(8, 31, 2)  # a^n ad^n
BLOCK_POWERS = (1000, 1600, 2200, 2800)  # N of a ad^N and a^N ad
ROUTES = ("rewrite", "blasiak")
# Deep recursion on a long block holds about 15 MB per 1000 letters until it
# fails, on top of the rewrite memo built so far.  The blocks therefore sit at
# fixed, evenly spaced places of the pass, the longest last, so that the
# peak memory of a pass does not depend on where the seed put them.
# The rewrite oracle recurses once per inversion (an `a` left of an `ad`);
# mixed words stay below the depth at which it fails today (a^31 ad^31 has
# 961 inversions and passes, a^32 ad^32 fails).  The long single blocks are
# the failing share: every one of them raises RecursionError out of
# cli.main at the seed and is counted as a failed request.
MAX_INVERSIONS = 900

# verify-sweep: the package's own cross-check at degree 4.  A check at
# degree 7 is one request of 9-13 s, and on a shared host the best time of
# so long a request moved by a quarter from run to run; at degree 4 a run
# makes dozens of passes and its best time holds still.
CHECK_ARGV = ["check", "--max", "4"]


def generate(workload: str, seed: int, workdir: str) -> list:
    """The request list of one pass; system files are written to workdir."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "weyl-quantize":
        return _weyl_quantize(rng, workdir)
    if workload == "normal-order-words":
        return _normal_order_words(rng)
    if workload == "verify-sweep":
        # check takes no input; the seed changes nothing here.
        return [{"kind": "check", "argv": list(CHECK_ARGV)}]
    raise ValueError(f"unknown workload {workload!r}")


def repeat_rate(requests: list) -> float:
    """Share of weyl requests whose (j, k) an earlier request of the pass asked for."""
    seen = set()
    repeats = total = 0
    for req in requests:
        if req["kind"] != "weyl":
            continue
        total += 1
        key = (req["j"], req["k"])
        repeats += key in seen
        seen.add(key)
    return repeats / total if total else 0.0


def _weyl_quantize(rng, workdir: str) -> list:
    weyl = []
    for index, n in enumerate(list(SMALL_DEGREES) + list(MID_DEGREES)):
        num, den = SPLITS[index % len(SPLITS)]
        j = n * num // den
        weyl.append((j, n - j, FORMATS[index % len(FORMATS)]))
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            weyl.append((j, n - j, FORMATS[(index + 1) % len(FORMATS)]))
    requests = [{"kind": "weyl", "j": j, "k": k, "format": fmt,
                 "argv": ["weyl", str(j), str(k), "--method", "closed", "--format", fmt]}
                for j, k, fmt in weyl + list(LARGE_REQUESTS)]
    for index in range(SYSTEM_FILES):
        system = _system(rng, index)
        path = os.path.join(workdir, f"system{index:02d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(system, handle)
        fmt = FORMATS[index % len(FORMATS)]
        requests.append({"kind": "quantize", "system": system, "format": fmt,
                         "argv": ["quantize", path, "--format", fmt]})
    rng.shuffle(requests)
    return requests


def _system(rng, index: int) -> dict:
    doc = {}
    for side, low in (("qdot", index % 8 + 1), ("pdot", (index + 4) % 8 + 1)):
        terms = []
        for term, n in enumerate((low, SYSTEM_DEGREE - low)):
            num, den = SPLITS[(index + term) % len(SPLITS)]
            terms.append((n * num // den, n - n * num // den))
        doc[side] = [{"j": j, "k": k, "coeff": _coeff(rng)} for j, k in sorted(terms)]
    return doc


def _coeff(rng) -> str:
    num = rng.choice((-1, 1)) * rng.randint(1, 9)
    return f"{num}/{rng.randint(1, 6)}"


def _normal_order_words(rng) -> list:
    fixed = random.Random("normal-order-words/long")
    low, high = MIXED_LENGTHS
    long_words = []
    for index in range(MIXED_WORDS):
        length = min(high, low + index * (high - low) // (MIXED_WORDS - MIXED_TOP))
        long_words.append(("mixed", _mixed_word(fixed, length, min(length * length // 8,
                                                                    MAX_INVERSIONS))))
    long_words += [("square", [("a", n), ("ad", n)]) for n in SQUARE_POWERS]
    long_words = [(shape, runs, ROUTES[index % len(ROUTES)])
                  for index, (shape, runs) in enumerate(long_words)]
    fixed.shuffle(long_words)
    for index, n in enumerate(BLOCK_POWERS):
        runs = [("a", 1), ("ad", n)] if index % 2 else [("a", n), ("ad", 1)]
        at = (index + 1) * len(long_words) // len(BLOCK_POWERS)
        long_words.insert(at + index, ("block", runs, ROUTES[index // 2 % len(ROUTES)]))
    requests = [("short", _short_word(rng), ROUTES[index % len(ROUTES)])
                for index in range(SHORT_WORDS)]
    rng.shuffle(requests)
    stride = (len(requests) + len(long_words)) // len(long_words)
    for index, word in enumerate(long_words):
        requests.insert((index + 1) * stride - 1, word)
    return [{"kind": "normal-order", "shape": shape,
             "argv": ["normal-order", _run_length(runs), "--route", route]}
            for shape, runs, route in requests]


def _short_word(rng) -> list:
    letter = rng.choice(("a", "ad"))
    runs = []
    for _ in range(rng.randint(1, SHORT_MAX_RUNS)):
        runs.append((letter, rng.randint(1, SHORT_MAX_POWER)))
        letter = "ad" if letter == "a" else "a"
    return runs


def _mixed_word(rng, length: int, inversions: int) -> list:
    """Alternating runs of `length` letters with about `inversions` inversions."""
    while True:
        letter = rng.choice(("a", "ad"))
        runs = []
        left = length
        while left:
            power = min(left, rng.randint(1, MIXED_MAX_RUN))
            runs.append((letter, power))
            left -= power
            letter = "ad" if letter == "a" else "a"
        if abs(_inversions(runs) - inversions) <= inversions // 20:
            return runs


def _inversions(runs: list) -> int:
    seen_a = total = 0
    for letter, power in runs:
        if letter == "a":
            seen_a += power
        else:
            total += seen_a * power
    return total


def _run_length(runs: list) -> str:
    return " ".join(letter if power == 1 else f"{letter}^{power}"
                    for letter, power in runs)
