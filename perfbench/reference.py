"""Off-the-clock answer checks against references the timed requests did not produce.

* weyl and quantize: the cg route (altroutes.weyl_via_cg), rendered the
  way the CLI renders the closed route.  cg results are cached per (j, k),
  and the digest of each weyl answer is kept on disk per (j, k, format)
  for the package's source as it stands (see References).
* normal-order: exit code 0, which cli.main returns only after the rewrite
  and Blasiak routes agree.
* check: exit code 0, "all checks passed", and the case counts of the seed.

Only names in weylorder.__all__ are used.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction
from pathlib import Path

# Case counts that `check --max 4` reports at the seed commit.
SEED_CHECK_CASES = {
    "route-equality": 15,
    "forced-vs-brute": 15,
    "eta-decomposition": 86,
    "zeta-agreement": 85,
    "coefficient-symmetries": 15,
    "hermiticity": 15,
}
_CHECK_LINE = re.compile(r"([\w-]+)(?:\([^)]*\))?: (\d+) cases (ok|FAIL)")


def check_cases(stdout: str) -> dict:
    """Case count of each check that passed, by check name without its arguments."""
    cases = {}
    for line in stdout.splitlines():
        match = _CHECK_LINE.fullmatch(line)
        if match and match.group(3) == "ok":
            cases[match.group(1)] = int(match.group(2))
    return cases


class References:
    """Decides whether each recorded answer is right.

    cg at (30, 30) takes seconds, and every run of weyl-quantize asks for
    the same pairs, so the digest of each expected weyl answer is kept in
    cache_dir under a name made from the digest of the package's source:
    runs of one checkout compute each reference once, and a change to the
    source starts a new cache.  save() writes what was added.
    """

    def __init__(self, cache_dir=None, source_dir=None):
        import weylorder
        self._wl = weylorder
        self._cg = {}
        self._expected = {}
        self._path = None
        self._digests = {}
        self._added = False
        if cache_dir is not None:
            source = hashlib.sha256()
            for path in sorted(Path(source_dir).rglob("*.py")):
                name = path.relative_to(source_dir).as_posix()
                source.update(name.encode() + b"\0" + path.read_bytes())
            self._path = Path(cache_dir) / f"references-{source.hexdigest()[:16]}.json"
            try:
                self._digests = json.loads(self._path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                self._digests = {}

    def save(self) -> None:
        if self._path is None or not self._added:
            return
        self._path.parent.mkdir(exist_ok=True)
        partial = self._path.with_suffix(".partial")
        partial.write_text(json.dumps(self._digests, sort_keys=True), encoding="utf-8")
        os.replace(partial, self._path)

    def _cg_poly(self, j: int, k: int):
        if (j, k) not in self._cg:
            self._cg[j, k] = self._wl.weyl_via_cg(j, k)
        return self._cg[j, k]

    def _terms(self, poly) -> list:
        return json.loads(self._wl.render(poly, "structured"))["terms"]

    def _stdout(self, req: dict) -> str:
        render = self._wl.render
        fmt = req["format"]
        if req["kind"] == "weyl":
            j, k = req["j"], req["k"]
            poly = self._cg_poly(j, k)
            if fmt == "structured":
                return json.dumps({"j": j, "k": k, "hbar_exponent_times_2": j + k,
                                   "terms": self._terms(poly)}) + "\n"
            return render(poly, fmt) + "\n"
        sides = {}
        notes = []
        for side in ("qdot", "pdot"):
            acc = self._wl.NormalPoly()
            entries = sorted((e["j"], e["k"], e["coeff"]) for e in req["system"][side])
            for j, k, coeff in entries:
                acc = acc + self._cg_poly(j, k) * Fraction(coeff)
                notes.append({"side": side, "j": j, "k": k, "hbar_exponent_times_2": j + k})
            sides[side] = acc
        if fmt == "structured":
            return json.dumps({"qdot": {"terms": self._terms(sides["qdot"])},
                               "pdot": {"terms": self._terms(sides["pdot"])},
                               "hbar_note": notes}) + "\n"
        return (f"<q>' = {render(sides['qdot'], fmt)}\n"
                f"<p>' = {render(sides['pdot'], fmt)}\n")

    def is_correct(self, index: int, req: dict, record: dict) -> bool:
        """Whether request `index` of the pass returned the right answer."""
        if record["error"] is not None or record["code"] != 0:
            return False
        kind = req["kind"]
        if kind == "normal-order":
            return record["bytes"] > 0
        if kind == "check":
            lines = record["stdout"].splitlines()
            return (bool(lines) and lines[-1] == "all checks passed"
                    and check_cases(record["stdout"]) == SEED_CHECK_CASES)
        if index not in self._expected:
            self._expected[index] = self._digest(req)
        return record["sha256"] == self._expected[index]

    def _digest(self, req: dict) -> str:
        key = f"{req['j']} {req['k']} {req['format']}" if req["kind"] == "weyl" else None
        if key in self._digests:
            return self._digests[key]
        digest = hashlib.sha256(self._stdout(req).encode()).hexdigest()
        if key is not None:
            self._digests[key] = digest
            self._added = True
        return digest
