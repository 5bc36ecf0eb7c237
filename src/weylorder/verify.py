"""Cross-method verification sweep used by the `check` subcommand and tests.

`run_checks` is one table.  Each row is `(name, witness_at, cases)`:
`cases` lists the argument tuples the check sweeps, and `witness_at(*case)`
returns the witness string for that case, or None when it passes.  One loop
runs every row and stops it at its first failing case; the row still reports
its full case count and that first witness.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cache

from .altroutes import weyl_via_cg
from .closedform import (slots, symmetry_report, weyl_normal_form, zeta_gamma, zeta_poly,
                         zeta_range, zeta_sum)
from .enumeration import ETA_CAP, eta_decomposition_check, weyl_bruteforce, weyl_forced


class CheckResult(namedtuple("CheckResult", "name cases passed witness", defaults=("",))):
    __slots__ = ()
    __hash__ = None


class CheckReport(namedtuple("CheckReport", "results")):
    """The results of a sweep, in table order; results defaults to []."""
    __slots__ = ()
    __hash__ = None

    def __new__(cls, results=None):
        return super().__new__(cls, [] if results is None else results)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def _degree_pairs(max_degree: int):
    for degree in range(max_degree + 1):
        for j in range(degree + 1):
            yield j, degree - j


def run_checks(max_degree: int = 6, eta_cap: int = ETA_CAP) -> CheckReport:
    """Run every check over all j + k <= max_degree; the factorial eta sum stops at eta_cap.

    The closed form checked is `weyl_normal_form`, the code `weyl --method
    closed` serves.  Each route's value at a pair is computed once and
    shared by the checks that read it.
    """
    closed_at, brute_at = cache(weyl_normal_form), cache(weyl_bruteforce)

    def routes(j, k):
        closed, brute = closed_at(j, k), brute_at(j, k)
        if closed != brute:
            return f"closed != brute at (j={j}, k={k}): {closed!r} vs {brute!r}"
        cg = weyl_via_cg(j, k)
        return None if closed == cg else f"closed != cg at (j={j}, k={k}): {closed!r} vs {cg!r}"

    def forced(j, k):
        return (None if weyl_forced(j, k) == brute_at(j, k)
                else f"forced != brute at (j={j}, k={k})")

    def eta(j, k, u, v):
        check = eta_decomposition_check(j, k, u, v, cap=eta_cap)
        return None if check.matches else (
            f"eta decomposition fails at (j={j}, k={k}, u={u}, v={v}): "
            f"{check.symbolic_sum} vs {check.lambda_value * check.xi_value * check.zeta_value}")

    def zeta(j, k, t):
        values = {zeta_sum(j, k, t), zeta_poly(j, k, t), zeta_gamma(j, k, t), zeta_range(j, k, t)}
        return (None if len(values) == 1
                else f"zeta variants disagree at (j={j}, k={k}, t={t}): {values}")

    def symmetry(j, k):
        sym = symmetry_report(j, k)
        if sym.ok:
            return None
        kind, u, v, lhs, rhs = sym.failures[0]
        return f"{kind} symmetry fails at (j={j}, k={k}, u={u}, v={v}): {lhs!r} vs {rhs!r}"

    def hermitian(j, k):
        closed = closed_at(j, k)
        return None if closed.adjoint() == closed else f"not self-adjoint at (j={j}, k={k})"

    pairs = list(_degree_pairs(max_degree))
    table = (
        ("route-equality(closed,brute,cg)", routes, pairs),
        ("forced-vs-brute", forced, pairs),
        ("eta-decomposition", eta,
         [(j, k, u, v) for j, k in pairs if j + k <= eta_cap for u, v in slots(j + k)]),
        ("zeta-agreement", zeta, [(j, k, t) for j, k in pairs for t in range(j + k + 3)]),
        ("coefficient-symmetries", symmetry, pairs),
        ("hermiticity", hermitian, pairs),
    )
    results = []
    for name, witness_at, cases in table:
        witness = next(filter(None, (witness_at(*case) for case in cases)), "")
        results.append(CheckResult(name, len(cases), not witness, witness))
    return CheckReport(results)
