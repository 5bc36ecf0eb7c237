"""Cross-method verification sweep used by the `check` subcommand and tests."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .altroutes import weyl_via_cg
from .closedform import (slots, symmetry_report, weyl_normal_form, zeta_gamma, zeta_poly,
                         zeta_range, zeta_sum)
from .enumeration import ETA_CAP, eta_decomposition_check, weyl_bruteforce, weyl_forced


@dataclass
class CheckResult:
    name: str
    cases: int
    passed: bool
    witness: str = ""


@dataclass
class CheckReport:
    results: list = field(default_factory=list)

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
    report = CheckReport()
    pairs = list(_degree_pairs(max_degree))
    witness = ""
    for j, k in pairs:
        closed = closed_at(j, k)
        brute = brute_at(j, k)
        cg = weyl_via_cg(j, k)
        if closed != brute:
            witness = f"closed != brute at (j={j}, k={k}): {closed!r} vs {brute!r}"
        elif closed != cg:
            witness = f"closed != cg at (j={j}, k={k}): {closed!r} vs {cg!r}"
        if witness:
            break
    report.results.append(CheckResult("route-equality(closed,brute,cg)",
                                      len(pairs), not witness, witness))

    witness = ""
    for j, k in pairs:
        if weyl_forced(j, k) != brute_at(j, k):
            witness = f"forced != brute at (j={j}, k={k})"
            break
    report.results.append(CheckResult("forced-vs-brute", len(pairs), not witness, witness))

    eta_pairs = [p for p in pairs if p[0] + p[1] <= eta_cap]
    cases = 0
    witness = ""
    for j, k in eta_pairs:
        for u, v in slots(j + k):
            cases += 1
            check = eta_decomposition_check(j, k, u, v, cap=eta_cap)
            if not check.matches and not witness:
                witness = (f"eta decomposition fails at (j={j}, k={k}, u={u}, v={v}): "
                           f"{check.symbolic_sum} vs "
                           f"{check.lambda_value * check.xi_value * check.zeta_value}")
    report.results.append(CheckResult("eta-decomposition", cases, not witness, witness))

    cases = 0
    witness = ""
    for j, k in pairs:
        for t in range(j + k + 3):
            cases += 1
            values = {zeta_sum(j, k, t), zeta_poly(j, k, t),
                      zeta_gamma(j, k, t), zeta_range(j, k, t)}
            if len(values) != 1 and not witness:
                witness = f"zeta variants disagree at (j={j}, k={k}, t={t}): {values}"
    report.results.append(CheckResult("zeta-agreement", cases, not witness, witness))

    witness = ""
    for j, k in pairs:
        sym = symmetry_report(j, k)
        if not sym.ok and not witness:
            kind, u, v, lhs, rhs = sym.failures[0]
            witness = f"{kind} symmetry fails at (j={j}, k={k}, u={u}, v={v}): {lhs!r} vs {rhs!r}"
    report.results.append(CheckResult("coefficient-symmetries", len(pairs),
                                      not witness, witness))

    witness = ""
    for j, k in pairs:
        closed = closed_at(j, k)
        if closed.adjoint() != closed:
            witness = f"not self-adjoint at (j={j}, k={k})"
            break
    report.results.append(CheckResult("hermiticity", len(pairs), not witness, witness))

    return report
