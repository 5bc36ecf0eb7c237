"""Closed form of the Weyl ordering of q^j p^k in normal order.

The coefficient h(j,k,u,v) factors into a sign prefactor, a contraction
count and the alternating Vandermonde convolution zeta.  zeta comes in four
equivalent implementations (alternating sum, polynomial coefficient read from
the row of a three-term recurrence, guard-function sum, nonzero-range sum) that
are cross-checked in the test suite and by the `check` sweep.

Every coefficient of one (j, k) is the unit i^k 2^{-(j+k)/2} times u!/2^u
times an integer, so it sits in the one ring component the unit fills, and
the table is built from one zeta row in ints.  `scalar._weyl_unit_parts`
gives that component, the unit's sign and its denominator, once per (j, k);
row u shifts the denominator by u, and the int u! C(n-u-v, u) C(u+v, u)
steps along the row by exact division.  `_slot_rows` yields each row as its
int numerators over one denominator.  `h_slots` and `weyl_normal_form` build
each slot's Scalar from (component, numerator, denominator) with one
two-argument gcd, and `weyl_normal_form` builds none for a zero slot;
`quantize` sums the rows of several monomials in ints before it builds any
Scalar.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial

from .poly import NormalPoly
from .scalar import Scalar, _one, _weyl_unit_parts


def lambda_factor(j: int, k: int, u: int, v: int) -> int:
    """Multiplicity of each sign monomial in each slot: (j+k-u-v)! (u+v)!"""
    if u + v > j + k:
        raise ValueError("u+v exceeds j+k")
    return factorial(j + k - u - v) * factorial(u + v)


def xi_factor(j: int, k: int, u: int, v: int) -> Fraction:
    """Sum of the slot weights: (j+k)! / (2^u u! v! (j+k-2u-v)!)"""
    if 2 * u + v > j + k:
        raise ValueError("2u+v exceeds j+k")
    return Fraction(factorial(j + k),
                    2 ** u * factorial(u) * factorial(v) * factorial(j + k - 2 * u - v))


def _check_indices(*indices: int) -> None:
    if min(indices) < 0:
        raise ValueError("indices must be nonnegative")


def zeta_sum(j: int, k: int, t: int) -> int:
    """Alternating-sign Vandermonde convolution sum."""
    _check_indices(j, k)
    return sum((-1) ** m * comb(j, t - m) * comb(k, m) for m in range(t + 1))


def zeta_row(j: int, k: int) -> list:
    """Coefficients z[t] = zeta(j, k, t) of f = (1+x)^j (1-x)^k, in O(j+k) exact steps.

    (1-x^2) f' = ((j-k) - (j+k) x) f gives (t+1) z[t+1] = (j-k) z[t] + (t-1-j-k) z[t-1].
    """
    _check_indices(j, k)
    row = [1]
    for t in range(j + k):
        row.append(((j - k) * row[t] + (t - 1 - j - k) * (row[t - 1] if t else 0)) // (t + 1))
    return row


def zeta_poly(j: int, k: int, t: int) -> int:
    """Coefficient of x^t in (1+x)^j (1-x)^k, read from the recurrence's row."""
    coeffs = zeta_row(j, k)
    return coeffs[t] if 0 <= t < len(coeffs) else 0


def _g(a: int, b: int) -> int:
    return 1 if a >= b else 0


def _gamma(a: int, b: int) -> int:
    return comb(a, b) if _g(a, b) else 0


def zeta_gamma(j: int, k: int, t: int) -> int:
    """The guard-function form of the convolution (derivation route)."""
    _check_indices(j, k)
    return sum((-1) ** m * _gamma(j, t - m) * _gamma(k, m) for m in range(t + 1))


def zeta_range(j: int, k: int, t: int) -> int:
    """Nonzero-contribution range form: m from max(0, t-j) to min(k, t)."""
    _check_indices(j, k)
    return sum((-1) ** m * comb(j, t - m) * comb(k, m)
               for m in range(max(0, t - j), min(k, t) + 1))


def slots(n: int):
    """Yield every slot (u, v) with 2u+v <= n, u then v ascending."""
    for u in range(n // 2 + 1):
        for v in range(n - 2 * u + 1):
            yield u, v


def h_coeff(j: int, k: int, u: int, v: int) -> Scalar:
    """Coefficient of ad^(j+k-2u-v) a^v in the normal form of the Weyl ordering.

    It is the unit over 2^u times u! C(n-u-v, u) C(u+v, u) zeta(j, k, u+v), n = j+k, with
    factorial and comb, and with zeta from the nonzero-range sum, not the row `h_slots` expands.
    """
    _check_indices(j, k, u, v)
    if 2 * u + v > j + k:
        raise ValueError("2u+v exceeds j+k")
    unit = Scalar.weyl_unit(j, k, Fraction(1, 1 << u))
    return unit._times_rational(
        factorial(u) * comb(j + k - u - v, u) * comb(u + v, u) * zeta_range(j, k, u + v))


def _slot_rows(j: int, k: int):
    """Yield (u, index, den, nums) once per row u, u ascending: h(j,k,u,v) is the unreduced
    nums[v]/den, v = 0..j+k-2u, in ring component `index`, the one component of
    the unit i^k 2^{-(j+k)/2}; zeta_row rejects a negative index.
    """
    n = j + k
    zeta = zeta_row(j, k)
    index, head, unit_den = _weyl_unit_parts(j, k)
    for u in range(n // 2 + 1):
        if u:  # sign u! C(n-u, u) = sign (n-u)!/(n-2u)!, from row u-1
            head = head * (n - 2 * u + 2) * (n - 2 * u + 1) // (n - u + 1)
        c = head
        nums = [c * zeta[u]]
        for v in range(1, n - 2 * u + 1):  # c = sign u! C(n-u-v, u) C(u+v, u), from v-1
            c = c * (n - 2 * u - v + 1) * (u + v) // ((n - u - v + 1) * v)
            nums.append(c * zeta[u + v])
        yield u, index, unit_den << u, nums


def h_slots(j: int, k: int):
    """Yield (u, v, h(j,k,u,v)) for every slot, u then v ascending, from one zeta row."""
    for u, index, den, nums in _slot_rows(j, k):
        for v, num in enumerate(nums):
            yield u, v, _one(index, num, den)


def weyl_normal_form(j: int, k: int) -> NormalPoly:
    """Normal-ordered equivalent of the Weyl ordering of q^j p^k (closed form).

    Slot (u, v) is the term ad^(j+k-2u-v) a^v, so every slot has its own key; a zero
    slot builds no Scalar.
    """
    n = j + k
    return NormalPoly._of({(n - 2 * u - v, v): _one(index, num, den)
                           for u, index, den, nums in _slot_rows(j, k)
                           for v, num in enumerate(nums) if num})


class SymmetryReport(namedtuple("SymmetryReport", "j k pair_rule_ok odd_middle_ok failures")):
    """Outcome of the two coefficient identities for one (j, k); failures defaults to []."""
    __slots__ = ()
    __hash__ = None

    def __new__(cls, j, k, pair_rule_ok, odd_middle_ok, failures=None):
        return super().__new__(cls, j, k, pair_rule_ok, odd_middle_ok,
                               [] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return self.pair_rule_ok and self.odd_middle_ok


def symmetry_report(j: int, k: int) -> SymmetryReport:
    """Check h(j,k,u,v) = (-1)^k h(j,k,u,j+k-2u-v), and the odd-odd middle zero.

    Both rules are read from one table built by `h_slots`.
    """
    table = {(u, v): h for u, v, h in h_slots(j, k)}
    sign = (-1) ** k
    odd_odd = j % 2 == 1 and k % 2 == 1
    pair_ok = True
    middle_ok = True
    failures = []
    for (u, v), lhs in table.items():
        width = j + k - 2 * u
        rhs = table[u, width - v] * sign
        if lhs != rhs:
            pair_ok = False
            failures.append(("pair", u, v, lhs, rhs))
        if odd_odd and 2 * v == width and lhs:
            middle_ok = False
            failures.append(("middle", u, v, lhs, Scalar()))
    return SymmetryReport(j, k, pair_ok, middle_ok, failures)
