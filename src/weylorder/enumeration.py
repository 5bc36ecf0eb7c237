"""Brute-force routes: ordering averages and the symbolic-sign decomposition check.

These exist to be ground truth for the closed form, so they compute the
defining averages over all distinct orderings and share no code with it.
The sum over every word of j x's and k y's is built by the word-sum
recursion S(a, b) = S(a-1, b) x + S(a, b-1) y: the same sum, grouped by the
last letter, in (j+1)(k+1) steps instead of C(j+k, j) word expansions.
`distinct_orderings` lists the words themselves.  No route calls it: the
tests form the average word by word with it, and the benchmark tracer
counts the words it yields.

The eta check expands prod_r (ad + s_r a) with symbolic signs and sums the
(u, v) slot over the C(j+k, k) distinct arrangements of j plus-signs and k
minus-signs, times the j!k! permutations that give each one.  It stays
exponential in j+k (subsets of positions times arrangements), so it keeps
its cap.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from . import closedform
from .poly import ANNIHILATE, CREATE, P, P_POLY, Q, Q_POLY, NormalPoly, _normal_order_int
from .scalar import Scalar

ETA_CAP = 6
_A_RUN, _AD_RUN = (ANNIHILATE, 1), (CREATE, 1)  # the one-letter runs of the eta check's words


class CapExceededError(Exception):
    """Raised when a request is asked to exceed a configured cap; `unit` names what is counted."""

    def __init__(self, what: str, degree: int, cap: int, unit: str = "degree"):
        self.what = what
        self.degree = degree
        self.cap = cap
        super().__init__(f"{what}: {unit} {degree} exceeds cap {cap}")


def distinct_orderings(j: int, k: int):
    """All multiset permutations of j Q's and k P's, lexicographic with Q < P."""
    if j < 0 or k < 0:
        raise ValueError("powers must be nonnegative")
    # the Q positions in lexicographic order are the words in lexicographic order
    for qs in combinations(range(j + k), j):
        yield tuple(Q if r in qs else P for r in range(j + k))


def _word_sum(j: int, k: int, x: NormalPoly, y: NormalPoly) -> NormalPoly:
    """Sum of the products over all distinct words of j x's and k y's.

    Keeps one row S(a, 0..k) and updates it in place for a = 1..j.
    """
    if j < 0 or k < 0:
        raise ValueError("powers must be nonnegative")
    row = [NormalPoly.one()]
    for b in range(k):
        row.append(row[b] * y)
    for _ in range(j):
        row[0] = row[0] * x
        for b in range(1, k + 1):
            row[b] = row[b] * x + row[b - 1] * y
    return row[k]


def weyl_bruteforce(j: int, k: int) -> NormalPoly:
    """Average of expand_qp_word over all distinct orderings of q^j p^k."""
    return _word_sum(j, k, Q_POLY, P_POLY) * Fraction(1, comb(j + k, j))


def weyl_forced(j: int, k: int) -> NormalPoly:
    """Forced-ordering average: signed factor products over all arrangements.

    Each distinct arrangement of j plus-signs and k minus-signs stands for
    j!k! identical permutations, cancelling against the (j+k)! denominator.
    The word-sum recursion makes the cost polynomial, as brute's is: no cap.
    """
    plus = NormalPoly({(1, 0): 1, (0, 1): 1})
    minus = NormalPoly({(1, 0): 1, (0, 1): -1})
    return _word_sum(j, k, plus, minus) * Scalar.weyl_unit(j, k, Fraction(1, comb(j + k, j)))


class EtaCheck(namedtuple("EtaCheck",
                          "j k u v symbolic_sum lambda_value xi_value zeta_value")):
    """Result of validating the three-factor decomposition for one (u, v) slot."""
    __slots__ = ()
    __hash__ = None

    @property
    def matches(self) -> bool:
        return self.symbolic_sum == self.lambda_value * self.xi_value * self.zeta_value


def eta_decomposition_check(j: int, k: int, u: int, v: int, cap: int = ETA_CAP) -> EtaCheck:
    """Sum the symbolic sign polynomial over all permutations and compare.

    Expands prod_r (ad + s_r a) keeping the signs symbolic: choosing a at the
    positions in a subset T contributes the monomial prod_{r in T} s_r, and
    normal-ordering the resulting word gives its integer weight in the
    (u, v) slot.  Only subsets of size u+v can reach that slot.  The n!
    permutations of j plus-signs and k minus-signs give each of the C(n, k)
    distinct arrangements j!k! times, so the sum runs over the sets M of
    minus positions, where prod_{r in T} s_r = (-1)^|T & M|, times j!k!.
    """
    n = j + k
    if n > cap:
        raise CapExceededError("symbolic sign expansion", n, cap)
    if 2 * u + v > n:
        raise ValueError("2u+v exceeds j+k")
    slot = (n - 2 * u - v, v)
    monomials = []  # (bitmask of T, weight)
    for subset in combinations(range(n), u + v):
        word = tuple(_A_RUN if r in subset else _AD_RUN for r in range(n))
        weight = _normal_order_int(word).get(slot, 0)
        if weight:
            monomials.append((sum(1 << r for r in subset), weight))
    total = 0
    for minus in combinations(range(n), k):
        mask = sum(1 << r for r in minus)
        for subset, weight in monomials:
            total += -weight if (subset & mask).bit_count() & 1 else weight
    return EtaCheck(
        j, k, u, v,
        symbolic_sum=Fraction(total * factorial(j) * factorial(k)),
        lambda_value=closedform.lambda_factor(j, k, u, v),
        xi_value=closedform.xi_factor(j, k, u, v),
        zeta_value=closedform.zeta_sum(j, k, u + v),
    )
