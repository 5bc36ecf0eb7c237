"""Weyl quantization of polynomial bivariate dynamical systems.

A classical vector field (q' = A(q,p), p' = B(q,p)) with rational polynomial
right-hand sides is mapped term by term through the Weyl normal form, giving
the expected dynamics of <q> and <p> as normal-ordered operator polynomials.
A side is summed from the closed form's int rows (`closedform._slot_rows`),
scaled by each coefficient, over one common denominator: each output term is
reduced once, and a term whose sum cancels builds no Scalar.
Systems are autonomous and coefficients must be real rationals.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from numbers import Rational
from types import MappingProxyType

from .closedform import _slot_rows
from .poly import NormalPoly
from .scalar import _make


def _clean_side(side, name: str) -> dict:
    clean = {}
    for (j, k), coeff in dict(side or {}).items():
        if any(isinstance(e, bool) or not isinstance(e, int) for e in (j, k)):
            raise ValueError(f"{name}: exponents at ({j!r}, {k!r}) must be integers")
        if j < 0 or k < 0:
            raise ValueError(f"{name}: negative exponent at ({j}, {k})")
        if isinstance(coeff, bool) or not isinstance(coeff, (int, Rational)):
            raise ValueError(f"{name}: coefficient at ({j}, {k}) is not a real rational")
        coeff = Fraction(coeff)
        if coeff:
            clean[(j, k)] = coeff
    return clean


class PolySystem(namedtuple("PolySystem", "qdot pdot")):
    """Sparse rational coefficients of q' and p' as mappings (j, k) -> Fraction."""
    __slots__ = ()

    def __new__(cls, qdot=None, pdot=None):
        return super().__new__(cls, MappingProxyType(_clean_side(qdot, "qdot")),
                               MappingProxyType(_clean_side(pdot, "pdot")))

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: clean there too
        return cls(*iterable)


class ExpectedDynamics(namedtuple("ExpectedDynamics", "qdot_op pdot_op hbar_note",
                                  defaults=((),))):
    """Quantized dynamics plus per-monomial hbar bookkeeping.

    hbar_note lists, per input monomial, the power of hbar (times 2 so it
    stays an integer) that the fixed hbar = 1 convention suppressed.
    """
    __slots__ = ()


def quantize_side(side) -> NormalPoly:
    """Sum of coeff * weyl_normal_form(j, k) over the side's monomials, in ints.

    Each closed-form row of a monomial, times the coefficient's numerator, is an int
    row over den * coeff.denominator; every (key, component) sums as one int over the
    lcm d of those denominators, and each key with a nonzero sum becomes one Scalar.
    """
    rows = []  # (j+k-2u, component, den, numerator factor, closed-form numerators)
    for (j, k), coeff in _clean_side(side, "side").items():
        for u, index, den, nums in _slot_rows(j, k):
            rows.append((j + k - 2 * u, index, den * coeff.denominator, coeff.numerator, nums))
    d = lcm(*(row[2] for row in rows))
    acc: dict = {}
    for width, index, den, p, nums in rows:
        p *= d // den
        for v, num in enumerate(nums):
            if num:
                key = (width - v, v)
                sums = acc.get(key)
                if sums is None:
                    sums = acc[key] = [0, 0, 0, 0]
                sums[index] += num * p
    return NormalPoly._of({key: _make(*sums, d) for key, sums in acc.items() if any(sums)})


def quantize_system(system: PolySystem) -> ExpectedDynamics:
    notes = []
    for name, side in (("qdot", system.qdot), ("pdot", system.pdot)):
        for (j, k) in sorted(side):
            notes.append({"side": name, "j": j, "k": k,
                          "hbar_exponent_times_2": j + k})
    return ExpectedDynamics(
        qdot_op=quantize_side(system.qdot),
        pdot_op=quantize_side(system.pdot),
        hbar_note=tuple(notes),
    )
