"""Exact arithmetic in the ring Q(i, sqrt2).

Every coefficient in the package lives here.  A value
(x_re + x_im*i) + (y_re + y_im*i)*sqrt2 is stored as four int numerators
n0..n3 over one positive int denominator d, so x_re = n0/d, ..., y_im = n3/d.
The stored form is always reduced, gcd(n0, n1, n2, n3, d) == 1, and zero is
(0, 0, 0, 0, 1); equal values therefore have equal stored forms.  Each ring
operation works on the ints and ends with one multi-argument gcd, instead of
one Fraction (and one gcd) per component.  Floats are rejected everywhere:
there is no approximate mode.

The constructor `Scalar(...)` validates: each component goes through
`_frac`, so an int, str or other exact rational is converted and a float or
bool raises `TypeError`.  Text is parsed there and in `from_rational` only: a
ring operator given a str raises `TypeError`, as it does a float.  From ints,
`_make` builds ring results and quantize's sums by one multi-argument gcd, and
`_one` every one-component value by one two-argument gcd; `_weyl_unit_parts`
alone knows the unit's component, sign and denominator.  The components read
back through the properties `x_re`, `x_im`, `y_re` and `y_im` as `Fraction`s,
and through `_parts` as reduced ints, the one way out that the renderers in
`textio` read; no other module reads the stored form.  A `Scalar` is
immutable and hashes by its reduced form.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

_ZERO = Fraction(0)
_new = object.__new__
_TEXT_OPERAND = "a str is not a ring operand; parse it with Scalar(...) first"


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coefficient")
    if isinstance(value, (int, str, Rational)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


def _component(index: int, doc: str) -> property:
    def get(self) -> Fraction:
        v = self._v
        return Fraction(v[index], v[4]) if v[index] else _ZERO
    return property(get, doc=doc)


class Scalar:
    """(x_re + x_im*i) + (y_re + y_im*i)*sqrt2 with exact rational components."""

    __slots__ = ("_v",)  # (n0, n1, n2, n3, d), reduced, d > 0

    def __init__(self, x_re=_ZERO, x_im=_ZERO, y_re=_ZERO, y_im=_ZERO):
        _set_v(self, _over_lcm(_frac(x_re), _frac(x_im), _frac(y_re), _frac(y_im)))

    def __setattr__(self, name, value):
        raise AttributeError(f"Scalar is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Scalar is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return Scalar, (self.x_re, self.x_im, self.y_re, self.y_im)

    x_re = _component(0, "rational part, n0/d")
    x_im = _component(1, "coefficient of i, n1/d")
    y_re = _component(2, "coefficient of sqrt2, n2/d")
    y_im = _component(3, "coefficient of i*sqrt2, n3/d")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "Scalar":
        value = _frac(value)
        return _one(0, value.numerator, value.denominator)

    @classmethod
    def weyl_unit(cls, j: int, k: int, r=1) -> "Scalar":
        """i^k 2^{-(j+k)/2} r for rational r, written into its one nonzero component."""
        r = _frac(r)
        index, sign, den = _weyl_unit_parts(j, k)
        return _one(index, sign * r.numerator, r.denominator * den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        a0, a1, a2, a3, da = self._v
        b0, b1, b2, b3, db = _coerce(other)._v
        if da == db:
            return _make(a0 + b0, a1 + b1, a2 + b2, a3 + b3, da)
        return _make(a0 * db + b0 * da, a1 * db + b1 * da,
                     a2 * db + b2 * da, a3 * db + b3 * da, da * db)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        a0, a1, a2, a3, d = self._v
        return _make(-a0, -a1, -a2, -a3, d)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            if isinstance(other, str):
                raise TypeError(_TEXT_OPERAND)
            try:
                r = _frac(other)
            except TypeError:  # not a rational: a NormalPoly scales by its __rmul__
                return NotImplemented
            return self._times_rational(r)
        a0, a1, a2, a3, da = self._v
        b0, b1, b2, b3, db = other._v
        # (x_a + y_a sqrt2)(x_b + y_b sqrt2) with Gaussian x, y:
        # x = x_a x_b + 2 y_a y_b, y = x_a y_b + y_a x_b
        return _make(a0 * b0 - a1 * b1 + 2 * (a2 * b2 - a3 * b3),
                     a0 * b1 + a1 * b0 + 2 * (a2 * b3 + a3 * b2),
                     a0 * b2 - a1 * b3 + a2 * b0 - a3 * b1,
                     a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
                     da * db)

    __rmul__ = __mul__

    def _times_rational(self, r: Fraction) -> "Scalar":
        """self * r for an exact rational r (a Fraction, or an int)."""
        a0, a1, a2, a3, d = self._v
        p = r.numerator
        return _make(a0 * p, a1 * p, a2 * p, a3 * p, d * r.denominator)

    def conj(self) -> "Scalar":
        """Complex conjugation; fixes sqrt2."""
        a0, a1, a2, a3, d = self._v
        return _make(a0, -a1, a2, -a3, d)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._v == other._v

    def __hash__(self) -> int:
        return hash(self._v)

    def __bool__(self) -> bool:
        a0, a1, a2, a3, _ = self._v
        return bool(a0 or a1 or a2 or a3)

    def __repr__(self) -> str:
        return (f"Scalar({self.x_re!s}, {self.x_im!s}i, "
                f"{self.y_re!s}r2, {self.y_im!s}ir2)")


# The slot setter that bypasses Scalar.__setattr__; only __init__, _make and _one call it.
_set_v = Scalar._v.__set__


def _over_lcm(x_re: Fraction, x_im: Fraction, y_re: Fraction, y_im: Fraction) -> tuple:
    """The reduced form of four Fractions: their numerators over the least common denominator.

    It needs no gcd: each prime of d divides some component's denominator to
    its full power in d, so it does not divide that component's numerator.
    """
    d = lcm(x_re.denominator, x_im.denominator, y_re.denominator, y_im.denominator)
    return (x_re.numerator * (d // x_re.denominator), x_im.numerator * (d // x_im.denominator),
            y_re.numerator * (d // y_re.denominator), y_im.numerator * (d // y_im.denominator), d)


def _make(n0: int, n1: int, n2: int, n3: int, d: int) -> Scalar:
    """A Scalar from any form with d > 0, reduced by one gcd."""
    g = gcd(n0, n1, n2, n3, d)
    self = _new(Scalar)
    _set_v(self, (n0, n1, n2, n3, d) if g == 1 else (n0 // g, n1 // g, n2 // g, n3 // g, d // g))
    return self


def _weyl_unit_parts(j: int, k: int) -> tuple:
    """(index, sign, den): the unit i^k 2^{-(j+k)/2} is sign/den in component `index`.

    2^{-n/2} is 1/2^(n/2) for even n and sqrt2/2^((n+1)/2) for odd n; i^k is +-1 or +-i.
    """
    n = j + k
    return 2 * (n % 2) + k % 2, -1 if k % 4 >= 2 else 1, 1 << ((n + 1) // 2)


def _one(index: int, num: int, den: int) -> Scalar:
    """The Scalar num/den in component `index` (0..3) and zero in the others, den > 0.

    With one nonzero component the reduced form needs only gcd(num, den).
    """
    g = gcd(num, den)
    v = [0, 0, 0, 0, den // g]
    v[index] = num // g
    self = _new(Scalar)
    _set_v(self, tuple(v))
    return self


def _parts(c: Scalar) -> tuple:
    """((num, den, index), ...): each nonzero component `index` as num/den, reduced, index ascending.

    One nonzero component is stored reduced and is returned as stored, a bare int
    first; every Weyl coefficient is one.  Otherwise each n_i/d takes one gcd.
    """
    n0, n1, n2, n3, d = c._v
    if not (n1 or n2 or n3):
        return ((n0, d, 0),) if n0 else ()
    if not (n0 or n2 or n3):
        return ((n1, d, 1),)
    if not (n0 or n1 or n2 and n3):
        return ((n2, d, 2),) if n2 else ((n3, d, 3),)
    return tuple((n // (g := gcd(n, d)), d // g, index)
                 for index, n in enumerate((n0, n1, n2, n3)) if n)


def _coerce(value) -> Scalar:
    """A ring operand as a Scalar: a Scalar, or an exact rational that is not text."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        raise TypeError(_TEXT_OPERAND)
    return Scalar.from_rational(value)
