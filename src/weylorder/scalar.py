"""Exact arithmetic in the ring Q(i, sqrt2).

Every coefficient in the package lives here.  A value is stored as four
arbitrary-precision rationals (x_re + x_im*i) + (y_re + y_im*i)*sqrt2, which
is closed under addition, multiplication and complex conjugation.  Floats are
rejected everywhere: there is no approximate mode.

There are two constructors.  The public `Scalar(...)` validates: each
component goes through `_frac`, so an int, str or other exact rational is
converted and a float or bool raises `TypeError`.  The private `Scalar._of`
trusts its input: the four components must already be `Fraction`s, and it
stores them without a check.  Only the ring operations, `from_rational` and
`weyl_unit` use it, on components they made `Fraction`s themselves.  Either way a
`Scalar` is immutable and hashes by its four components.
"""
from __future__ import annotations

from fractions import Fraction
from numbers import Rational

_ZERO = Fraction(0)
_new = object.__new__


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coefficient")
    if isinstance(value, (int, str, Rational)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


class Scalar:
    """(x_re + x_im*i) + (y_re + y_im*i)*sqrt2 with exact rational components."""

    __slots__ = ("x_re", "x_im", "y_re", "y_im")

    def __init__(self, x_re=_ZERO, x_im=_ZERO, y_re=_ZERO, y_im=_ZERO):
        _set_x_re(self, _frac(x_re))
        _set_x_im(self, _frac(x_im))
        _set_y_re(self, _frac(y_re))
        _set_y_im(self, _frac(y_im))

    def __setattr__(self, name, value):
        raise AttributeError(f"Scalar is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Scalar is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return Scalar, (self.x_re, self.x_im, self.y_re, self.y_im)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, x_re: Fraction, x_im: Fraction, y_re: Fraction, y_im: Fraction) -> "Scalar":
        """Trusted constructor: the components are already Fractions and are not checked."""
        self = _new(cls)
        _set_x_re(self, x_re)
        _set_x_im(self, x_im)
        _set_y_re(self, y_re)
        _set_y_im(self, y_im)
        return self

    @classmethod
    def from_rational(cls, value) -> "Scalar":
        return cls._of(_frac(value), _ZERO, _ZERO, _ZERO)

    @classmethod
    def i(cls) -> "Scalar":
        return cls(x_im=Fraction(1))

    @classmethod
    def sqrt2(cls) -> "Scalar":
        return cls(y_re=Fraction(1))

    @classmethod
    def weyl_unit(cls, j: int, k: int, r=1) -> "Scalar":
        """i^k 2^{-(j+k)/2} r for rational r, written into its one nonzero component.

        2^{-n/2} is 1/2^(n/2) for even n and sqrt2/2^((n+1)/2) for odd n, and i^k
        is one of 1, i, -1, -i, so the product has a single component +-r/2^m.
        """
        n = j + k
        value = _frac(r) / 2 ** ((n + 1) // 2)
        if k % 4 >= 2:
            value = -value
        comps = [_ZERO, _ZERO, _ZERO, _ZERO]
        comps[2 * (n % 2) + k % 2] = value
        return cls._of(*comps)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        return Scalar._of(
            _fadd(self.x_re, other.x_re),
            _fadd(self.x_im, other.x_im),
            _fadd(self.y_re, other.y_re),
            _fadd(self.y_im, other.y_im),
        )

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar._of(-self.x_re, -self.x_im, -self.y_re, -self.y_im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        # A rational factor scales the four components; no full product.
        r = _rational_part(other)
        if r is not None:
            return self._times_rational(r)
        if self.is_rational():
            return other._times_rational(self.x_re)
        # Gaussian components: x = x1*x2 + 2*y1*y2, y = x1*y2 + y1*x2
        x_re, x_im = _gmul(self.x_re, self.x_im, other.x_re, other.x_im)
        t_re, t_im = _gmul(self.y_re, self.y_im, other.y_re, other.y_im)
        x_re, x_im = x_re + 2 * t_re, x_im + 2 * t_im
        y_re, y_im = _gmul(self.x_re, self.x_im, other.y_re, other.y_im)
        u_re, u_im = _gmul(self.y_re, self.y_im, other.x_re, other.x_im)
        return Scalar._of(x_re, x_im, y_re + u_re, y_im + u_im)

    __rmul__ = __mul__

    def _times_rational(self, r: Fraction) -> "Scalar":
        # a zero component stays zero; only the nonzero ones pay a Fraction product
        x_re, x_im, y_re, y_im = self.x_re, self.x_im, self.y_re, self.y_im
        return Scalar._of(x_re * r if x_re else x_re, x_im * r if x_im else x_im,
                          y_re * r if y_re else y_re, y_im * r if y_im else y_im)

    def conj(self) -> "Scalar":
        """Complex conjugation; fixes sqrt2."""
        return Scalar._of(self.x_re, -self.x_im, self.y_re, -self.y_im)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x_re == other.x_re and self.x_im == other.x_im
                and self.y_re == other.y_re and self.y_im == other.y_im)

    def __hash__(self) -> int:
        return hash((self.x_re, self.x_im, self.y_re, self.y_im))

    def __bool__(self) -> bool:
        return bool(self.x_re or self.x_im or self.y_re or self.y_im)

    def is_rational(self) -> bool:
        return not (self.x_im or self.y_re or self.y_im)

    def __repr__(self) -> str:
        return (f"Scalar({self.x_re!s}, {self.x_im!s}i, "
                f"{self.y_re!s}r2, {self.y_im!s}ir2)")


# Slot setters that bypass Scalar.__setattr__; only the two constructors call them.
_set_x_re = Scalar.x_re.__set__
_set_x_im = Scalar.x_im.__set__
_set_y_re = Scalar.y_re.__set__
_set_y_im = Scalar.y_im.__set__


def _fadd(a: Fraction, b: Fraction) -> Fraction:
    """a + b, with no Fraction addition when either side is zero."""
    return a + b if a and b else a or b


def _gmul(a_re, a_im, b_re, b_im):
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _rational_part(value):
    """value as a Fraction if it is rational, None for a Scalar that is not."""
    if isinstance(value, Scalar):
        return value.x_re if value.is_rational() else None
    return _frac(value)


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    return Scalar.from_rational(value)
