"""Exact arithmetic in the ring Q(i, sqrt2).

Every coefficient in the package lives here.  A value is stored as four
arbitrary-precision rationals (x_re + x_im*i) + (y_re + y_im*i)*sqrt2, which
is closed under addition, multiplication and complex conjugation.  Floats are
rejected everywhere: there is no approximate mode.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coefficient")
    if isinstance(value, (int, str, Rational)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class Scalar:
    """(x_re + x_im*i) + (y_re + y_im*i)*sqrt2 with exact rational components."""

    x_re: Fraction = Fraction(0)
    x_im: Fraction = Fraction(0)
    y_re: Fraction = Fraction(0)
    y_im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "x_re", _frac(self.x_re))
        object.__setattr__(self, "x_im", _frac(self.x_im))
        object.__setattr__(self, "y_re", _frac(self.y_re))
        object.__setattr__(self, "y_im", _frac(self.y_im))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value) -> "Scalar":
        return cls(x_re=_frac(value))

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
        slot = ("x_re", "x_im", "y_re", "y_im")[2 * (n % 2) + k % 2]
        return cls(**{slot: value})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        other = _coerce(other)
        return Scalar(
            self.x_re + other.x_re,
            self.x_im + other.x_im,
            self.y_re + other.y_re,
            self.y_im + other.y_im,
        )

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.x_re, -self.x_im, -self.y_re, -self.y_im)

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
        return Scalar(x_re, x_im, y_re + u_re, y_im + u_im)

    __rmul__ = __mul__

    def _times_rational(self, r: Fraction) -> "Scalar":
        return Scalar(self.x_re * r, self.x_im * r, self.y_re * r, self.y_im * r)

    def conj(self) -> "Scalar":
        """Complex conjugation; fixes sqrt2."""
        return Scalar(self.x_re, -self.x_im, self.y_re, -self.y_im)

    def __bool__(self) -> bool:
        return bool(self.x_re or self.x_im or self.y_re or self.y_im)

    def is_rational(self) -> bool:
        return not (self.x_im or self.y_re or self.y_im)

    def __repr__(self) -> str:
        return (f"Scalar({self.x_re!s}, {self.x_im!s}i, "
                f"{self.y_re!s}r2, {self.y_im!s}ir2)")


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
