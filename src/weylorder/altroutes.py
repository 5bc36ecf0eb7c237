"""Two independent routes to the same normal forms.

Route one converts the Weyl bracket of ladder-operator monomials directly to
normal order.  Route two is the general boson-string normal-ordering formula
built on prefix excesses and falling factorials: the product of falling
factorials P(j), written in the falling-factorial basis falling(j, k), has the
string's normal-form coefficients as its integer coefficients.  `blockify`
reads the blocks off a word's runs ((letter, count), ...), as the rewrite does.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, perm

from .poly import ANNIHILATE, NormalPoly, _runs
from .scalar import Scalar, _one


def cg_weyl_monomial(m: int, n: int) -> NormalPoly:
    """Normal-ordered equivalent of the Weyl bracket {a^m ad^n}_W."""
    if m < 0 or n < 0:
        raise ValueError("powers must be nonnegative")
    terms = {}
    for l in range(min(m, n) + 1):
        terms[(n - l, m - l)] = Fraction(factorial(l) * comb(m, l) * comb(n, l), 1 << l)
    return NormalPoly(terms)


def weyl_via_cg(j: int, k: int) -> NormalPoly:
    """Weyl ordering of q^j p^k through the bracket-conversion route.

    Inside the Weyl bracket the letters commute, so (a+ad)^j (ad-a)^k is
    expanded binomially, in ints, into one coefficient per commutative
    monomial a^m ad^(j+k-m); each of these j+k+1 monomials is then converted
    with cg_weyl_monomial, scaled by its coefficient times the unit, and summed.
    """
    if j < 0 or k < 0:
        raise ValueError("powers must be nonnegative")
    n = j + k
    row = [0] * (n + 1)  # row[m]: coefficient of a^m ad^(n-m)
    for alpha in range(j + 1):
        for beta in range(k + 1):
            c = comb(j, alpha) * comb(k, beta)
            row[alpha + k - beta] += -c if (k - beta) % 2 else c
    total = NormalPoly()
    for m, c in enumerate(row):
        if c:
            total = total + cg_weyl_monomial(m, n - m) * Scalar.weyl_unit(j, k, c)
    return total


class BosonString(namedtuple("BosonString", "r s")):
    """Block form ad^{r_M} a^{s_M} ... ad^{r_1} a^{s_1}; block 1 acts first."""
    __slots__ = ()

    def __new__(cls, r, s):
        if len(r) != len(s) or not r:
            raise ValueError("r and s must be equal-length, nonempty sequences")
        if any(x < 0 for x in r) or any(x < 0 for x in s):
            raise ValueError("block powers must be nonnegative")
        return super().__new__(cls, r, s)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate there too
        return cls(*iterable)

    @classmethod
    def _of(cls, r: tuple, s: tuple) -> "BosonString":
        """The unchecked twin of BosonString(r, s), as NormalPoly._of is of NormalPoly(...)."""
        return tuple.__new__(cls, (r, s))

    def prefix_excess(self) -> tuple:
        """d_0..d_M with d_l the running creation surplus of the first l blocks."""
        d = [0]
        for rm, sm in zip(self.r, self.s):
            d.append(d[-1] + rm - sm)
        return tuple(d)


def blockify(runs) -> BosonString:
    """Convert a word of runs ((letter, count), ...) (leftmost run acts last) to block form."""
    r, s = [0], [0]  # per pair, leftmost first: its ad run, then its a run
    for letter, count in _runs(runs):
        if letter == ANNIHILATE:
            s[-1] += count
        elif count and s[-1]:  # an ad run after an a run begins a pair
            r.append(count)
            s.append(0)
        else:
            r[-1] += count
    # the leftmost pair in the written word is the last block to act
    return BosonString._of(tuple(r[::-1]), tuple(s[::-1]))


def falling(x: int, n: int) -> int:
    """Falling factorial x(x-1)...(x-n+1) for n >= 0; empty product for n = 0.

    For x < 0 it is (-1)^n (-x)(-x+1)...(n-1-x) = (-1)^n perm(n-1-x, n).
    """
    if x >= 0:
        return perm(x, n)
    return -perm(n - 1 - x, n) if n % 2 else perm(n - 1 - x, n)


def _blasiak_row(x: BosonString) -> list:
    """P(j) = Π_m falling(d_{m-1} + j, s_m) as Σ_k row[k] falling(j, k), k = 0..sum(s), in ints.

    The largest block goes in by Chu–Vandermonde, falling(j + d, s) =
    Σ_i C(s, i) falling(d, s - i) falling(j, i); every other block as its s linear factors
    (j + e), e = d..d-s+1, each by falling(j, i) (j + e) = falling(j, i+1) + (i + e) falling(j, i).
    """
    *rest, (s, d) = sorted(zip(x.s, x.prefix_excess()))
    row = [comb(s, i) * falling(d, s - i) for i in range(s + 1)]
    for s, d in rest:
        for e in range(d, d - s, -1):
            row.append(0)
            for i in range(len(row) - 1, 0, -1):
                row[i] = row[i - 1] + (i + e) * row[i]
            row[0] *= e
    return row


def blasiak_coeff(x: BosonString, k: int) -> Fraction:
    """Expansion coefficient of ad^(d_M+k) a^k in the string's normal form.

    (1/k!) Σ_j C(k,j) (-1)^(k-j) P(j) with P(j) = Π_m falling(d_{m-1} + j, s_m),
    which is P's coefficient of falling(j, k): entry k of the row, 0 past its end.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    row = _blasiak_row(x)
    return Fraction(row[k] if k < len(row) else 0)


def blasiak_normal_order(x: BosonString) -> NormalPoly:
    """Normal-ordered equivalent of a boson string via the excess-split formula.

    Entry k of the string's falling-basis row is the integer coefficient of ad^(d_M+k) a^k;
    when d_M < 0 the row is the adjoint string's, and entry k that of ad^k a^(k-d_M).
    """
    d_m = x.prefix_excess()[-1]
    if d_m < 0:
        # adjoint string: roles swapped and sequences reversed
        x = BosonString._of(x.s[::-1], x.r[::-1])
    # an entry can vanish: ad a a ad has none at k = 0
    return NormalPoly._of({(d_m + k, k) if d_m >= 0 else (k, k - d_m): _one(0, c, 1)
                           for k, c in enumerate(_blasiak_row(x)) if c})
