"""Two independent routes to the same normal forms.

Route one converts the Weyl bracket of ladder-operator monomials directly to
normal order.  Route two is the general boson-string normal-ordering formula
built on prefix excesses and falling factorials; one forward-difference row
per string gives all of its coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .poly import ANNIHILATE, CREATE, NormalPoly
from .scalar import Scalar


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
    with cg_weyl_monomial, and the converted monomials are summed into one dict.
    """
    if j < 0 or k < 0:
        raise ValueError("powers must be nonnegative")
    n = j + k
    row = [0] * (n + 1)  # row[m]: coefficient of a^m ad^(n-m)
    for alpha in range(j + 1):
        for beta in range(k + 1):
            c = comb(j, alpha) * comb(k, beta)
            row[alpha + k - beta] += -c if (k - beta) % 2 else c
    acc: dict = {}
    for m, c in enumerate(row):
        if c:
            cg_weyl_monomial(m, n - m)._add_into(acc, c)
    return NormalPoly(acc) * Scalar.weyl_unit(j, k)


@dataclass(frozen=True)
class BosonString:
    """Block form ad^{r_M} a^{s_M} ... ad^{r_1} a^{s_1}; block 1 acts first."""
    r: tuple
    s: tuple

    def __post_init__(self):
        if len(self.r) != len(self.s) or not self.r:
            raise ValueError("r and s must be equal-length, nonempty sequences")
        if any(x < 0 for x in self.r) or any(x < 0 for x in self.s):
            raise ValueError("block powers must be nonnegative")

    def prefix_excess(self) -> tuple:
        """d_0..d_M with d_l the running creation surplus of the first l blocks."""
        d = [0]
        for rm, sm in zip(self.r, self.s):
            d.append(d[-1] + rm - sm)
        return tuple(d)


def blockify(word) -> BosonString:
    """Convert a flat operator word (leftmost letter acts last) to block form."""
    word = tuple(word)
    pairs = []
    i = 0
    while i < len(word):
        c = 0
        while i < len(word) and word[i] == CREATE:
            c += 1
            i += 1
        d = 0
        while i < len(word) and word[i] == ANNIHILATE:
            d += 1
            i += 1
        pairs.append((c, d))
    if not pairs:
        pairs = [(0, 0)]
    # the leftmost pair in the written word is the last block to act
    return BosonString(tuple(c for c, _ in reversed(pairs)),
                       tuple(d for _, d in reversed(pairs)))


def falling(x: int, n: int) -> int:
    """Falling factorial x(x-1)...(x-n+1); empty product for n = 0."""
    out = 1
    for i in range(n):
        out *= x - i
    return out


def _blasiak_row(x: BosonString, hi: int) -> list:
    """blasiak_coeff(x, k) for k = 0..hi, from one forward-difference table of P."""
    d = x.prefix_excess()
    row = []
    for j in range(hi + 1):
        prod = 1
        for dm, sm in zip(d, x.s):
            prod *= falling(dm + j, sm)
        row.append(prod)
    # after pass k, row[i] holds (Δ^k P)(i - k) for i >= k
    for k in range(1, hi + 1):
        for i in range(hi, k - 1, -1):
            row[i] -= row[i - 1]
    fact = 1
    for k in range(hi + 1):
        row[k] = Fraction(row[k], fact)
        fact *= k + 1
    return row


def blasiak_coeff(x: BosonString, k: int) -> Fraction:
    """Expansion coefficient of ad^(d_M+k) a^k in the string's normal form.

    (1/k!) Σ_j C(k,j) (-1)^(k-j) P(j) with P(j) = Π_m falling(d_{m-1} + j, s_m):
    the k-th forward difference of P at 0 over k!.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _blasiak_row(x, k)[k]


def blasiak_normal_order(x: BosonString) -> NormalPoly:
    """Normal-ordered equivalent of a boson string via the excess-split formula.

    Every coefficient comes from one forward-difference row per string (of
    the adjoint string when d_M < 0).
    """
    d_m = x.prefix_excess()[-1]
    terms = {}
    if d_m >= 0:
        lo, hi = x.s[0], sum(x.s)
        row = _blasiak_row(x, hi)
        for k in range(lo, hi + 1):
            terms[(d_m + k, k)] = Scalar.from_rational(row[k])
    else:
        # adjoint string: roles swapped and sequences reversed
        adjoint = BosonString(x.s[::-1], x.r[::-1])
        lo, hi = x.r[-1], sum(x.r)
        row = _blasiak_row(adjoint, hi)
        for k in range(lo, hi + 1):
            terms[(k, -d_m + k)] = Scalar.from_rational(row[k])
    return NormalPoly(terms)
