"""Two independent routes to the same normal forms.

Route one converts the Weyl bracket of ladder-operator monomials directly to
normal order.  Route two is the general boson-string normal-ordering formula
built on prefix excesses and falling factorials.
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
        terms[(n - l, m - l)] = Scalar.from_rational(
            Fraction(factorial(l), 2 ** l) * comb(m, l) * comb(n, l))
    return NormalPoly(terms)


def weyl_via_cg(j: int, k: int) -> NormalPoly:
    """Weyl ordering of q^j p^k through the bracket-conversion route.

    Inside the Weyl bracket the letters commute, so (a+ad)^j (ad-a)^k is
    expanded binomially and each commutative monomial a^m ad^n is converted
    with cg_weyl_monomial.  The converted monomials are summed into one dict.
    """
    if j < 0 or k < 0:
        raise ValueError("powers must be nonnegative")
    acc: dict = {}
    for alpha in range(j + 1):
        for beta in range(k + 1):
            m = alpha + (k - beta)
            n = (j - alpha) + beta
            c = comb(j, alpha) * comb(k, beta) * (-1) ** (k - beta)
            cg_weyl_monomial(m, n)._add_into(acc, Fraction(c))
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


def blasiak_coeff(x: BosonString, k: int) -> Fraction:
    """Expansion coefficient of ad^(d_M+k) a^k in the string's normal form."""
    d = x.prefix_excess()
    total = 0
    for j in range(k + 1):
        prod = 1
        for m, sm in enumerate(x.s, start=1):
            prod *= falling(d[m - 1] + j, sm)
        total += comb(k, j) * (-1) ** (k - j) * prod
    return Fraction(total, factorial(k))


def blasiak_normal_order(x: BosonString) -> NormalPoly:
    """Normal-ordered equivalent of a boson string via the excess-split formula."""
    d_m = x.prefix_excess()[-1]
    terms = {}
    if d_m >= 0:
        lo, hi = x.s[0], sum(x.s)
        for k in range(lo, hi + 1):
            terms[(d_m + k, k)] = Scalar.from_rational(blasiak_coeff(x, k))
    else:
        # adjoint string: roles swapped and sequences reversed
        adjoint = BosonString(x.s[::-1], x.r[::-1])
        lo, hi = x.r[-1], sum(x.r)
        for k in range(lo, hi + 1):
            terms[(k, -d_m + k)] = Scalar.from_rational(blasiak_coeff(adjoint, k))
    return NormalPoly(terms)
