"""Independent oracle for operator identities.

Realizes the ladder algebra on exact polynomials in one variable:
the creation operator is multiplication by x and the annihilation operator
is d/dx, which satisfy the same commutator.  Words and normal forms are
applied to monomials x^t and compared coefficient by coefficient, so the
check shares no code with the rewriting or closed-form routes.

It also builds Weyl-ordered monomials by the anticommutator recursion, which
shares the NormalPoly product with brute but no code with the closed form,
and holds the direct forms of two package sums: the eta sign sum over all
n! permutations and the cg route as one converted bracket per binomial term.

`quantize_by_polys` sums a quantized side as whole closed-form polynomials
through the public `+` and `*`, not in ints.

The closed-form slot and the coefficient renderers are written here on
Fractions: one Fraction per slot, and one Fraction per component read
through the `x_re ... y_im` properties.

The boson-word helpers keep their loop forms and read flat letter sequences:
the rewrite that rebuilds the {(m, n): c} dict at every letter, the index loop
that reads a word's runs into blocks, and the falling factorial as a product.
`runs_of` turns a flat sequence into the runs ((letter, count), ...) that the
package reads.  The Blasiak row is kept as a table of points, every point of every
block through `falling`, differenced in place: its entry k is k! times the
package's falling-basis coefficient.  The zeta rows are kept as list convolutions.
"""
from fractions import Fraction
from itertools import combinations, groupby, permutations
from math import comb, factorial

from weylorder.altroutes import cg_weyl_monomial, falling
from weylorder.closedform import weyl_normal_form, zeta_sum
from weylorder.poly import ANNIHILATE, CREATE, P_POLY, Q, Q_POLY, NormalPoly, normal_order_word
from weylorder.scalar import Scalar
from weylorder.textio import _digits, _frac_str

HALF = Fraction(1, 2)
I = Scalar(x_im=1)
SQRT2 = Scalar(y_re=1)
INV_SQRT2 = Scalar(y_re=HALF)            # 1/sqrt2 = sqrt2/2
I_INV_SQRT2 = Scalar(y_im=HALF)          # i/sqrt2
AD_POLY = NormalPoly({(1, 0): 1})        # the monomials ad and a
A_POLY = NormalPoly({(0, 1): 1})


def gmul(a_re, a_im, b_re, b_im):
    """Gaussian product (a_re + a_im i)(b_re + b_im i) as its two parts."""
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def mul_x(coeffs):
    return [Scalar()] + list(coeffs)


def diff(coeffs):
    return [c * Fraction(t) for t, c in enumerate(coeffs)][1:]


def poly_add(a, b):
    out = [Scalar()] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return out


def poly_scale(coeffs, s):
    return [c * s for c in coeffs]


def apply_boson_word(word, coeffs):
    """Apply a written operator product; the rightmost letter acts first."""
    for letter in reversed(word):
        coeffs = mul_x(coeffs) if letter == CREATE else diff(coeffs)
    return coeffs


def apply_qp_word(word, coeffs):
    for letter in reversed(word):
        if letter == Q:
            # q = (a + ad)/sqrt2  ->  (D + X)/sqrt2
            coeffs = poly_scale(poly_add(diff(coeffs), mul_x(coeffs)), INV_SQRT2)
        else:
            # p = i(ad - a)/sqrt2  ->  i(X - D)/sqrt2
            coeffs = poly_scale(poly_add(mul_x(coeffs), poly_scale(diff(coeffs), -1)),
                                I_INV_SQRT2)
    return coeffs


def apply_normal_poly(poly: NormalPoly, coeffs):
    total = [Scalar()]
    for (m, n), c in poly.items():
        piece = list(coeffs)
        for _ in range(n):
            piece = diff(piece)
        for _ in range(m):
            piece = mul_x(piece)
        total = poly_add(total, poly_scale(piece, c))
    return total


def unit(t):
    """The monomial x^t."""
    return [Scalar()] * t + [Scalar.from_rational(1)]


def same_poly(a, b):
    length = max(len(a), len(b))
    a = a + [Scalar()] * (length - len(a))
    b = b + [Scalar()] * (length - len(b))
    return a == b


def runs_of(word):
    """The canonical runs ((letter, count), ...) of a flat letter sequence."""
    return tuple((letter, len(list(group))) for letter, group in groupby(word))


def normal_order_by_dict_steps(word):
    """{(m, n): c} of a boson word, the dict of the suffix rebuilt at every letter."""
    terms = {(0, 0): 1}
    for letter in reversed(word):
        if letter == CREATE:
            terms = {(m + 1, n): c for (m, n), c in terms.items()}
        else:
            step = {}
            for (m, n), c in terms.items():
                step[m, n + 1] = step.get((m, n + 1), 0) + c
                if m:
                    step[m - 1, n] = step.get((m - 1, n), 0) + m * c
            terms = step
    return terms


def blocks_by_index_loop(word):
    """(r, s) of blockify, read one letter at a time: each pair is an ad run, then an a run."""
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
    return (tuple(c for c, _ in reversed(pairs)), tuple(d for _, d in reversed(pairs)))


def falling_by_product(x, n):
    out = 1
    for i in range(n):
        out *= x - i
    return out


def blasiak_coeff_sum(x, k):
    """(1/k!) sum_j C(k,j) (-1)^(k-j) P(j) with P(j) = prod_m falling(d_{m-1} + j, s_m).

    The Blasiak coefficient of a BosonString x summed term by term for one k,
    the reference for the falling-basis row of the Blasiak route.
    """
    d = x.prefix_excess()
    total = 0
    for j in range(k + 1):
        prod = 1
        for dm, sm in zip(d, x.s):
            for i in range(sm):
                prod *= dm + j - i
        total += comb(k, j) * (-1) ** (k - j) * prod
    return Fraction(total, factorial(k))


def blasiak_row_by_falling(x, hi):
    """k! blasiak_coeff(x, k) for k = 0..hi: P(j) at every point, each factor through falling.

    No block is dropped and no product ends early; then the forward-difference table.
    """
    d = x.prefix_excess()
    row = []
    for j in range(hi + 1):
        prod = 1
        for dm, sm in zip(d, x.s):
            prod *= falling(dm + j, sm)
        row.append(prod)
    for k in range(1, hi + 1):
        for i in range(hi, k - 1, -1):
            row[i] -= row[i - 1]
    return row


def zeta_rows_by_convolution(j, k_max):
    """Coefficients of (1+x)^j (1-x)^k for k = 0..k_max, one factor at a time by convolution."""
    coeffs = [1]
    for _ in range(j):
        coeffs = [a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    yield coeffs
    for _ in range(k_max):
        coeffs = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
        yield coeffs


def weyl_q_step(w: NormalPoly) -> NormalPoly:
    """W(j+1, k) = (q W(j, k) + W(j, k) q) / 2, q in its ladder form."""
    return (Q_POLY * w + w * Q_POLY) * HALF


def weyl_p_step(w: NormalPoly) -> NormalPoly:
    """W(j, k+1) = (p W(j, k) + W(j, k) p) / 2, p in its ladder form."""
    return (P_POLY * w + w * P_POLY) * HALF


def weyl_by_anticommutators(n):
    """{(j, k): W(j, k)} for j, k <= n, from W(0, 0) = 1 by the one-step recursions.

    The Weyl ordering of q^j p^k is the symmetrized product (McCoy's
    2^-m sum_l C(m, l) q^l p^k q^(m-l) in one-step form): W(j, 0) comes from
    the q-step and every W(j, k) with k > 0 from the p-step.
    """
    grid = {(0, 0): NormalPoly.one()}
    for j in range(n + 1):
        if j:
            grid[j, 0] = weyl_q_step(grid[j - 1, 0])
        for k in range(1, n + 1):
            grid[j, k] = weyl_p_step(grid[j, k - 1])
    return grid


def eta_sum_by_permutations(j, k, u, v):
    """The symbolic sign sum of slot (u, v), summed over all (j+k)! sign permutations.

    Each subset T of positions that take the letter a has the integer weight
    of its word in the slot; a permutation sigma of the signs (+)^j (-)^k
    gives it the sign prod_{r in T} s_sigma(r).
    """
    n = j + k
    slot = (n - 2 * u - v, v)
    monomials = []
    for subset in combinations(range(n), u + v):
        word = tuple(ANNIHILATE if r in subset else CREATE for r in range(n))
        weight = dict(normal_order_word(runs_of(word)).items()).get(slot)
        if weight is not None:
            monomials.append((subset, int(weight.x_re)))
    canonical = [1] * j + [-1] * k
    total = 0
    for sigma in permutations(range(n)):
        for subset, weight in monomials:
            prod = weight
            for r in subset:
                prod *= canonical[sigma[r]]
            total += prod
    return total


def weyl_by_cg_monomials(j, k):
    """The cg route term by term: C(j,alpha) C(k,beta) (-1)^(k-beta) {a^m ad^n}_W, unit applied.

    One converted bracket per (alpha, beta), each scaled by a Fraction with `*`
    and summed with `+`, with m = alpha + k - beta and n = j - alpha + beta.
    """
    total = NormalPoly()
    for alpha in range(j + 1):
        for beta in range(k + 1):
            c = comb(j, alpha) * comb(k, beta) * (-1) ** (k - beta)
            total = total + cg_weyl_monomial(alpha + k - beta, j - alpha + beta) * Fraction(c)
    return total * Scalar.weyl_unit(j, k)


def quantize_by_polys(side):
    """Sum of weyl_normal_form(j, k) * Fraction(c) over a side {(j, k): c}, one `+` per monomial."""
    total = NormalPoly()
    for (j, k), c in side.items():
        total = total + weyl_normal_form(j, k) * Fraction(c)
    return total


def h_by_fraction(j, k, u, v):
    """h(j,k,u,v) as one Fraction u! C(n-u-v, u) C(u+v, u) zeta / 2^u, unit applied by weyl_unit.

    The closed form slot by slot, with zeta from the alternating sum.
    """
    n = j + k
    return Scalar.weyl_unit(j, k, Fraction(
        factorial(u) * comb(n - u - v, u) * comb(u + v, u) * zeta_sum(j, k, u + v), 2 ** u))


# the symbols of the components 1, i, sqrt2 and i*sqrt2 in each format, spelled apart
# from the renderer's table
SYMBOLS = {"plain": ("", "i", "sqrt2", "i*sqrt2"),
           "latex": ("", "i", r"\sqrt{2}", r"i\sqrt{2}")}


def _component_plain_by_fraction(f, symbol):
    num = _digits(abs(f.numerator))
    if symbol:
        head = symbol if num == "1" else f"{num}*{symbol}"
    else:
        head = num
    return head if f.denominator == 1 else f"{head}/{_digits(f.denominator)}"


def _component_latex_by_fraction(f, symbol):
    num = _digits(abs(f.numerator))
    if symbol:
        head = symbol if num == "1" else f"{num}{symbol}"
    else:
        head = num
    if f.denominator == 1:
        return head
    return rf"\frac{{{head}}}{{{_digits(f.denominator)}}}"


def scalar_text_by_fraction(c, format):
    """(magnitude_text, negated_for_display, is_bare_positive_integer), read through Fractions."""
    fmt = _component_latex_by_fraction if format == "latex" else _component_plain_by_fraction
    pieces = [(f, s) for f, s in zip((c.x_re, c.x_im, c.y_re, c.y_im), SYMBOLS[format]) if f]
    lead, symbol = pieces[0]
    negated = lead.numerator < 0
    if len(pieces) == 1:
        return fmt(lead, symbol), negated, not symbol and lead.denominator == 1
    body = fmt(lead, symbol)
    for f, s in pieces[1:]:
        body += (" - " if (f.numerator < 0) != negated else " + ") + fmt(f, s)
    return body, negated, False


def scalar_fields_by_fraction(c):
    return {"x_re": _frac_str(c.x_re), "x_im": _frac_str(c.x_im),
            "y_re": _frac_str(c.y_re), "y_im": _frac_str(c.y_im)}
