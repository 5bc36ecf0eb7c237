"""Normal-ordered ladder-operator polynomials and the rewriting oracle.

A NormalPoly is a finite mapping (m, n) -> Scalar standing for
sum_{m,n} c_mn ad^m a^n, the universal output form of the package.
A boson word is its runs ((letter, count), ...), leftmost first: "a ad^2" is
((ANNIHILATE, 1), (CREATE, 2)).  `normal_order_word` is the ground-truth route:
it applies a ad = ad a + 1 one a at a time, right to left, and memoizes whole
words.  The normal form of a suffix is kept as one int per contraction count k,
since its terms are ad^(ads-k) a^(annihilators-k) for the suffix's letter
counts: an ad run only counts, and each a steps the list once.

A NormalPoly holds no zero term.  `NormalPoly(...)` validates and prunes;
`NormalPoly._of` takes its dict unchecked, so each builder that can cancel
prunes its own terms (`+` and `-` per summed key, `*` once at the end, a
scale by zero at once) and passes `_of` only nonzero Scalars.  `+` is the one
way to sum: a scaled sum scales each term with `*` first.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .scalar import Scalar, _coerce, _one

CREATE = "ad"
ANNIHILATE = "a"
Q = "q"
P = "p"


class NormalPoly:
    """Sparse normal-ordered polynomial in ad and a; zero terms are pruned."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        for (m, n), coeff in (terms or {}).items():
            if m.__class__ is not int or n.__class__ is not int:  # no bool, float or str
                raise ValueError(f"operator powers must be integers in term ({m!r}, {n!r})")
            if m < 0 or n < 0:
                raise ValueError(f"negative operator power in term ({m}, {n})")
            if coeff.__class__ is not Scalar:  # an int, Fraction or str, parsed here
                coeff = Scalar.from_rational(coeff)
            if coeff:
                clean[(m, n)] = coeff
        self._terms = clean

    @classmethod
    def one(cls) -> "NormalPoly":
        return cls({(0, 0): 1})

    @classmethod
    def _of(cls, terms: dict) -> "NormalPoly":
        """A NormalPoly that takes the dict as it is: nonzero Scalars under nonnegative keys.

        Nothing is checked; a caller whose terms can cancel prunes them itself.
        """
        self = object.__new__(cls)
        self._terms = terms
        return self

    # -- access ------------------------------------------------------------

    def items(self):
        """Terms in canonical order: descending m+n, then descending m."""
        return sorted(self._terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"({m},{n}): {c!r}" for (m, n), c in self.items())
        return f"NormalPoly({{{body}}})"

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "NormalPoly") -> "NormalPoly":
        if not isinstance(other, NormalPoly):
            return NotImplemented
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            prev = acc.get(key)
            if prev is None:
                acc[key] = coeff
            elif coeff := prev + coeff:
                acc[key] = coeff
            else:  # the sum cancels: no zero term is kept
                del acc[key]
        return NormalPoly._of(acc)

    def __neg__(self) -> "NormalPoly":
        return NormalPoly._of({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "NormalPoly") -> "NormalPoly":
        if not isinstance(other, NormalPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NormalPoly):
            return self._np_mul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> "NormalPoly":
        value = _coerce(value)
        if not value:
            return NormalPoly()
        return NormalPoly._of({key: coeff * value for key, coeff in self._terms.items()})

    def _np_mul(self, other: "NormalPoly") -> "NormalPoly":
        # ad^m1 a^n1 * ad^m2 a^n2: reorder the inner a^n1 ad^m2 via
        # a^n ad^m = sum_k k! C(n,k) C(m,k) ad^(m-k) a^(n-k)
        acc: dict = {}
        for (m1, n1), c1 in self._terms.items():
            for (m2, n2), c2 in other._terms.items():
                c = c1 * c2
                for k in range(min(n1, m2) + 1):
                    w = factorial(k) * comb(n1, k) * comb(m2, k)
                    key = (m1 + m2 - k, n1 + n2 - k)
                    term = c if w == 1 else c._times_rational(w)
                    prev = acc.get(key)
                    acc[key] = term if prev is None else prev + term
        return NormalPoly._of({key: c for key, c in acc.items() if c})

    def adjoint(self) -> "NormalPoly":
        """Hermitian conjugate: (m, n) with c goes to (n, m) with conj(c)."""
        return NormalPoly._of({(n, m): c.conj() for (m, n), c in self._terms.items()})


# -- word rewriting --------------------------------------------------------

_NO_CACHE: dict = {}  # whole words only: tuple of runs -> finished normal form


def _normal_order_int(runs: tuple) -> dict:
    """Integer-coefficient normal form {(m, n): c} of a boson word, one a at a time.

    The letters act right to left on the normal form of the suffix:
    ad . ad^m a^n = ad^(m+1) a^n, and a . ad^m a^n = ad^m a^(n+1) + m ad^(m-1) a^n,
    which is a ad -> ad a + 1 applied m times.  With `ads` and `annihilators`
    letters read so far, the suffix's term with k contractions is
    coeffs[k] ad^(ads-k) a^(annihilators-k); an a keeps each term's k and adds
    (ads - k) coeffs[k] at k + 1.  No coefficient cancels: all are positive, so
    the only zero a step makes is a trailing one, at k = ads.
    """
    if (terms := _NO_CACHE.get(runs)) is not None:
        return terms
    coeffs = [1]
    ads = annihilators = 0
    for letter, count in reversed(runs):
        if letter == CREATE:
            ads += count
            continue
        annihilators += count
        for _ in range(count):
            step = coeffs + [0]
            for k, c in enumerate(coeffs):
                step[k + 1] += (ads - k) * c
            if not step[-1]:
                step.pop()
            coeffs = step
    terms = {(ads - k, annihilators - k): c for k, c in enumerate(coeffs)}
    _NO_CACHE[runs] = terms
    return terms


class _Runs(tuple):
    """Runs ((letter, count), ...) known to be good: `parse_boson_word` and `_runs` build them."""
    __slots__ = ()


def _runs(word) -> _Runs:
    """The runs as a _Runs of (letter, count) tuples; ValueError on a bad run, letter or count,
    before any work.  A _Runs is returned as it is, so a parsed word is checked once.
    """
    if word.__class__ is _Runs:
        return word
    runs = []
    for run in word:
        if not isinstance(run, (tuple, list)) or len(run) != 2:  # a letter of a flat word, say
            raise ValueError(f"a word is a sequence of (letter, count) runs, got the item {run!r}")
        letter, count = run
        if letter != CREATE and letter != ANNIHILATE:
            raise ValueError(f"not a boson letter: {letter!r}")
        if count.__class__ is not int or count < 0:  # no bool, float or str
            raise ValueError(f"a run count must be a nonnegative int, got {count!r}")
        runs.append((letter, count))
    return _Runs(runs)


def normal_order_word(runs) -> NormalPoly:
    """Exact normal form of a word of runs ((letter, count), ...), memoized per whole word."""
    return NormalPoly._of({key: _one(0, c, 1)
                           for key, c in _normal_order_int(_runs(runs)).items()})


# -- q/p words -------------------------------------------------------------

_HALF = Fraction(1, 2)
# hbar = 1 convention: q = (a + ad)/sqrt2, p = i(ad - a)/sqrt2
Q_POLY = NormalPoly({(1, 0): Scalar(y_re=_HALF), (0, 1): Scalar(y_re=_HALF)})
P_POLY = NormalPoly({(1, 0): Scalar(y_im=_HALF), (0, 1): Scalar(y_im=-_HALF)})


def expand_qp_word(word) -> NormalPoly:
    """Substitute the ladder-operator forms of q and p and normal-order."""
    out = NormalPoly.one()
    for letter in word:
        if letter == Q:
            out = out * Q_POLY
        elif letter == P:
            out = out * P_POLY
        else:
            raise ValueError(f"not a q/p letter: {letter!r}")
    return out
