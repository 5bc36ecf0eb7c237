import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from weylorder.scalar import Scalar, _parts

from oracle import I, SQRT2, gmul


def rational(num, den=1):
    return Scalar.from_rational(Fraction(num, den))


def test_add():
    assert rational(1) + SQRT2 == Scalar(x_re=1, y_re=1)
    assert SQRT2 + (-SQRT2) == Scalar()
    assert rational(1, 2) + rational(1, 3) == rational(5, 6)


def test_mul():
    assert SQRT2 * SQRT2 == rational(2)
    assert (rational(1) + SQRT2) * (rational(1) - SQRT2) == rational(-1)
    assert I * I == rational(-1)


def test_conj():
    assert (I * rational(1, 2)).conj() == -(I * rational(1, 2))
    real = rational(3) + rational(2) * SQRT2
    assert real.conj() == real
    assert (I * SQRT2).conj() == -(I * SQRT2)


def test_weyl_unit():
    # i^k 2^{-n/2} r = i^k sqrt2^n r / 2^n, written out as ring products
    for k in range(8):
        for j in range(4):  # both parities of n = j + k
            n = j + k
            for r in (1, Fraction(-3, 5), 7):
                expected = rational(r) * Fraction(1, 2 ** n)
                for _ in range(k):
                    expected = expected * I
                for _ in range(n):
                    expected = expected * SQRT2
                assert Scalar.weyl_unit(j, k, r) == expected
            assert Scalar.weyl_unit(j, k) == Scalar.weyl_unit(j, k, 1)
    assert Scalar.weyl_unit(0, 3) == Scalar(y_im=Fraction(-1, 4))
    assert Scalar.weyl_unit(1, 1, 3) == Scalar(x_im=Fraction(3, 2))


def test_i_power_cycle():
    # the i^k factor of the unit: 2^{k/2} i^k 2^{-k/2} = i^k, period 4
    def i_power(k):
        unit = Scalar.weyl_unit(0, k)
        for _ in range(k):
            unit = unit * SQRT2
        return unit

    assert i_power(0) == rational(1)
    assert i_power(1) == I
    assert i_power(2) == rational(-1)
    assert i_power(3) == -I
    assert i_power(7) == i_power(3)


def test_inv_sqrt2_power():
    # the 2^{-n/2} factor of the unit: k = 0 leaves no power of i
    assert Scalar.weyl_unit(0, 0) == rational(1)
    assert Scalar.weyl_unit(2, 0) == rational(1, 2)
    # 1/2^{3/2} = sqrt2/4
    assert Scalar.weyl_unit(3, 0) == Scalar(y_re=Fraction(1, 4))
    assert Scalar.weyl_unit(3, 0) * SQRT2 * SQRT2 * SQRT2 == rational(1)


def test_floats_rejected():
    with pytest.raises(TypeError):
        Scalar(x_re=0.5)
    with pytest.raises(TypeError):
        Scalar.from_rational(0.5)


def test_public_constructor_rejects_float_and_bool():
    for bad in (0.5, True, False):
        for slot in ("x_re", "x_im", "y_re", "y_im"):
            with pytest.raises(TypeError):
                Scalar(**{slot: bad})
        with pytest.raises(TypeError):
            Scalar.weyl_unit(1, 1, bad)


def test_components_are_read_only():
    for value in (Scalar(1, 2, 3, 4), Scalar.weyl_unit(3, 2), SQRT2 * I + rational(1)):
        for slot in ("x_re", "x_im", "y_re", "y_im"):
            with pytest.raises(AttributeError):
                setattr(value, slot, Fraction(5))
            with pytest.raises(AttributeError):
                delattr(value, slot)
        with pytest.raises(AttributeError):
            value.extra = 1  # no __dict__ beside the four slots
    value = Scalar(1, Fraction(-2, 3), 0, 4)
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@st.composite
def bounded_fractions(draw):
    """Every fraction in [-50, 50] with denominator at most 20, from two integer draws.

    The numerator range follows the drawn denominator, so no draw is rejected;
    st.fractions draws the same set at about three times the cost.
    """
    den = draw(st.integers(min_value=1, max_value=20))
    return Fraction(draw(st.integers(min_value=-50 * den, max_value=50 * den)), den)


fracs = bounded_fractions()
scalars = st.builds(Scalar, fracs, fracs, fracs, fracs)
# every pattern of zero and nonzero components, each about as often
sparse = st.just(Fraction(0)) | fracs.filter(bool)
sparse_scalars = st.builds(Scalar, sparse, sparse, sparse, sparse)


@given(sparse_scalars)
def test_parts_are_the_reduced_nonzero_components(c):
    # one (num, den, index) per nonzero component, in lowest terms, index ascending; zero has none
    fractions = (c.x_re, c.x_im, c.y_re, c.y_im)
    assert _parts(c) == tuple((f.numerator, f.denominator, index)
                              for index, f in enumerate(fractions) if f)


@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


small_ints = st.integers(min_value=-50, max_value=50)


@given(st.tuples(small_ints, small_ints, small_ints, small_ints))
def test_int_components_match_fraction_components(parts):
    # int components reach the stored form of their Fractions through the constructor's check
    ints, fractions = Scalar(*parts), Scalar(*map(Fraction, parts))
    assert ints == fractions and hash(ints) == hash(fractions)


@given(scalars, scalars, st.integers(min_value=-3, max_value=3), st.integers(0, 7))
def test_ring_results_match_public_constructor(a, b, j, k):
    # every operation builds its result through _make, in the reduced form the constructor makes
    for value in (a + b, a - b, -a, a * b, a * 3, a.conj(), Scalar.weyl_unit(abs(j), k, a.x_re)):
        parts = (value.x_re, value.x_im, value.y_re, value.y_im)
        assert all(type(part) is Fraction for part in parts)
        public = Scalar(*parts)
        assert value == public and hash(value) == hash(public)


@given(scalars, scalars)
def test_conj_is_ring_involution(a, b):
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


def full_product(a, b):
    """The four-component product, written out with no rational shortcut."""
    x_re, x_im = gmul(a.x_re, a.x_im, b.x_re, b.x_im)
    t_re, t_im = gmul(a.y_re, a.y_im, b.y_re, b.y_im)
    y_re, y_im = gmul(a.x_re, a.x_im, b.y_re, b.y_im)
    u_re, u_im = gmul(a.y_re, a.y_im, b.x_re, b.x_im)
    return Scalar(x_re + 2 * t_re, x_im + 2 * t_im, y_re + u_re, y_im + u_im)


@given(scalars, scalars)
@example(Scalar(1, 2, 3, 5), Scalar(7, 11, 13, 17))  # every one of the 16 products differs
@example(Scalar(Fraction(1, 6), Fraction(-5, 4), Fraction(2, 9), Fraction(-7, 10)),
         Scalar(Fraction(-3, 8), Fraction(1, 15), Fraction(-11, 2), Fraction(13, 3)))
def test_product_matches_full_product(a, b):
    # the integer 16-product against the same product written out in Fractions
    assert a * b == full_product(a, b)


def test_reduced_form():
    # one stored form per value: numerators and a positive denominator with no common factor
    assert Scalar(Fraction(2, 4), 6, 0, 0) == Scalar(Fraction(1, 2), 6) * 4 * Fraction(1, 4)
    assert (SQRT2 - SQRT2)._v == Scalar()._v == (0, 0, 0, 0, 1)
    n0, n1, n2, n3, d = (Scalar(Fraction(1, 6), Fraction(1, 10)) * Fraction(-15, 2))._v
    assert (n0, n1, n2, n3, d) == (-5, -3, 0, 0, 4) and gcd(n0, n1, n2, n3, d) == 1


@given(scalars, fracs.filter(bool), st.integers(min_value=1, max_value=12))
def test_equal_values_have_one_stored_form(a, r, g):
    # each result is reduced, so a value reached through an unreduced integer form
    # equals, and hashes as, the same value built by the constructor
    scaled = Scalar(*(g * f for f in (a.x_re, a.x_im, a.y_re, a.y_im)))
    for value in (a * r * (1 / r), (a + r) - r, scaled * Fraction(1, g),
                  a * Scalar(g) * Scalar(Fraction(1, g))):
        assert value == a and hash(value) == hash(a)


rational_operands = st.one_of(
    st.integers(min_value=-50, max_value=50),
    fracs,
    fracs.map(Scalar.from_rational),
)


@given(scalars, rational_operands)
def test_rational_fast_path_matches_full_product(a, r):
    expected = full_product(a, Scalar.from_rational(r.x_re if isinstance(r, Scalar) else r))
    assert a * r == expected
    assert r * a == expected


def test_mul_rejects_float_and_bool():
    for bad in (0.5, True, False):
        with pytest.raises(TypeError):
            SQRT2 * bad
        with pytest.raises(TypeError):
            bad * SQRT2
        with pytest.raises(TypeError):
            rational(1, 2) * bad


def test_equality_with_another_type():
    # a Scalar equals only a Scalar: the int 1 and the rational 1/2 are no exception
    for value, other in ((Scalar(1), 1), (rational(1, 2), Fraction(1, 2)), (Scalar(1), "1"),
                         (Scalar(), 0), (Scalar(), None)):
        assert value.__eq__(other) is NotImplemented and value != other


def test_operators_reject_text():
    # text is parsed by the constructors only; each of these used to parse its str silently
    from weylorder.poly import NormalPoly

    operations = (lambda: Scalar(1) * "1/2", lambda: "1/2" * Scalar(1),
                  lambda: Scalar(1) + "1/2", lambda: Scalar(1) - "1",
                  lambda: "1" - Scalar(3), lambda: NormalPoly.one() * "3")
    for operation in operations:
        with pytest.raises(TypeError, match="not a ring operand"):
            operation()
    assert Scalar("1/2") == Scalar.from_rational("1/2") == rational(1, 2)
    assert NormalPoly({(0, 0): "3"}) == NormalPoly.one().scale(3)
