import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylorder.closedform import weyl_normal_form
from weylorder.poly import NormalPoly
from weylorder.quantize import PolySystem, quantize_side, quantize_system
from weylorder.scalar import Scalar

from oracle import I, quantize_by_polys


def test_quantize_side_examples():
    half_i_r2 = Scalar(y_im=Fraction(1, 2))
    assert quantize_side({(0, 1): 1}) == \
        NormalPoly({(1, 0): half_i_r2, (0, 1): -half_i_r2})
    assert quantize_side({}) == NormalPoly()
    assert quantize_side({(1, 1): 2}) == NormalPoly({(2, 0): I, (0, 2): -I})


def test_quantize_side_is_weyl_normal_form():
    for degree in range(7):
        for j in range(degree + 1):
            k = degree - j
            assert quantize_side({(j, k): 1}) == weyl_normal_form(j, k)


def test_quantize_side_prunes_cancelled_terms():
    # q^2 + p^2 = 2 ad a + 1: the ad^2 and a^2 terms of the two monomials cancel
    side = {(2, 0): 1, (0, 2): 1}
    poly = quantize_side(side)
    assert poly == NormalPoly({(1, 1): Scalar(x_re=2), (0, 0): Scalar(x_re=1)})
    assert [key for key, _ in poly.items()] == [(1, 1), (0, 0)]
    # q^4 - p^4 and q^3 p + q p^3 keep only their ad^3 a, ad a^3, ad^2 and a^2 terms
    for side, keys in ((side, {(1, 1), (0, 0)}),
                       ({(2, 0): Fraction(1, 3), (0, 2): Fraction(1, 3)}, {(1, 1), (0, 0)}),
                       ({(4, 0): 7, (0, 4): -7}, {(3, 1), (1, 3), (2, 0), (0, 2)}),
                       ({(3, 1): 1, (1, 3): 1}, {(3, 1), (1, 3), (2, 0), (0, 2)})):
        poly = quantize_side(side)
        assert poly == quantize_by_polys(side)
        assert set(poly._terms) == keys
        assert all(poly._terms.values())


def test_harmonic_oscillator():
    system = PolySystem(qdot={(0, 1): 1}, pdot={(1, 0): -1})
    dyn = quantize_system(system)
    assert dyn.qdot_op == quantize_side({(0, 1): 1})
    assert dyn.pdot_op == -weyl_normal_form(1, 0)
    assert dyn.hbar_note == (
        {"side": "qdot", "j": 0, "k": 1, "hbar_exponent_times_2": 1},
        {"side": "pdot", "j": 1, "k": 0, "hbar_exponent_times_2": 1},
    )


def test_zero_system():
    dyn = quantize_system(PolySystem())
    assert dyn.qdot_op == NormalPoly()
    assert dyn.pdot_op == NormalPoly()
    assert dyn.hbar_note == ()


def test_duffing_type():
    dyn = quantize_system(PolySystem(pdot={(1, 0): -1, (3, 0): -1}))
    assert dyn.pdot_op == -weyl_normal_form(1, 0) - weyl_normal_form(3, 0)


def _random_side(rng, entries=3, max_degree=8):
    side = {}
    for _ in range(entries):
        j = rng.randrange(max_degree + 1)
        k = rng.randrange(max_degree + 1 - j)
        side[(j, k)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return side


def test_linearity():
    rng = random.Random(42)
    for _ in range(30):
        f = _random_side(rng)
        g = _random_side(rng)
        alpha = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        beta = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        combined = {}
        for key, c in f.items():
            combined[key] = combined.get(key, Fraction(0)) + alpha * c
        for key, c in g.items():
            combined[key] = combined.get(key, Fraction(0)) + beta * c
        assert quantize_side(combined) == \
            quantize_side(f) * alpha + quantize_side(g) * beta


def test_real_coefficients_give_self_adjoint_output():
    rng = random.Random(99)
    for _ in range(100):
        poly = quantize_side(_random_side(rng, entries=rng.randrange(1, 5)))
        assert poly.adjoint() == poly


def test_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        PolySystem(qdot={(0, 1): 0.5})
    with pytest.raises(ValueError):
        PolySystem(qdot={(0, 1): 1j})
    with pytest.raises(ValueError):
        PolySystem(qdot={(-1, 0): 1})


def test_rejects_bad_exponents():
    # read as the system-file reader reads them: only ints, and never a bool
    for key in ((True, 1), (1, False), (1.5, 0), (0, 2.0), ("1", 0), (None, 1)):
        with pytest.raises(ValueError, match=r"^side: exponents at \(.*\) must be integers"):
            quantize_side({key: 1})
        with pytest.raises(ValueError, match=rf"^pdot: exponents at \({key[0]!r}, {key[1]!r}\)"):
            PolySystem(pdot={key: 1})


MONOMIALS = [(j, n - j) for n in range(15) for j in range(n + 1)]
BIG_FRACTIONS = st.builds(Fraction, st.integers(-10 ** 8, 10 ** 8), st.integers(1, 10 ** 8))


@given(st.dictionaries(st.sampled_from(MONOMIALS), BIG_FRACTIONS, max_size=6))
def test_integer_sum_matches_the_sum_of_polys(side):
    poly = quantize_side(side)
    assert poly == quantize_by_polys(side)
    assert all(poly._terms.values())

