import random
from fractions import Fraction

import pytest

from weylorder.closedform import weyl_normal_form
from weylorder.poly import NormalPoly
from weylorder.quantize import PolySystem, quantize_side, quantize_system
from weylorder.scalar import Scalar

from oracle import I


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
    term_by_term = NormalPoly()
    for (j, k), coeff in side.items():
        term_by_term = term_by_term + weyl_normal_form(j, k) * coeff
    assert poly == term_by_term


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
