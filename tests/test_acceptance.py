"""End-to-end acceptance suite; prints one pass/fail line per criterion.

Everything here is exact: tolerances are zero throughout.
"""
import json
import random
from fractions import Fraction
from itertools import product

from weylorder.altroutes import (blasiak_normal_order, blockify, cg_weyl_monomial,
                                 weyl_via_cg)
from weylorder.cli import main
from weylorder.closedform import h_coeff, lambda_factor, weyl_normal_form, xi_factor
from weylorder.enumeration import (eta_decomposition_check, weyl_bruteforce,
                                   weyl_forced)
from weylorder.poly import ANNIHILATE, CREATE, NormalPoly, normal_order_word
from weylorder.quantize import quantize_side, quantize_system
from weylorder.scalar import Scalar
from weylorder.textio import load_system

from oracle import A_POLY, AD_POLY, runs_of


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def degree_pairs(max_degree):
    for degree in range(max_degree + 1):
        for j in range(degree + 1):
            yield j, degree - j


def test_criterion_1_route_equality():
    for j, k in degree_pairs(10):
        closed = weyl_normal_form(j, k)
        assert closed == weyl_bruteforce(j, k), (j, k)
        assert closed == weyl_via_cg(j, k), (j, k)
    report(1, "closed = brute = cg for all j+k <= 10, exact")


def test_criterion_2_forced_equality():
    for j, k in degree_pairs(8):
        assert weyl_forced(j, k) == weyl_bruteforce(j, k), (j, k)
    report(2, "forced = brute for all j+k <= 8, exact")


def test_criterion_3_eta_decomposition():
    for j, k in degree_pairs(6):
        for u in range((j + k) // 2 + 1):
            for v in range(j + k - 2 * u + 1):
                assert eta_decomposition_check(j, k, u, v).matches, (j, k, u, v)
    # the worked degree-3 case at (u, v) = (1, 1): lambda = 2, xi = 2+1+0
    assert lambda_factor(2, 1, 1, 1) == 2
    assert xi_factor(2, 1, 1, 1) == 3
    check = eta_decomposition_check(2, 1, 1, 1)
    assert check.symbolic_sum == 2 * 3 * check.zeta_value
    report(3, "symbolic sign sum = lambda*xi*zeta for all j+k <= 6")


def test_criterion_4_zeta_triple_agreement():
    from weylorder.closedform import zeta_gamma, zeta_poly, zeta_range, zeta_sum
    for j in range(21):
        for k in range(21):
            for t in range(j + k + 3):
                values = {zeta_sum(j, k, t), zeta_poly(j, k, t),
                          zeta_gamma(j, k, t), zeta_range(j, k, t)}
                assert len(values) == 1, (j, k, t)
    report(4, "all four zeta formulations agree for j,k <= 20")


def test_criterion_5_symmetries():
    for j, k in degree_pairs(16):
        sign = Scalar.from_rational((-1) ** k)
        for u in range((j + k) // 2 + 1):
            width = j + k - 2 * u
            for v in range(width + 1):
                assert h_coeff(j, k, u, v) == sign * h_coeff(j, k, u, width - v)
            if j % 2 == 1 and k % 2 == 1:
                assert not h_coeff(j, k, u, width // 2)
    for j, k in degree_pairs(12):
        poly = weyl_normal_form(j, k)
        assert poly.adjoint() == poly
    report(5, "pair symmetry (<=16), odd-odd zeros (<=16), Hermiticity (<=12)")


def test_criterion_6_blasiak_vs_rewriting():
    for length in range(9):
        for word in product((CREATE, ANNIHILATE), repeat=length):
            runs = runs_of(word)
            assert blasiak_normal_order(blockify(runs)) == normal_order_word(runs)
    rng = random.Random(1234)
    for _ in range(1000):
        word = tuple(rng.choice((CREATE, ANNIHILATE))
                     for _ in range(rng.randrange(15)))
        assert blasiak_normal_order(blockify(runs_of(word))) == normal_order_word(runs_of(word))
    report(6, "blasiak = rewriting on all words L <= 8 and 1000 random L <= 14")


def test_criterion_7_pinned_values():
    i_half = Scalar(x_im=Fraction(1, 2))
    assert weyl_normal_form(1, 1) == NormalPoly({(2, 0): i_half, (0, 2): -i_half})
    half = Fraction(1, 2)
    assert weyl_normal_form(2, 0) == NormalPoly(
        {(2, 0): half, (1, 1): 1, (0, 2): half, (0, 0): half})
    assert cg_weyl_monomial(1, 1) == NormalPoly({(1, 1): 1, (0, 0): half})
    a_adag = runs_of((ANNIHILATE, CREATE))
    expected = NormalPoly({(1, 1): 1, (0, 0): 1})
    assert normal_order_word(a_adag) == expected
    assert blasiak_normal_order(blockify(a_adag)) == expected
    assert A_POLY * AD_POLY == expected
    report(7, "pinned values for S_11, S_20, the Weyl bracket and a*ad")


def test_criterion_8_quantizer(tmp_path):
    path = tmp_path / "ho.json"
    path.write_text(json.dumps({"qdot": [{"j": 0, "k": 1, "coeff": "1/1"}],
                                "pdot": [{"j": 1, "k": 0, "coeff": "-1/1"}]}))
    dyn = quantize_system(load_system(path))
    assert dyn.qdot_op == weyl_normal_form(0, 1)
    assert dyn.pdot_op == -weyl_normal_form(1, 0)
    rng = random.Random(77)
    for _ in range(100):
        side = {}
        for _ in range(rng.randrange(1, 4)):
            j = rng.randrange(9)
            k = rng.randrange(9 - j)
            side[(j, k)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        other = {(j, k): 2 * c for (j, k), c in side.items()}
        poly = quantize_side(side)
        assert poly.adjoint() == poly
        assert quantize_side(other) == poly * 2
    report(8, "harmonic oscillator file plus 100 random systems (linearity, adjoint)")


def test_criterion_9_cli(capsys):
    runs = {}
    for method in ("closed", "brute", "forced", "cg"):
        for _ in range(2):
            assert main(["weyl", "2", "2", "--method", method]) == 0
            out = capsys.readouterr().out
            runs.setdefault(method, set()).add(out)
    assert all(len(outs) == 1 for outs in runs.values())  # deterministic
    assert len(set.union(*runs.values())) == 1  # byte-identical across methods
    assert main(["check", "--max", "6"]) == 0
    capsys.readouterr()
    report(9, "CLI determinism, route byte-equality, check --max 6 exits 0")
