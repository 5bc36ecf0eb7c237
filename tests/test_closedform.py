from fractions import Fraction
from math import comb

import pytest

from weylorder import closedform
from weylorder.altroutes import cg_weyl_monomial, weyl_via_cg
from weylorder.closedform import (h_coeff, h_slots, lambda_factor, slots,
                                  symmetry_report, weyl_normal_form, xi_factor,
                                  zeta_gamma, zeta_poly, zeta_range, zeta_row, zeta_sum)
from weylorder.enumeration import distinct_orderings, eta_decomposition_check, weyl_bruteforce
from weylorder.poly import NormalPoly
from weylorder.scalar import Scalar
from weylorder.verify import run_checks

from oracle import h_by_fraction, weyl_by_anticommutators, weyl_q_step, zeta_rows_by_convolution


def test_lambda_factor():
    assert lambda_factor(2, 1, 1, 1) == 2
    assert lambda_factor(3, 1, 0, 0) == 24  # (j+k)! when u = v = 0
    assert lambda_factor(2, 2, 0, 2) == 4


def test_xi_factor():
    assert xi_factor(2, 1, 1, 1) == 3
    assert xi_factor(3, 2, 0, 0) == 1
    assert xi_factor(1, 1, 1, 0) == 1


def test_zeta_values():
    for j, k in [(0, 0), (3, 2), (5, 5)]:
        assert zeta_sum(j, k, 0) == 1
    assert zeta_sum(1, 1, 1) == 0
    assert zeta_sum(2, 1, 2) == -1  # x^2 coefficient of (1+x)^2 (1-x)
    assert zeta_poly(0, 0, 0) == 1
    assert zeta_poly(2, 1, 2) == -1
    assert zeta_poly(3, 0, 2) == 3


def test_zeta_variants_agree():
    for j in range(21):
        for k in range(21):
            for t in range(j + k + 3):
                expected = zeta_sum(j, k, t)
                assert zeta_poly(j, k, t) == expected
                assert zeta_gamma(j, k, t) == expected
                assert zeta_range(j, k, t) == expected


def test_zeta_row_is_the_zeta_sum_row():
    for j, k in [(0, 0), (3, 2), (0, 7), (9, 4)]:
        assert zeta_row(j, k) == [zeta_sum(j, k, t) for t in range(j + k + 1)]


def test_zeta_row_recurrence_matches_the_convolution():
    # the recurrence's exact division, against (1+x)^j (1-x)^k expanded factor by factor
    for j in range(61):
        for k, expected in enumerate(zeta_rows_by_convolution(j, 60)):
            assert zeta_row(j, k) == expected, (j, k)


def test_zeta_degenerate_rows():
    for j in range(9):
        for t in range(j + 2):
            assert zeta_sum(j, 0, t) == comb(j, t)
    for k in range(9):
        for t in range(k + 2):
            assert zeta_sum(0, k, t) == (-1) ** t * comb(k, t)


def test_h_coeff_pinned():
    assert h_coeff(0, 0, 0, 0) == Scalar.from_rational(1)
    assert h_coeff(1, 1, 0, 0) == Scalar(x_im=Fraction(1, 2))
    assert h_coeff(2, 0, 1, 0) == Scalar.from_rational(Fraction(1, 2))


def test_weyl_normal_form_pinned():
    assert weyl_normal_form(0, 0) == NormalPoly.one()
    i_half = Scalar(x_im=Fraction(1, 2))
    assert weyl_normal_form(1, 1) == NormalPoly({(2, 0): i_half, (0, 2): -i_half})
    half = Fraction(1, 2)
    assert weyl_normal_form(2, 0) == NormalPoly(
        {(2, 0): half, (1, 1): 1, (0, 2): half, (0, 0): half})


def test_one_pass_slots_match_h_coeff():
    for degree in range(15):
        for j in range(degree + 1):
            k = degree - j
            poly = weyl_normal_form(j, k)
            table = list(h_slots(j, k))
            assert [(u, v) for u, v, _ in table] == list(slots(degree)) == [
                (u, v) for u in range(degree // 2 + 1) for v in range(degree - 2 * u + 1)]
            terms = dict(poly.items())
            for u, v, h in table:
                assert h == h_coeff(j, k, u, v)
                assert terms.get((degree - 2 * u - v, v), Scalar()) == h


@pytest.mark.parametrize("pairs", [
    [(j, n - j) for n in range(25) for j in range(n + 1)],
    # odd n, and every value of k mod 4
    [(40, 40), (0, 61), (61, 0), (30, 33)],
], ids=["to-degree-24", "high-degree"])
def test_slots_match_one_fraction_per_slot(pairs):
    # the int numerators scaled once per row against one Fraction per slot, unit applied to each
    for j, k in pairs:
        for u, v, h in h_slots(j, k):
            expected = h_by_fraction(j, k, u, v)
            assert h == expected, (j, k, u, v)
            assert h_coeff(j, k, u, v) == expected, (j, k, u, v)


@pytest.mark.parametrize("pairs", [
    [(j, n - j) for n in range(25) for j in range(n + 1)],
    [(40, 40), (0, 61), (61, 0), (30, 33), (1, 120)],
], ids=["to-degree-24", "high-degree"])
def test_weyl_normal_form_is_the_nonzero_fraction_slots(pairs):
    # the stepped int kernel against one Fraction per slot; a zero slot must leave no term
    for j, k in pairs:
        n = j + k
        expected = {(n - 2 * u - v, v): h for u, v in slots(n) if (h := h_by_fraction(j, k, u, v))}
        assert dict(weyl_normal_form(j, k).items()) == expected, (j, k)


def test_closed_form_matches_cg_at_high_degree():
    for j, k in [(12, 13), (20, 20), (0, 17)]:
        assert weyl_normal_form(j, k) == weyl_via_cg(j, k)


def test_closed_form_matches_anticommutator_recursions():
    # every pair with j, k <= 16: the grid comes from the p-step (and the q-step on
    # k = 0), and the q-step is checked between every two of its rows
    n = 16
    grid = weyl_by_anticommutators(n)
    for (j, k), w in grid.items():
        assert w == weyl_normal_form(j, k), (j, k)
        if j < n:
            assert weyl_q_step(w) == grid[j + 1, k], (j, k)


def test_closed_form_matches_bruteforce_oracle():
    for degree in range(7):
        for j in range(degree + 1):
            k = degree - j
            assert weyl_normal_form(j, k) == weyl_bruteforce(j, k)


def test_pair_symmetry():
    for degree in range(17):
        for j in range(degree + 1):
            k = degree - j
            sign = Scalar.from_rational((-1) ** k)
            for u in range(degree // 2 + 1):
                width = degree - 2 * u
                for v in range(width + 1):
                    assert h_coeff(j, k, u, v) == sign * h_coeff(j, k, u, width - v)


def test_odd_odd_middle_zero():
    for j in range(1, 16, 2):
        for k in range(1, 16, 2):
            if j + k > 16:
                continue
            for u in range((j + k) // 2 + 1):
                assert not h_coeff(j, k, u, (j + k - 2 * u) // 2)


def test_hermiticity():
    for degree in range(13):
        for j in range(degree + 1):
            poly = weyl_normal_form(j, degree - j)
            assert poly.adjoint() == poly


def test_term_degree_parity():
    for j, k in [(3, 2), (4, 4), (1, 0), (5, 2)]:
        for (m, n), _ in weyl_normal_form(j, k).items():
            assert m + n <= j + k
            assert (m + n) % 2 == (j + k) % 2


def test_symmetry_report():
    rep = symmetry_report(1, 1)
    assert rep.ok
    assert not h_coeff(1, 1, 0, 1)
    rep = symmetry_report(2, 0)
    assert rep.ok
    assert h_coeff(2, 0, 0, 0) == h_coeff(2, 0, 0, 2)
    assert symmetry_report(0, 0).ok


def test_symmetry_report_failures(monkeypatch):
    intact = closedform.h_slots

    def broken(j, k):
        for u, v, h in intact(j, k):
            if (j, k) == (1, 1) and (u, v) == (0, 0):
                h = h + Scalar.from_rational(1)  # breaks the pair (0, 0) ~ (0, 2)
            elif (j, k) == (1, 1) and (u, v) == (1, 0):
                h = Scalar.from_rational(3)  # the odd-odd middle slot of u = 1
            yield u, v, h

    monkeypatch.setattr(closedform, "h_slots", broken)
    rep = symmetry_report(1, 1)
    assert not rep.ok
    assert not rep.pair_rule_ok and not rep.odd_middle_ok
    kinds = {(kind, u, v) for kind, u, v, _, _ in rep.failures}
    assert ("pair", 0, 0) in kinds
    assert ("middle", 1, 0) in kinds
    sym = next(r for r in run_checks(max_degree=2).results
               if r.name == "coefficient-symmetries")
    assert not sym.passed
    assert sym.witness.startswith("pair symmetry fails at (j=1, k=1, u=0, v=0)")


def test_h_coeff_range_checks():
    with pytest.raises(ValueError):
        h_coeff(1, 0, 1, 1)
    with pytest.raises(ValueError):
        xi_factor(1, 0, 1, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: h_coeff(-1, 2, 0, 0), "nonnegative"),
    (lambda: lambda_factor(1, 0, 1, 1), "u\\+v exceeds"),
    (lambda: cg_weyl_monomial(2, -1), "nonnegative"),
    (lambda: list(distinct_orderings(-1, 2)), "nonnegative"),
    (lambda: eta_decomposition_check(1, 0, 1, 0), "2u\\+v exceeds"),
    (lambda: zeta_row(-1, 2), "indices must be nonnegative"),
    (lambda: zeta_poly(-1, 2, 1), "indices must be nonnegative"),
    (lambda: zeta_sum(-1, 2, 1), "indices must be nonnegative"),
    (lambda: zeta_gamma(2, -1, 1), "indices must be nonnegative"),
    (lambda: zeta_range(-1, 2, 1), "indices must be nonnegative"),
], ids=["h_coeff", "lambda_factor", "cg_weyl_monomial", "distinct_orderings", "eta",
        "zeta_row", "zeta_poly", "zeta_sum", "zeta_gamma", "zeta_range"])
def test_range_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_zeta_at_negative_t_is_zero():
    # a negative index is an error, a negative t only lies outside the row
    assert {zeta(2, 1, -1) for zeta in (zeta_poly, zeta_sum, zeta_gamma, zeta_range)} == {0}
