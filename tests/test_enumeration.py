import random
from fractions import Fraction
from math import comb

import pytest

from weylorder.altroutes import weyl_via_cg
from weylorder.closedform import slots, weyl_normal_form
from weylorder.enumeration import (CapExceededError, distinct_orderings,
                                   eta_decomposition_check, weyl_bruteforce,
                                   weyl_forced)
from weylorder.poly import P, Q, NormalPoly, expand_qp_word
from weylorder.scalar import Scalar

from oracle import I, eta_sum_by_permutations


def test_distinct_orderings_basic():
    assert list(distinct_orderings(2, 1)) == [(Q, Q, P), (Q, P, Q), (P, Q, Q)]
    assert list(distinct_orderings(0, 0)) == [()]
    assert list(distinct_orderings(1, 1)) == [(Q, P), (P, Q)]


def test_distinct_orderings_count_and_uniqueness():
    for j in range(6):
        for k in range(6):
            words = list(distinct_orderings(j, k))
            assert len(words) == comb(j + k, j)
            assert len(set(words)) == len(words)


def test_bruteforce_examples():
    i_half = Scalar(x_im=Fraction(1, 2))
    assert weyl_bruteforce(1, 1) == NormalPoly({(2, 0): i_half, (0, 2): -i_half})
    half_r2 = Scalar(y_re=Fraction(1, 2))
    assert weyl_bruteforce(1, 0) == NormalPoly({(1, 0): half_r2, (0, 1): half_r2})
    assert weyl_bruteforce(2, 0) == expand_qp_word((Q, Q))


def test_bruteforce_is_order_invariant():
    # averaging commutes with shuffling the enumeration order
    words = list(distinct_orderings(2, 2))
    random.Random(3).shuffle(words)
    total = NormalPoly()
    for word in words:
        total = total + expand_qp_word(word)
    assert total * Fraction(1, len(words)) == weyl_bruteforce(2, 2)


def _word_average_pairs():
    for degree in range(7):
        for j in range(degree + 1):
            yield j, degree - j


def test_bruteforce_equals_per_word_average():
    # the word-sum recursion against the defining average, one word at a time
    for j, k in _word_average_pairs():
        total = NormalPoly()
        for word in distinct_orderings(j, k):
            total = total + expand_qp_word(word)
        assert weyl_bruteforce(j, k) == total * Fraction(1, comb(j + k, j)), (j, k)


def test_forced_equals_per_arrangement_average():
    plus = NormalPoly({(1, 0): 1, (0, 1): 1})
    minus = NormalPoly({(1, 0): 1, (0, 1): -1})
    for j, k in _word_average_pairs():
        total = NormalPoly()
        for word in distinct_orderings(j, k):
            prod = NormalPoly.one()
            for letter in word:
                prod = prod * (plus if letter == Q else minus)
            total = total + prod
        # the unit i^k 2^{-(j+k)/2} written out, independent of Scalar.weyl_unit
        unit = Scalar.from_rational(Fraction(1, comb(j + k, j)))
        for _ in range(k):
            unit = unit * I
        for _ in range(j + k):
            unit = unit * Scalar(y_re=Fraction(1, 2))
        assert weyl_forced(j, k) == total * unit, (j, k)


def test_negative_powers_rejected():
    # cg used to return an empty NormalPoly here, as if the answer were 0
    for j, k in ((-1, 2), (2, -1), (-3, 0)):
        for route in (weyl_bruteforce, weyl_forced, weyl_via_cg, weyl_normal_form):
            with pytest.raises(ValueError, match="nonnegative"):
                route(j, k)


def test_forced_examples():
    assert weyl_forced(2, 1) == weyl_bruteforce(2, 1)
    i_half_r2 = Scalar(y_im=Fraction(1, 2))
    assert weyl_forced(0, 1) == NormalPoly({(1, 0): i_half_r2, (0, 1): -i_half_r2})
    assert weyl_forced(0, 0) == NormalPoly.one()


def test_forced_matches_bruteforce_to_degree_12():
    for degree in range(13):
        for j in range(degree + 1):
            assert weyl_forced(j, degree - j) == weyl_bruteforce(j, degree - j), (j, degree - j)


def test_forced_cap():
    # the forced route has no cap: degree 9 used to raise CapExceededError
    assert weyl_forced(5, 4) == weyl_bruteforce(5, 4)
    with pytest.raises(TypeError):
        weyl_forced(5, 4, cap=9)


def test_eta_worked_example():
    # j+k = 3 at (u, v) = (1, 1): lambda = 2, xi = 2+1+0 = 3
    check = eta_decomposition_check(2, 1, 1, 1)
    assert check.lambda_value == 2
    assert check.xi_value == 3
    assert check.zeta_value == -1  # s1 s2 + s1 s3 + s2 s3 at signs (+, +, -)
    assert check.symbolic_sum == -6
    assert check.matches


def test_eta_trivial_slot():
    from math import factorial
    check = eta_decomposition_check(2, 2, 0, 0)
    assert check.symbolic_sum == factorial(4)
    assert check.xi_value == 1
    assert check.zeta_value == 1
    assert check.matches


def test_eta_derived_slot():
    check = eta_decomposition_check(2, 1, 0, 2)
    assert check.zeta_value == -1
    assert check.matches


def test_eta_cap():
    with pytest.raises(CapExceededError):
        eta_decomposition_check(4, 3, 0, 0)


def test_eta_sum_equals_permutation_sum():
    # the sum over distinct sign arrangements times j!k! against all (j+k)! permutations
    for degree in range(7):
        for j in range(degree + 1):
            for u, v in slots(degree):
                check = eta_decomposition_check(j, degree - j, u, v)
                assert check.symbolic_sum == eta_sum_by_permutations(j, degree - j, u, v), \
                    (j, degree - j, u, v)


def test_eta_decomposition_to_degree_8():
    for degree in range(9):
        for j in range(degree + 1):
            for u, v in slots(degree):
                assert eta_decomposition_check(j, degree - j, u, v, cap=8).matches, \
                    (j, degree - j, u, v)
    with pytest.raises(CapExceededError):
        eta_decomposition_check(5, 4, 0, 0, cap=8)


def test_forced_equals_closed():
    for degree in range(9):
        for j in range(degree + 1):
            assert weyl_forced(j, degree - j) == weyl_normal_form(j, degree - j)
