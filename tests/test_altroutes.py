import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from weylorder.altroutes import (BosonString, _blasiak_row, blasiak_coeff, blasiak_normal_order,
                                 blockify, cg_weyl_monomial, falling, weyl_via_cg)
from weylorder.closedform import weyl_normal_form
from weylorder.enumeration import weyl_bruteforce
from weylorder.poly import ANNIHILATE, CREATE, NormalPoly, normal_order_word
from weylorder.scalar import Scalar

from oracle import (blasiak_coeff_sum, blasiak_row_by_falling, blocks_by_index_loop,
                    falling_by_product, runs_of, weyl_by_cg_monomials)


def test_falling_factorial():
    assert falling(5, 0) == 1
    assert falling(5, 2) == 20
    assert falling(2, 3) == 0  # vanishes at nonnegative x < n
    assert falling(-1, 2) == 2
    for x in range(-12, 13):
        for n in range(9):
            assert falling(x, n) == falling_by_product(x, n), (x, n)


def test_cg_monomial_examples():
    half = Scalar.from_rational(Fraction(1, 2))
    assert cg_weyl_monomial(1, 1) == NormalPoly({(1, 1): 1, (0, 0): half})
    for m in range(4):
        assert cg_weyl_monomial(m, 0) == NormalPoly({(0, m): 1})
    assert cg_weyl_monomial(2, 2) == NormalPoly({(2, 2): 1, (1, 1): 2, (0, 0): half})


def test_cg_monomial_adjoint_pairing():
    for m in range(5):
        for n in range(5):
            assert cg_weyl_monomial(m, n).adjoint() == cg_weyl_monomial(n, m)


def test_weyl_via_cg_examples():
    i_half = Scalar(x_im=Fraction(1, 2))
    assert weyl_via_cg(1, 1) == NormalPoly({(2, 0): i_half, (0, 2): -i_half})
    assert weyl_via_cg(0, 0) == NormalPoly.one()
    half = Fraction(1, 2)
    assert weyl_via_cg(0, 2) == NormalPoly(
        {(2, 0): -half, (1, 1): 1, (0, 2): -half, (0, 0): half})


def test_blockify():
    bs = blockify(runs_of((ANNIHILATE, CREATE)))
    assert bs == BosonString((1, 0), (0, 1))
    assert blockify(runs_of(())) == BosonString((0,), (0,))
    assert blockify(runs_of((CREATE, ANNIHILATE, ANNIHILATE))) == BosonString((1,), (2,))
    for length in range(11):
        for word in product((CREATE, ANNIHILATE), repeat=length):
            assert blockify(runs_of(word)) == BosonString(*blocks_by_index_loop(word)), word
    with pytest.raises(ValueError, match="not a boson letter"):
        blockify(runs_of((CREATE, "q", ANNIHILATE)))


def test_blasiak_coeff_examples():
    assert blasiak_coeff(BosonString((1,), (1,)), 1) == 1
    assert blasiak_coeff(BosonString((1, 0), (0, 1)), 0) == 1
    assert blasiak_coeff(BosonString((1, 0), (0, 1)), 1) == 1
    # pure creation string: only k = 0 survives
    assert blasiak_coeff(BosonString((2, 3), (0, 0)), 0) == 1
    for k in range(1, 4):
        assert blasiak_coeff(BosonString((2, 3), (0, 0)), k) == 0
    # a negative k is an error, not an entry read from the end of the row
    for k in (-1, -2):
        with pytest.raises(ValueError):
            blasiak_coeff(BosonString((1,), (1,)), k)
    # past the row's end the coefficient is 0, read without building k + 1 entries
    past = blasiak_coeff(BosonString((1,), (1,)), 10**6)
    assert past == 0 and past.__class__ is Fraction


def test_blasiak_coeff_matches_binomial_sum():
    # (0, 0), (1, 2): d_1 = -1, so P(0) holds falling(-1, 2) = 2
    strings = [BosonString((0, 0), (1, 2)), BosonString((0, 2, 0), (3, 0, 2)),
               BosonString((0,), (0,)), BosonString((3,), (0,))]
    rng = random.Random(17)
    for _ in range(300):
        blocks = rng.randint(1, 5)
        strings.append(BosonString(tuple(rng.randint(0, 4) for _ in range(blocks)),
                                   tuple(rng.randint(0, 4) for _ in range(blocks))))
    assert sum(0 in x.r + x.s for x in strings) > 100
    assert sum(min(x.prefix_excess()[:-1]) < 0 for x in strings) > 100
    for x in strings:
        for k in range(sum(x.s) + 3):
            assert blasiak_coeff(x, k) == blasiak_coeff_sum(x, k), (x, k)


def test_blasiak_examples():
    assert blasiak_normal_order(BosonString((1, 0), (0, 1))) == \
        NormalPoly({(1, 1): 1, (0, 0): 1})
    assert blasiak_normal_order(BosonString((1,), (2,))) == NormalPoly({(1, 2): 1})
    assert blasiak_normal_order(BosonString((2, 0), (0, 2))) == \
        NormalPoly({(2, 2): 1, (1, 1): 4, (0, 0): 2})


def test_blasiak_exhaustive_short_words():
    for length in range(9):
        for word in product((CREATE, ANNIHILATE), repeat=length):
            runs = runs_of(word)
            assert blasiak_normal_order(blockify(runs)) == normal_order_word(runs)


def test_blasiak_random_long_words():
    rng = random.Random(2024)
    for _ in range(1000):
        word = tuple(rng.choice((CREATE, ANNIHILATE))
                     for _ in range(rng.randrange(15)))
        assert blasiak_normal_order(blockify(runs_of(word))) == normal_order_word(runs_of(word))


def test_excess_conservation():
    rng = random.Random(5)
    for _ in range(100):
        word = tuple(rng.choice((CREATE, ANNIHILATE))
                     for _ in range(rng.randrange(1, 11)))
        bs = blockify(runs_of(word))
        d_m = bs.prefix_excess()[-1]
        for (m, n), _ in blasiak_normal_order(bs).items():
            assert m - n == d_m


def test_boson_string_validation():
    with pytest.raises(ValueError):
        BosonString((1,), (1, 2))
    with pytest.raises(ValueError):
        BosonString((), ())
    with pytest.raises(ValueError):
        BosonString((-1,), (0,))
    with pytest.raises(ValueError, match="block powers must be nonnegative"):
        BosonString((1,), (-1,))
    with pytest.raises(ValueError, match="block powers must be nonnegative"):
        BosonString((1,), (1,))._replace(s=(-1,))
    with pytest.raises(ValueError, match="equal-length"):
        BosonString((1,), (1,))._replace(r=(1, 2))


def test_blockify_builds_valid_strings():
    # blockify builds through the unchecked _of; the checked constructor accepts each string
    rng = random.Random(35)
    for _ in range(300):
        word = tuple(rng.choice((CREATE, ANNIHILATE)) for _ in range(rng.randrange(12)))
        x = blockify(runs_of(word))
        assert x == BosonString(*x) and x.__class__ is BosonString
        assert all(part.__class__ is tuple for part in x)


boson_strings = st.integers(1, 6).flatmap(lambda blocks: st.builds(
    BosonString, *(st.tuples(*[st.integers(0, 6)] * blocks) for _ in "rs")))


@given(boson_strings, st.integers(0, 3))
def test_blasiak_row_matches_every_point_through_falling(x, extra):
    # empty blocks, negative prefix excesses and zero factors, on x and on its adjoint string;
    # the oracle's k-th forward difference over k! is the falling-basis coefficient
    adjoint = BosonString(x.s[::-1], x.r[::-1])
    for y in (x, adjoint):
        hi = sum(y.s) + extra
        assert _blasiak_row(y) + [0] * extra == \
            [c // factorial(k) for k, c in enumerate(blasiak_row_by_falling(y, hi))]
    # the adjoint branch builds the adjoint string itself: the normal forms are adjoints
    assert blasiak_normal_order(adjoint) == blasiak_normal_order(x).adjoint()


def test_blasiak_chu_vandermonde_at_long_blocks():
    # a^N ad^N is one block of N letters a after N letters ad: a^N ad^N = Σ_k k! C(N,k)² ad^(N-k) a^(N-k)
    for n in (40, 120, 200):
        assert blasiak_normal_order(blockify((("a", n), ("ad", n)))) == \
            NormalPoly({(n - k, n - k): factorial(k) * comb(n, k) ** 2 for k in range(n + 1)})
    # the largest block, 70 letters a, acts last and meets the prefix excess -3: falling at a negative d
    runs = (("ad", 80), ("a", 70), ("ad", 2), ("a", 8), ("ad", 3))
    assert blockify(runs).prefix_excess() == (0, 3, -3, 7)
    assert blasiak_normal_order(blockify(runs)) == normal_order_word(runs)


def test_weyl_via_cg_matches_per_monomial_sum():
    # the binomial row summed in ints against one Fraction-scaled bracket per (alpha, beta)
    for degree in range(11):
        for j in range(degree + 1):
            assert weyl_via_cg(j, degree - j) == weyl_by_cg_monomials(j, degree - j), (j, degree - j)


def test_routes_agree_to_degree_16():
    for degree in range(17):
        for j in range(degree + 1):
            k = degree - j
            closed = weyl_normal_form(j, k)
            assert closed == weyl_bruteforce(j, k), (j, k)
            assert closed == weyl_via_cg(j, k), (j, k)
