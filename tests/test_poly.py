import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from weylorder.altroutes import BosonString, blasiak_normal_order, blockify, weyl_via_cg
from weylorder.closedform import h_slots, weyl_normal_form
from weylorder.enumeration import weyl_bruteforce
from weylorder.poly import (_NO_CACHE, ANNIHILATE, CREATE, P, Q, NormalPoly, _normal_order_int,
                            _Runs, _runs, expand_qp_word, normal_order_word)
from weylorder.quantize import quantize_side
from weylorder.scalar import Scalar
from weylorder.textio import parse_boson_word

from oracle import (A_POLY, AD_POLY, I, apply_boson_word, apply_normal_poly, apply_qp_word,
                    normal_order_by_dict_steps, runs_of, same_poly, unit)

I_HALF = Scalar(x_im=Fraction(1, 2))


def test_np_add():
    f = NormalPoly({(1, 1): 1})
    assert f + NormalPoly({(1, 1): -1}) == NormalPoly()
    g = NormalPoly({(2, 0): I_HALF}) + NormalPoly({(0, 2): -I_HALF})
    assert len(g) == 2
    assert f + NormalPoly() == f


def test_np_add_rejects_a_number():
    for op in (lambda f: f + 3, lambda f: f - 3):
        with pytest.raises(TypeError):
            op(NormalPoly.one())


def test_scalar_times_poly_commutes():
    p = NormalPoly({(2, 1): Fraction(1, 3), (0, 0): Scalar(0, 1)})
    for s in (Scalar(1), Scalar(0), Scalar(-2, 1, Fraction(1, 2)), Scalar(0, 0, 0, 3)):
        assert s * p == p * s
    assert Scalar(1) * NormalPoly.one() == NormalPoly.one()


def test_np_mul_single_commutator():
    a, ad = A_POLY, AD_POLY
    assert a * ad == NormalPoly({(1, 1): 1, (0, 0): 1})
    assert ad * a == NormalPoly({(1, 1): 1})


def test_np_mul_a2_ad2():
    a, ad = A_POLY, AD_POLY
    # frozen from the rewriting oracle
    assert a * a * ad * ad == NormalPoly({(2, 2): 1, (1, 1): 4, (0, 0): 2})


def test_adjoint():
    f = NormalPoly({(2, 0): I_HALF})
    assert f.adjoint() == NormalPoly({(0, 2): -I_HALF})
    g = NormalPoly({(1, 1): 1})
    assert g.adjoint() == g
    h = NormalPoly({(2, 1): I_HALF, (0, 3): Scalar(y_im=2)})
    assert h.adjoint().adjoint() == h


def test_no_builder_leaves_a_zero_term():
    # NormalPoly._of takes its terms unchecked, so every builder prunes its own
    p = NormalPoly({(2, 1): Fraction(1, 3), (0, 0): Scalar(0, 1)})
    a, ad = A_POLY, AD_POLY
    built = {
        "p - p": p - p,
        "p * 0": p * 0,
        "0 * p": 0 * p,
        "p * Scalar()": p * Scalar(),
        "(ad + a) * (ad - a)": (ad + a) * (ad - a),  # the two ad a terms cancel
        "normal_order_word": normal_order_word(runs_of((CREATE, ANNIHILATE, ANNIHILATE, CREATE))),
        "blasiak": blasiak_normal_order(blockify(runs_of((CREATE, ANNIHILATE, ANNIHILATE,
                                                          CREATE)))),
        "weyl_normal_form(3, 5)": weyl_normal_form(3, 5),  # zero odd-odd middle slots
        "weyl_via_cg(3, 5)": weyl_via_cg(3, 5),
        "weyl_bruteforce(3, 5)": weyl_bruteforce(3, 5),
        "q^2 + p^2": quantize_side({(2, 0): 1, (0, 2): 1}),  # ad^2 and a^2 cancel
    }
    assert {name: poly._terms for name, poly in built.items() if not all(poly._terms.values())} == {}
    assert built["p - p"] == built["p * 0"] == built["p * Scalar()"] == NormalPoly()
    assert built["(ad + a) * (ad - a)"] == NormalPoly({(2, 0): 1, (0, 2): -1, (0, 0): 1})
    assert built["blasiak"] == built["normal_order_word"] == NormalPoly({(2, 2): 1, (1, 1): 2})
    assert not all(h for _, _, h in h_slots(3, 5))


def test_foreign_operands_and_letters():
    p = NormalPoly({(1, 1): Fraction(1, 2), (0, 0): 1})
    for other in (1, Scalar(1), "ad a", None):
        assert p.__eq__(other) is NotImplemented and p != other
    # equal polys hash equal, however they were built
    same = NormalPoly({(0, 0): Scalar(1)}) + NormalPoly({(1, 1): Scalar(Fraction(1, 2))})
    assert same == p and hash(same) == hash(p) and len({p, same}) == 1
    assert hash(weyl_via_cg(3, 2)) == hash(weyl_normal_form(3, 2))
    for build, word, message in ((normal_order_word, runs_of((CREATE, Q)), "not a boson letter"),
                                 (expand_qp_word, (Q, ANNIHILATE), "not a q/p letter")):
        with pytest.raises(ValueError, match=message):
            build(word)


def test_normal_order_word_basics():
    assert normal_order_word(runs_of([ANNIHILATE, CREATE])) == NormalPoly({(1, 1): 1, (0, 0): 1})
    assert normal_order_word(runs_of([])) == NormalPoly.one()
    assert normal_order_word(runs_of([ANNIHILATE, ANNIHILATE, CREATE, CREATE])) == \
        NormalPoly({(2, 2): 1, (1, 1): 4, (0, 0): 2})


@pytest.mark.parametrize("length", range(7))
def test_normal_order_word_against_differential_oracle(length):
    for word in product((CREATE, ANNIHILATE), repeat=length):
        poly = normal_order_word(runs_of(word))
        for t in (0, 1, 3):
            assert same_poly(apply_boson_word(word, unit(t)),
                             apply_normal_poly(poly, unit(t)))


@given(st.lists(st.sampled_from((CREATE, ANNIHILATE)), max_size=40))
def test_normal_order_word_equals_blasiak(word):
    assert normal_order_word(runs_of(word)) == blasiak_normal_order(blockify(runs_of(word)))


def test_rewrite_matches_dict_steps():
    a, ad = (ANNIHILATE,), (CREATE,)
    words = [word for length in range(11) for word in product((CREATE, ANNIHILATE), repeat=length)]
    words += [a * big + ad for big in (1000, 2200)] + [a + ad * big for big in (1000, 2200)]
    words += [a * n + ad * n for n in range(31)]
    for word in words:
        _NO_CACHE.pop(runs_of(word), None)
        assert _normal_order_int(runs_of(word)) == normal_order_by_dict_steps(word), word


def test_rewrite_memo_holds_whole_words_only():
    # a^30 ad^30 has 900 inversions; a memo of suffixes would grow by hundreds
    word = runs_of((ANNIHILATE,) * 30 + (CREATE,) * 30)
    assert word == ((ANNIHILATE, 30), (CREATE, 30))
    _NO_CACHE.pop(word, None)
    before = len(_NO_CACHE)
    normal_order_word(word)
    assert len(_NO_CACHE) == before + 1
    assert word in _NO_CACHE  # keyed by the runs, not by the 60 letters


def test_runs_are_checked_before_any_work():
    # a negative count would reach NormalPoly._of as a negative power
    bad = {((ANNIHILATE, 2), (CREATE, -1)): "count", ((CREATE, True),): "count",
           ((ANNIHILATE, 1.0),): "count", ((ANNIHILATE, 1), ("q", 1)): "not a boson letter",
           # a flat word of letters, where "ad" would split into the run ("a", "d")
           (ANNIHILATE, CREATE): r"a word is a sequence of \(letter, count\) runs",
           (CREATE, ANNIHILATE): r"a word is a sequence of \(letter, count\) runs"}
    for runs, message in bad.items():
        for build in (normal_order_word, blockify):
            before = len(_NO_CACHE)
            with pytest.raises(ValueError, match=message):
                build(runs)
            assert len(_NO_CACHE) == before, (build, runs)


def test_parsed_runs_are_checked_once():
    # parse_boson_word's runs pass through _runs as they are; they still equal the plain tuple
    for text in ("a ad", "ad^3 a^2 ad", "ad^0"):
        runs = parse_boson_word(text)
        assert runs.__class__ is _Runs and _runs(runs) is runs
        assert runs == tuple(runs) and repr(runs) == repr(tuple(runs))
    # any other sequence is checked, a plain tuple of the same shape too, with the same texts
    bad = {(ANNIHILATE, CREATE): "a word is a sequence of (letter, count) runs, got the item 'a'",
           (("q", 1),): "not a boson letter: 'q'",
           ((ANNIHILATE, 1), (CREATE, -1)): "a run count must be a nonnegative int, got -1"}
    for runs, message in bad.items():
        for word in (runs, list(runs)):
            for build in (_runs, normal_order_word, blockify):
                with pytest.raises(ValueError) as caught:
                    build(word)
                assert str(caught.value) == message, (build, word)
    checked = _runs([(CREATE, 2), [ANNIHILATE, 1]])
    assert checked.__class__ is _Runs and checked == ((CREATE, 2), (ANNIHILATE, 1))


def test_runs_need_not_be_canonical():
    # zero counts and neighbouring runs of one letter read as the canonical runs
    loose = [[CREATE, 0], [ANNIHILATE, 1], (CREATE, 0), (ANNIHILATE, 2), (CREATE, 1), (CREATE, 1)]
    canonical = ((ANNIHILATE, 3), (CREATE, 2))
    assert normal_order_word(loose) == normal_order_word(canonical)
    assert blockify(loose) == blockify(canonical) == BosonString((2, 0), (0, 3))
    assert blockify(((ANNIHILATE, 0),)) == blockify(()) == BosonString((0,), (0,))


def test_word_concatenation_is_multiplication():
    rng = random.Random(7)
    for _ in range(50):
        w1 = tuple(rng.choice((CREATE, ANNIHILATE)) for _ in range(rng.randrange(6)))
        w2 = tuple(rng.choice((CREATE, ANNIHILATE)) for _ in range(rng.randrange(6)))
        assert normal_order_word(runs_of(w1 + w2)) == \
            normal_order_word(runs_of(w1)) * normal_order_word(runs_of(w2))


def test_expand_qp_word_examples():
    half_r2 = Scalar(y_re=Fraction(1, 2))
    assert expand_qp_word([Q]) == NormalPoly({(1, 0): half_r2, (0, 1): half_r2})
    assert expand_qp_word([Q, P]) == NormalPoly(
        {(2, 0): I_HALF, (0, 2): -I_HALF, (0, 0): I_HALF})
    assert expand_qp_word([P, Q]) == NormalPoly(
        {(2, 0): I_HALF, (0, 2): -I_HALF, (0, 0): -I_HALF})


def test_expand_qp_word_against_differential_oracle():
    for word in list(product((Q, P), repeat=3)) + list(product((Q, P), repeat=4)):
        poly = expand_qp_word(word)
        for t in (0, 2):
            assert same_poly(apply_qp_word(word, unit(t)),
                             apply_normal_poly(poly, unit(t)))


def test_qp_adjoint_is_reversal():
    for word in product((Q, P), repeat=4):
        assert expand_qp_word(word).adjoint() == expand_qp_word(word[::-1])


def test_canonical_commutator():
    diff = expand_qp_word([Q, P]) - expand_qp_word([P, Q])
    assert diff == NormalPoly({(0, 0): I})


def test_degree_bound_and_parity():
    rng = random.Random(11)
    for _ in range(40):
        word = tuple(rng.choice((Q, P)) for _ in range(rng.randrange(1, 7)))
        for (m, n), _ in expand_qp_word(word).items():
            assert m + n <= len(word)
            assert (m + n) % 2 == len(word) % 2


def test_term_order():
    poly = NormalPoly({(0, 0): 1, (2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert [key for key, _ in poly.items()] == [(2, 0), (1, 1), (0, 2), (0, 0)]


def test_negative_powers_rejected():
    with pytest.raises(ValueError, match="negative operator power"):
        NormalPoly({(-1, 0): 1})
    # a bool, float or str power is no power: ad^1.5, (True, 1) read as ad a, or a str compare
    for key in ((1.5, 0), (True, 1), ("2", 0), (0, 2.0)):
        with pytest.raises(ValueError, match="operator powers must be integers"):
            NormalPoly({key: 1})
