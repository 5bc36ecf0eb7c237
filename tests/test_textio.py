import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weylorder.altroutes import blasiak_normal_order, blockify
from weylorder.closedform import weyl_normal_form
from weylorder.enumeration import CapExceededError
from weylorder.poly import ANNIHILATE, CREATE, NormalPoly, normal_order_word
from weylorder.scalar import Scalar
from weylorder.textio import (ParseError, SystemFormatError, load_system, parse_boson_word,
                              render, render_table, scalar_fields, system_from_obj)

from oracle import (normal_order_by_dict_steps, runs_of, scalar_fields_by_fraction,
                    scalar_text_by_fraction)
from test_scalar import bounded_fractions, scalars


def test_parse_boson_word_errors():
    with pytest.raises(ParseError, match="empty input"):
        parse_boson_word("")
    with pytest.raises(ParseError, match="nonnegative integer"):
        parse_boson_word("a^1/2")
    with pytest.raises(ParseError, match="nonnegative integer"):
        parse_boson_word("ad^")
    with pytest.raises(ParseError, match="unexpected character 'p'"):
        parse_boson_word("a ad p")


def test_parse_error_has_span():
    # the span is that of the leftmost syntax error, found before any power is
    # checked against sys.maxsize; a missing power points at the next character, or at the end
    for text, span in (("a !", (2, 3)), ("q !", (0, 1)), (" ad^^a", (4, 5)),
                       ("ad^", (3, 3)), ("ad^99999999999999999999 !", (24, 25))):
        with pytest.raises(ParseError) as err:
            parse_boson_word(text)
        assert err.value.span == span, text


def test_parse_boson_word():
    assert parse_boson_word("ad^2 a") == runs_of((CREATE, CREATE, ANNIHILATE))
    assert parse_boson_word("a ad") == runs_of((ANNIHILATE, CREATE))
    assert parse_boson_word("ad^0") == runs_of(())
    assert parse_boson_word("a^3 ad a^2") == \
        runs_of((ANNIHILATE,) * 3 + (CREATE,) + (ANNIHILATE,) * 2)
    assert parse_boson_word("ad^2 * a^0 ad") == runs_of((CREATE, CREATE, CREATE))
    # the runs as written, never expanded into letters
    assert parse_boson_word("ad^10000") == (("ad", 10000),)
    with pytest.raises(ParseError):
        parse_boson_word("q")


def test_parse_boson_word_letter_cap():
    # the library has no letter cap: the CLI checks cli.MAX_WORD_LETTERS after the parse
    assert parse_boson_word("ad " * 10_000 + "a") == ((CREATE, 10_000), (ANNIHILATE, 1))
    with pytest.raises(TypeError):
        parse_boson_word("a^3 ad", max_letters=4)


@given(st.lists(st.sampled_from(["a", "ad", "d", "^", "*", "/", " ", "\t", "0", "3", "12",
                                 "q", "p", "+", "-", "!", "\u0663"]), max_size=12)
       .map("".join))
def test_parse_boson_word_accepts_or_raises_parse_error(text):
    try:
        word = parse_boson_word(text)
    except ParseError as err:
        start, end = err.span
        assert 0 <= start <= end <= len(text)
    else:
        assert isinstance(word, tuple) and {letter for letter, _ in word} <= {CREATE, ANNIHILATE}


_BLANKS = st.sampled_from(["", "", " ", "  ", "\t"])


@given(st.lists(st.tuples(st.sampled_from(["a", "ad"]), st.none() | st.integers(0, 5),
                          st.booleans(), st.lists(_BLANKS, min_size=5, max_size=5)),
                min_size=1, max_size=6))
def test_parse_boson_word_expands_runs(runs):
    # power None: the factor is written without "^"
    text, flat = "", ()
    for name, power, star, blanks in runs:
        text += blanks[0] + name + blanks[1]
        if power is not None:
            text += "^" + blanks[2] + str(power) + blanks[3]
        text += ("*" if star else "") + blanks[4]
        flat += ((CREATE if name == "ad" else ANNIHILATE),) * (1 if power is None else power)
    assert parse_boson_word(text) == runs_of(flat)


@given(st.lists(st.tuples(st.sampled_from(["a", "ad"]), st.integers(0, 4)), max_size=8))
def test_parsed_runs_are_canonical_and_both_routes_read_them(factors):
    runs = parse_boson_word(" ".join(f"{name}^{power}" for name, power in factors) or "ad^0")
    # no zero count, and no two neighbouring runs of one letter
    assert all(count > 0 for _, count in runs)
    assert all(left[0] != right[0] for left, right in zip(runs, runs[1:]))
    flat = tuple(letter for letter, count in runs for _ in range(count))
    assert flat == tuple(CREATE if name == "ad" else ANNIHILATE
                         for name, power in factors for _ in range(power))
    # the oracle reads the word letter by letter
    expected = NormalPoly(normal_order_by_dict_steps(flat))
    assert normal_order_word(runs) == expected
    assert blasiak_normal_order(blockify(runs)) == expected


def test_render_plain():
    assert render(weyl_normal_form(1, 1)) == "(i/2) ad^2 - (i/2) a^2"
    assert render(NormalPoly()) == "0"
    assert render(normal_order_word(runs_of((ANNIHILATE, CREATE)))) == "ad a + 1"
    assert render(NormalPoly({(0, 0): Scalar(x_re=1, y_re=1)})) == "(1 + sqrt2)"
    with pytest.raises(ValueError, match="unknown format 'html'"):
        render(NormalPoly.one(), "html")


def test_render_table_unknown_format():
    # as render: a ValueError that names the format, not a KeyError of the spelling table
    with pytest.raises(ValueError, match="^unknown format 'html'$"):
        render_table([({"t": 0}, 1)], "html", {})


def test_render_past_the_digit_limit():
    # an int of more digits than str() converts is a cap error (CLI exit 3), not a ValueError
    limit = sys.get_int_max_str_digits()
    big = 10 ** limit
    # one component with a big numerator, then with a big denominator, then several components
    for coeff in (Scalar(big), Scalar(x_im=Fraction(1, big)), Scalar(y_re=1, y_im=-big)):
        for fmt in ("plain", "latex", "structured"):
            with pytest.raises(CapExceededError, match=f"coefficient: digits {limit + 1} exceeds"):
                render(NormalPoly({(1, 0): coeff}), fmt)
    assert render(NormalPoly({(0, 0): big - 1})) == "9" * limit


# (component, value) -> (plain, latex, plain with ad a^2, latex with ad a^2)
SINGLE_COMPONENT_GOLDEN = [
    ("x_re", Fraction(3), "3", "3", "3 ad a^2", r"3\hat{a}^{\dagger}\hat{a}^{2}"),
    ("x_re", Fraction(-3), "-3", "-3", "-3 ad a^2", r"-3\hat{a}^{\dagger}\hat{a}^{2}"),
    ("x_re", Fraction(3, 4), "3/4", r"\frac{3}{4}", "(3/4) ad a^2",
     r"\left(\frac{3}{4}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("x_re", Fraction(-3, 4), "-3/4", r"-\frac{3}{4}", "-(3/4) ad a^2",
     r"-\left(\frac{3}{4}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("x_re", Fraction(1), "1", "1", "ad a^2", r"\hat{a}^{\dagger}\hat{a}^{2}"),
    ("x_re", Fraction(-1), "-1", "-1", "-ad a^2", r"-\hat{a}^{\dagger}\hat{a}^{2}"),
    ("x_im", Fraction(3), "3*i", "3i", "(3*i) ad a^2",
     r"\left(3i\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("x_im", Fraction(-3), "-3*i", "-3i", "-(3*i) ad a^2",
     r"-\left(3i\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("x_im", Fraction(3, 4), "3*i/4", r"\frac{3i}{4}", "(3*i/4) ad a^2",
     r"\left(\frac{3i}{4}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("x_im", Fraction(-3, 4), "-3*i/4", r"-\frac{3i}{4}", "-(3*i/4) ad a^2",
     r"-\left(\frac{3i}{4}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("x_im", Fraction(-1), "-i", "-i", "-(i) ad a^2",
     r"-\left(i\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("y_re", Fraction(3), "3*sqrt2", r"3\sqrt{2}", "(3*sqrt2) ad a^2",
     r"\left(3\sqrt{2}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("y_re", Fraction(-3), "-3*sqrt2", r"-3\sqrt{2}", "-(3*sqrt2) ad a^2",
     r"-\left(3\sqrt{2}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("y_re", Fraction(3, 4), "3*sqrt2/4", r"\frac{3\sqrt{2}}{4}", "(3*sqrt2/4) ad a^2",
     r"\left(\frac{3\sqrt{2}}{4}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("y_re", Fraction(-3, 4), "-3*sqrt2/4", r"-\frac{3\sqrt{2}}{4}", "-(3*sqrt2/4) ad a^2",
     r"-\left(\frac{3\sqrt{2}}{4}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("y_re", Fraction(1, 4), "sqrt2/4", r"\frac{\sqrt{2}}{4}", "(sqrt2/4) ad a^2",
     r"\left(\frac{\sqrt{2}}{4}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("y_im", Fraction(3), "3*i*sqrt2", r"3i\sqrt{2}", "(3*i*sqrt2) ad a^2",
     r"\left(3i\sqrt{2}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("y_im", Fraction(-3), "-3*i*sqrt2", r"-3i\sqrt{2}", "-(3*i*sqrt2) ad a^2",
     r"-\left(3i\sqrt{2}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("y_im", Fraction(3, 4), "3*i*sqrt2/4", r"\frac{3i\sqrt{2}}{4}", "(3*i*sqrt2/4) ad a^2",
     r"\left(\frac{3i\sqrt{2}}{4}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
    ("y_im", Fraction(-3, 4), "-3*i*sqrt2/4", r"-\frac{3i\sqrt{2}}{4}",
     "-(3*i*sqrt2/4) ad a^2", r"-\left(\frac{3i\sqrt{2}}{4}\right)\hat{a}^{\dagger}\hat{a}^{2}"),
]


@pytest.mark.parametrize("slot, value, plain, latex, plain_term, latex_term",
                         SINGLE_COMPONENT_GOLDEN)
def test_render_single_component_golden(slot, value, plain, latex, plain_term, latex_term):
    coeff = Scalar(**{slot: value})
    assert render(NormalPoly({(0, 0): coeff})) == plain
    assert render(NormalPoly({(0, 0): coeff}), "latex") == latex
    assert render(NormalPoly({(1, 2): coeff})) == plain_term
    assert render(NormalPoly({(1, 2): coeff}), "latex") == latex_term


def test_render_sign_after_the_first_term():
    lead = {(2, 0): Scalar(x_re=1)}
    assert render(NormalPoly({**lead, (1, 0): Scalar(x_im=Fraction(-3, 4))})) == \
        "ad^2 - (3*i/4) ad"
    assert render(NormalPoly({**lead, (0, 0): Scalar(y_re=3)}), "latex") == \
        r"\hat{a}^{\dagger 2} + 3\sqrt{2}"
    # several components: signs are read relative to the leading component
    mixed = Scalar(-1, 2, 0, Fraction(-3, 4))
    assert render(NormalPoly({**lead, (0, 0): mixed})) == \
        "ad^2 - (1 - 2*i + 3*i*sqrt2/4)"
    assert render(NormalPoly({**lead, (1, 0): mixed}), "latex") == \
        (r"\hat{a}^{\dagger 2} - \left(1 - 2i + \frac{3i\sqrt{2}}{4}\right)"
         r"\hat{a}^{\dagger}")
    assert render(NormalPoly({**lead, (0, 0): Scalar(0, Fraction(-1, 2), 1, 0)})) == \
        "ad^2 - (i/2 - sqrt2)"
    assert render(NormalPoly({**lead, (1, 0): Scalar(2, 0, 0, 1)})) == \
        "ad^2 + (2 + i*sqrt2) ad"


def test_render_constant_bracket_beside_a_term():
    # a constant of several components next to a nonconstant term: the bracketed
    # constant branch, with components whose reductions by the common denominator differ
    mixed = Scalar(Fraction(1, 6), Fraction(-1, 3), Fraction(1, 2), Fraction(5, 6))
    poly = NormalPoly({(1, 1): Scalar(x_im=2), (0, 0): mixed})
    assert render(poly) == "(2*i) ad a + (1/6 - i/3 + sqrt2/2 + 5*i*sqrt2/6)"
    assert render(poly, "latex") == (
        r"\left(2i\right)\hat{a}^{\dagger}\hat{a} + (\frac{1}{6} - \frac{i}{3} + \frac{\sqrt{2}}{2}"
        r" + \frac{5i\sqrt{2}}{6})")
    assert json.loads(render(poly, "structured"))["terms"][1] == {
        "m": 0, "n": 0, "x_re": "1/6", "x_im": "-1/3", "y_re": "1/2", "y_im": "5/6"}


# (m, n) -> (plain, latex) text of the monomial ad^m a^n
TERMS = {(0, 0): ("", ""), (1, 0): ("ad", r"\hat{a}^{\dagger}"),
         (2, 3): ("ad^2 a^3", r"\hat{a}^{\dagger 2}\hat{a}^{3}")}


def render_by_fraction(c, key, fmt):
    """render(NormalPoly({key: c}), fmt) by the piece rules, from the oracle's coefficient text."""
    latex = fmt == "latex"
    body, negated, bare = scalar_text_by_fraction(c, fmt)
    term = TERMS[key][latex]
    if not term:
        # several components, the only text with a space, take "(" in every format
        text = f"({body})" if " " in body else body
    elif bare and body == "1":
        text = term
    elif bare:
        text = f"{body}{term}" if latex else f"{body} {term}"
    else:
        text = rf"\left({body}\right){term}" if latex else f"({body}) {term}"
    return ("-" if negated else "") + text


def assert_render_matches_fractions(c):
    for fmt in ("plain", "latex"):
        for key in TERMS:
            assert render(NormalPoly({key: c}), fmt) == render_by_fraction(c, key, fmt), (key, fmt)


@given(scalars)
def test_scalar_renderers_match_fraction_renderers(c):
    # the renderers read scalar._parts; the oracle reads one Fraction per component
    assert scalar_fields(c) == scalar_fields_by_fraction(c)
    if c:
        assert_render_matches_fractions(c)


@given(st.integers(0, 3), bounded_fractions().filter(bool))
def test_one_component_renderers_match_fraction_renderers(index, value):
    # a one-component value is formatted as it is stored, with no gcd
    c = Scalar(*[value if i == index else 0 for i in range(4)])
    assert scalar_fields(c) == scalar_fields_by_fraction(c)
    assert_render_matches_fractions(c)


def test_render_structured():
    out = json.loads(render(NormalPoly({(0, 0): Scalar(x_re=1, y_re=1)}),
                            "structured"))
    assert out == {"terms": [{"m": 0, "n": 0, "x_re": "1/1", "x_im": "0/1",
                              "y_re": "1/1", "y_im": "0/1"}]}


def test_render_latex():
    out = render(weyl_normal_form(1, 1), "latex")
    assert r"\hat{a}^{\dagger 2}" in out
    assert r"\frac{i}{2}" in out


def test_render_is_injective_on_samples():
    polys = [weyl_normal_form(j, k) for j in range(4) for k in range(4)]
    for fmt in ("plain", "latex", "structured"):
        rendered = [render(p, fmt) for p in polys]
        assert len(set(rendered)) == len(polys)


def test_boson_word_round_trip():
    # the plain rendering of a normal-ordered word is the word again
    for text in ("ad^2 a", "ad a^3", "a", "ad^4"):
        word = parse_boson_word(text)
        assert render(normal_order_word(word)) == text
        assert parse_boson_word(render(normal_order_word(word))) == word


def test_system_from_obj():
    sys_obj = {"qdot": [{"j": 0, "k": 1, "coeff": "1/1"}],
               "pdot": [{"j": 1, "k": 0, "coeff": "-1/1"}]}
    system = system_from_obj(sys_obj)
    assert dict(system.qdot) == {(0, 1): Fraction(1)}
    assert dict(system.pdot) == {(1, 0): Fraction(-1)}


def test_duplicate_entries_are_summed():
    sys_obj = {"qdot": [{"j": 0, "k": 1, "coeff": "1/2"},
                        {"j": 0, "k": 1, "coeff": "1/2"}], "pdot": []}
    assert dict(system_from_obj(sys_obj).qdot) == {(0, 1): Fraction(1)}


def test_decimals_rejected_with_entry_index():
    sys_obj = {"qdot": [{"j": 0, "k": 1, "coeff": "0.5"}], "pdot": []}
    with pytest.raises(SystemFormatError, match=r"qdot\[0\]"):
        system_from_obj(sys_obj)


def test_load_system(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"qdot": [{"j": 0, "k": 1, "coeff": "1/1"}],
                                "pdot": [{"j": 1, "k": 0, "coeff": "-1/1"}]}))
    system = load_system(path)
    assert dict(system.qdot) == {(0, 1): Fraction(1)}
    bad = tmp_path / "bad.json"
    for text, match in (("{not json", "^not valid JSON at line 1 column 2$"),
                        ('{"qdot": [],\n "pdot": [', "^not valid JSON at line 2 column 11$"),
                        ('{"qdot": [{"j": ' + "9" * 5000 + ', "k": 0}]}', "too many digits")):
        bad.write_text(text)
        with pytest.raises(SystemFormatError, match=match):
            load_system(bad)


def test_negative_exponent_rejected():
    with pytest.raises(SystemFormatError, match=r"pdot\[0\]"):
        system_from_obj({"qdot": [], "pdot": [{"j": -1, "k": 0, "coeff": "1"}]})
