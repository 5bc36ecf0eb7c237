import json
from fractions import Fraction

import pytest

from weylorder.closedform import weyl_normal_form
from weylorder.poly import ANNIHILATE, CREATE, NormalPoly, normal_order_word
from weylorder.scalar import Scalar
from weylorder.textio import (ParseError, SystemFormatError, load_system,
                              parse_boson_word, render, system_from_obj)


def test_parse_boson_word_errors():
    with pytest.raises(ParseError, match="empty input"):
        parse_boson_word("")
    with pytest.raises(ParseError, match="nonnegative integer"):
        parse_boson_word("a^1/2")
    with pytest.raises(ParseError, match="nonnegative integer"):
        parse_boson_word("ad^")
    with pytest.raises(ParseError, match="unexpected token 'p'"):
        parse_boson_word("a ad p")


def test_parse_error_has_span():
    try:
        parse_boson_word("a !")
    except ParseError as err:
        assert err.span == (2, 3)
    else:
        pytest.fail("expected ParseError")


def test_parse_boson_word():
    assert parse_boson_word("ad^2 a") == (CREATE, CREATE, ANNIHILATE)
    assert parse_boson_word("a ad") == (ANNIHILATE, CREATE)
    assert parse_boson_word("ad^0") == ()
    assert parse_boson_word("a^3 ad a^2") == (ANNIHILATE,) * 3 + (CREATE,) + (ANNIHILATE,) * 2
    assert parse_boson_word("ad^2 * a^0 ad") == (CREATE, CREATE, CREATE)
    with pytest.raises(ParseError):
        parse_boson_word("q")


def test_render_plain():
    assert render(weyl_normal_form(1, 1)) == "(i/2) ad^2 - (i/2) a^2"
    assert render(NormalPoly.zero()) == "0"
    assert render(normal_order_word((ANNIHILATE, CREATE))) == "ad a + 1"
    assert render(NormalPoly({(0, 0): Scalar(x_re=1, y_re=1)})) == "(1 + sqrt2)"


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
    for text, match in (("{not json", "not valid"),
                        ('{"qdot": [{"j": ' + "9" * 5000 + ', "k": 0}]}', "too many digits")):
        bad.write_text(text)
        with pytest.raises(SystemFormatError, match=match):
            load_system(bad)


def test_negative_exponent_rejected():
    with pytest.raises(SystemFormatError, match=r"pdot\[0\]"):
        system_from_obj({"qdot": [], "pdot": [{"j": -1, "k": 0, "coeff": "1"}]})
