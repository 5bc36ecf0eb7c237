"""Boson-word parsing, system-file ingestion and deterministic rendering.

Grammar notes: a boson word is a product of factors "a" and "ad" (the
creation operator, spelled in ASCII; LaTeX output restores the dagger).
A factor may carry a power "^N" with N a nonnegative integer and may be
followed by "*"; blanks may stand between any two parts.  A word parses to its
runs ((letter, count), ...).  Exact rationals num or num/den appear only as
system-file coefficients; decimals are rejected.

Plain and LaTeX output, of terms and of tables, share one formatter; a row of `_SPELLINGS`
spells each format.
"""
from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

from .enumeration import CapExceededError
from .poly import ANNIHILATE, CREATE, NormalPoly, _Runs
from .quantize import PolySystem
from .scalar import Scalar, _parts


class ParseError(ValueError):
    """Syntax error carrying the offending source span (start, end)."""

    def __init__(self, message: str, span):
        self.span = tuple(span)
        super().__init__(f"{message} (at {self.span[0]}..{self.span[1]})")


# One factor with the blanks around it.  A power is read as num or num/den so
# that a fractional power is reported as such.
_FACTOR_RE = re.compile(r"\s*(ad|a)\s*(?:(\^\s*)(\d+(?:/\d+)?)?)?\s*\*?\s*")


def parse_boson_word(text: str) -> tuple:
    """Parse a product of "a" and "ad" factors with optional integer powers into runs.

    The runs ((letter, count), ...) are canonical: no zero count, and no two neighbouring
    runs of one letter, and they come back as a `poly._Runs`, which the routes read unchecked.
    A power past sys.maxsize is reported after any syntax error.
    """
    if not text.strip():
        raise ParseError("empty input", (0, len(text)))
    runs, too_large, pos = [], None, 0
    while pos < len(text):
        factor = _FACTOR_RE.match(text, pos)
        if factor is None:
            pos = len(text) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[pos]!r}", (pos, pos + 1))
        name, caret, power = factor.groups()
        count = 1
        if caret is not None:
            if power is None or "/" in power:
                at = factor.end(2)
                span = factor.span(3) if power else (at, min(at + 1, len(text)))
                raise ParseError("exponent must be a nonnegative integer", span)
            try:
                count = int(power)
            except ValueError:  # more digits than sys.get_int_max_str_digits() allows
                raise ParseError("exponent has too many digits", factor.span(3)) from None
            if count > sys.maxsize and too_large is None:  # reported after any syntax error
                too_large = factor.span(1)
        if count and runs and runs[-1][0] == name:
            runs[-1] = (runs[-1][0], runs[-1][1] + count)
        elif count:
            runs.append((CREATE if name == "ad" else ANNIHILATE, count))
        pos = factor.end()
    if too_large is not None:
        raise ParseError("power too large", too_large)
    return _Runs(runs)


# -- rendering -------------------------------------------------------------

def _digits(n: int) -> str:
    """str(n), or CapExceededError past the interpreter's int-to-digits limit."""
    try:
        return str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        n = abs(n)
        digits = int(math.log10(n)) + 1  # the float log is off by one next to a power of 10
        digits += (n >= 10 ** digits) - (n < 10 ** (digits - 1))
        limit = sys.get_int_max_str_digits()
        raise CapExceededError("coefficient", digits, limit, "digits") from None


def _frac_str(f: Fraction) -> str:
    return f"{_digits(f.numerator)}/{_digits(f.denominator)}"


# Each format's spelling of each piece, one row per format: the symbols of 1, i, sqrt2 and i*sqrt2;
# the joint of digits and symbol; the text before, between and after a fraction's numerator and
# denominator; ad, and the text around m in ad^m; the same for a^n; the joint of operators, and of
# a coefficient and its operators; a coefficient's bracket; a table's column joint and line end.
_SPELLINGS = {
    "plain": (("", "i", "sqrt2", "i*sqrt2"), "*", "", "/", "", "ad", "ad^", "",
              "a", "a^", "", " ", "(", ")", "  ", ""),
    "latex": (("", "i", r"\sqrt{2}", r"i\sqrt{2}"), "", r"\frac{", "}{", "}",
              r"\hat{a}^{\dagger}", r"\hat{a}^{\dagger ", "}", r"\hat{a}", r"\hat{a}^{", "}",
              "", r"\left(", r"\right)", " & ", r" \\"),
}
FORMATS = (*_SPELLINGS, "structured")  # every --format: a row of _SPELLINGS each, then JSON


def _formatter(symbols, joint, before, between, after, ad, ad_before, ad_after,
               a, a_before, a_after, space, left, right, sep, eol):
    """(component(num, den, index), term(m, n), space, left, right, line(keys, text)) of one row."""
    def component(num: int, den: int, index: int) -> str:
        head = _digits(abs(num))
        if index:
            head = symbols[index] if head == "1" else f"{head}{joint}{symbols[index]}"
        return head if den == 1 else f"{before}{head}{between}{_digits(den)}{after}"

    def term(m: int, n: int) -> str:
        head = (ad if m == 1 else f"{ad_before}{m}{ad_after}") if m else ""
        tail = (a if n == 1 else f"{a_before}{n}{a_after}") if n else ""
        return f"{head}{space}{tail}" if m and n else head or tail

    def line(keys: dict, text) -> str:
        return sep.join(f"{name}={index}" for name, index in keys.items()) + f"{sep}{text}{eol}"

    return component, term, space, left, right, line


_FORMATTERS = {name: _formatter(*row) for name, row in _SPELLINGS.items()}


_FIELDS = ("x_re", "x_im", "y_re", "y_im")


def scalar_fields(c: Scalar) -> dict:
    """The four components as reduced "num/den" strings; zero is "0/1"."""
    fields = {"x_re": "0/1", "x_im": "0/1", "y_re": "0/1", "y_im": "0/1"}
    for num, den, index in _parts(c):
        fields[_FIELDS[index]] = f"{_digits(num)}/{_digits(den)}"
    return fields


def structured_terms(poly: NormalPoly) -> list:
    return [{"m": m, "n": n, **scalar_fields(c)} for (m, n), c in poly.items()]


def render(poly: NormalPoly, format: str = "plain") -> str:
    """Deterministic rendering; term order is descending m+n, then descending m."""
    if format == "structured":
        return json.dumps({"terms": structured_terms(poly)})
    if format not in _FORMATTERS:
        raise ValueError(f"unknown format {format!r}")
    if not poly:
        return "0"
    component, term, space, left, right, _ = _FORMATTERS[format]
    out = []
    for (m, n), coeff in poly.items():
        parts = _parts(coeff)
        num, den, index = parts[0]
        negated = num < 0
        body = component(num, den, index)
        operators = term(m, n)
        if len(parts) > 1:
            # a part's text carries no sign, so its sign is read against the lead's; the
            # bracket beside no operator is "(" in every format
            for part in parts[1:]:
                body += (" - " if (part[0] < 0) != negated else " + ") + component(*part)
            piece = f"{left}{body}{right}{space}{operators}" if operators else f"({body})"
        elif not operators:
            piece = body
        elif den != 1 or index:
            piece = f"{left}{body}{right}{space}{operators}"
        else:  # a bare integer; 1 is left out
            piece = operators if body == "1" else f"{body}{space}{operators}"
        sign = ("- " if negated else "+ ") if out else ("-" if negated else "")
        out.append(sign + piece)
    return " ".join(out)


def render_table(rows, format: str, envelope: dict) -> str:
    """(keys, value) rows, value a Scalar, int or Fraction: a line each, or JSON in envelope."""
    rows = [(keys, _frac_str(value) if isinstance(value, Fraction) else value)
            for keys, value in rows]
    if format == "structured":
        return json.dumps({**envelope, "rows": [
            {**keys, **(scalar_fields(value) if isinstance(value, Scalar) else {"value": value})}
            for keys, value in rows]})
    if format not in _FORMATTERS:
        raise ValueError(f"unknown format {format!r}")
    line = _FORMATTERS[format][-1]
    return "\n".join(line(keys, render(NormalPoly({(0, 0): value}), format)
                          if isinstance(value, Scalar) else value) for keys, value in rows)


# -- system files ----------------------------------------------------------

class SystemFormatError(ValueError):
    """Malformed system document; the message names the offending entry."""


_COEFF_RE = re.compile(r"-?\d+(/0*[1-9]\d*)?\Z")  # no zero denominator


def _read_side(obj, name: str) -> dict:
    entries = obj.get(name)
    if not isinstance(entries, list):
        raise SystemFormatError(f"field {name!r} must be an array")
    side: dict = {}
    for idx, entry in enumerate(entries):
        where = f"{name}[{idx}]"
        if not isinstance(entry, dict):
            raise SystemFormatError(f"{where}: entry must be an object")
        try:
            j, k, coeff = entry["j"], entry["k"], entry["coeff"]
        except KeyError as exc:
            raise SystemFormatError(f"{where}: missing field {exc.args[0]!r}") from None
        if not isinstance(j, int) or not isinstance(k, int) or isinstance(j, bool) or isinstance(k, bool):
            raise SystemFormatError(f"{where}: j and k must be integers")
        if j < 0 or k < 0:
            raise SystemFormatError(f"{where}: negative exponent ({j}, {k})")
        if not isinstance(coeff, str) or not _COEFF_RE.match(coeff):
            raise SystemFormatError(
                f"{where}: coeff must be an exact rational string num/den, got {coeff!r}")
        try:
            value = Fraction(coeff)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise SystemFormatError(f"{where}: coeff has too many digits") from None
        side[(j, k)] = side.get((j, k), Fraction(0)) + value
    return side


def system_from_obj(obj) -> PolySystem:
    if not isinstance(obj, dict):
        raise SystemFormatError("document root must be an object")
    return PolySystem(_read_side(obj, "qdot"), _read_side(obj, "pdot"))


def load_system(path) -> PolySystem:
    """Load and validate a system document; duplicate (j, k) entries are summed."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except UnicodeDecodeError as exc:
            raise SystemFormatError("not valid UTF-8") from exc
        except json.JSONDecodeError as exc:  # the place alone; the message is the interpreter's
            raise SystemFormatError(
                f"not valid JSON at line {exc.lineno} column {exc.colno}") from exc
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits() allows
            raise SystemFormatError("number has too many digits") from exc
        except RecursionError as exc:  # arrays or objects nested past the interpreter's limit
            raise SystemFormatError("nested too deeply") from exc
    return system_from_obj(obj)
