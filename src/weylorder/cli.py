"""Command-line surface: weyl, normal-order, coeffs, quantize, check.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 cap exceeded.  Results go to stdout; the human-format header lines go to
stderr so that stdout bytes are identical across equivalent methods.  A
handler writes nothing: it returns (exit code, stdout text or None, stderr text
or None), and `main` alone writes and flushes both streams, argparse's help and
usage text included, so an error leaves stdout empty and a stream that cannot be
written does not change the exit code.

`COMMANDS` is the one grammar: each command's handler, help string,
positionals and options.  `build_parser` hands it to argparse.  An argv of the
plain form `COMMAND POSITIONAL... (--OPTION VALUE)...` is parsed by
`_quick_args`, which reads the same table and returns the Namespace
parse_args would; every other argv (help, abbreviations, `--opt=value`, a
token that starts with `-`, a bad value) goes to argparse, the authority on
help text and usage errors.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout, suppress
from functools import cache

from .altroutes import blasiak_normal_order, blockify, weyl_via_cg
from .closedform import h_slots, lambda_factor, slots, weyl_normal_form, xi_factor, zeta_row
from .enumeration import ETA_CAP, CapExceededError, weyl_bruteforce, weyl_forced
from .poly import normal_order_word
from .quantize import quantize_system
from .textio import (FORMATS, ParseError, SystemFormatError, load_system, parse_boson_word, render,
                     render_table, structured_terms)
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# The largest j + k the CLI reads (weyl, coeffs, quantize monomials, check --max):
# a bound on the size of the input, not on the run time.  The library has none.
MAX_DEGREE = 400
# The most letters a normal-order word may hold, checked after the parse, before either route.
MAX_WORD_LETTERS = 10_000
# A rejected argument is echoed to at most this many characters, and a usage error
# message (say, a list of many unrecognized arguments) to at most MESSAGE_CHARS.
ECHO_CHARS = 20
MESSAGE_CHARS = 150
# A word of an error message that is cut: more than ECHO_CHARS characters, no blank or quote.
_LONG_WORD_RE = re.compile(rf"[^\s']{{{ECHO_CHARS + 1},}}")


def _echo(text: str, limit: int = ECHO_CHARS) -> str:
    return text if len(text) <= limit else text[:limit] + "..."


def _cut(message: str) -> str:
    """The message with each long word echoed by its first characters, then cut to MESSAGE_CHARS."""
    return _echo(_LONG_WORD_RE.sub(lambda word: _echo(word[0]), message), MESSAGE_CHARS)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose error messages are cut; its usage text is not."""

    def error(self, message):
        super().error(_cut(message))


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # argparse would name this function in its own message
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {_echo(text)!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {_echo(str(value))}")
    return value


def _check_cap(what: str, size: int, cap: int = MAX_DEGREE, unit: str = "degree") -> None:
    if size > cap:
        raise CapExceededError(what, size, cap, unit)


def cmd_weyl(args) -> tuple:
    n = args.j + args.k
    _check_cap("weyl", n)
    poly = {"closed": weyl_normal_form, "brute": weyl_bruteforce, "forced": weyl_forced,
            "cg": weyl_via_cg}[args.method](args.j, args.k)
    if args.format == "structured":
        return EXIT_OK, json.dumps({"j": args.j, "k": args.k, "hbar_exponent_times_2": n,
                                    "terms": structured_terms(poly)}), None
    return EXIT_OK, render(poly, args.format), (
        f"# weyl j={args.j} k={args.k} method={args.method} hbar_exponent_times_2={n}")


def cmd_normal_order(args) -> tuple:
    runs = parse_boson_word(args.expr)
    _check_cap("boson word", sum(count for _, count in runs), MAX_WORD_LETTERS, "letters")
    rewrite = normal_order_word(runs)
    blasiak = blasiak_normal_order(blockify(runs))
    if rewrite != blasiak:
        return EXIT_VERIFY, None, (
            f"error: rewrite and blasiak routes disagree on {_echo(args.expr)!r}")
    return EXIT_OK, render(rewrite if args.route == "rewrite" else blasiak, args.format), None


def _coeff_rows(j: int, k: int, which: str) -> list:
    """(keys, value) per table row, as textio.render_table reads it."""
    if which == "zeta":
        return [({"t": t}, z) for t, z in enumerate(zeta_row(j, k))]
    if which == "h":
        return [({"u": u, "v": v}, h) for u, v, h in h_slots(j, k)]
    if which == "lambda":
        return [({"u": u, "v": v}, lambda_factor(j, k, u, v)) for u, v in slots(j + k)]
    return [({"u": u, "v": v}, xi_factor(j, k, u, v)) for u, v in slots(j + k)]


def cmd_coeffs(args) -> tuple:
    _check_cap("coeffs", args.j + args.k)
    text = render_table(_coeff_rows(args.j, args.k, args.which), args.format,
                        {"j": args.j, "k": args.k, "which": args.which})
    return EXIT_OK, text, (None if args.format == "structured"
                           else f"# coeffs j={args.j} k={args.k} which={args.which}")


def cmd_quantize(args) -> tuple:
    system = load_system(args.path)
    for j, k in [*system.qdot, *system.pdot]:
        _check_cap(f"quantize monomial q^{j} p^{k}", j + k)
    dyn = quantize_system(system)
    if args.format == "structured":
        return EXIT_OK, json.dumps({
            "qdot": {"terms": structured_terms(dyn.qdot_op)},
            "pdot": {"terms": structured_terms(dyn.pdot_op)},
            "hbar_note": list(dyn.hbar_note),
        }), None
    text = f"<q>' = {render(dyn.qdot_op, args.format)}\n<p>' = {render(dyn.pdot_op, args.format)}"
    return EXIT_OK, text, "\n".join([f"# quantize {args.path}", *(
        f"# hbar_note side={note['side']} j={note['j']} k={note['k']} "
        f"exponent_times_2={note['hbar_exponent_times_2']}" for note in dyn.hbar_note)])


def cmd_check(args) -> tuple:
    _check_cap("check --max", args.max_degree)
    report = run_checks(max_degree=args.max_degree, eta_cap=args.eta_cap)
    lines = []
    for result in report.results:
        lines.append(f"{result.name}: {result.cases} cases {'ok' if result.passed else 'FAIL'}")
        if not result.passed:
            lines.append(f"  witness: {result.witness}")
    lines.append("all checks passed" if report.ok else "verification FAILED")
    return (EXIT_OK if report.ok else EXIT_VERIFY), "\n".join(lines), None


# Per command: the handler, returning (exit code, stdout text or None, stderr text or None), the
# help string, positionals as (dest, type) and options as {option: (dest, type, choices, default)}.
_FORMAT = {"--format": ("format", str, FORMATS, "plain")}
COMMANDS = {
    "weyl": (cmd_weyl, "Weyl ordering of q^j p^k in normal order",
             (("j", _nonnegative), ("k", _nonnegative)),
             {"--method": ("method", str, ("closed", "brute", "forced", "cg"), "closed"),
              **_FORMAT}),
    "normal-order": (cmd_normal_order, "normal-order a boson word", (("expr", str),),
                     {"--route": ("route", str, ("rewrite", "blasiak"), "rewrite"), **_FORMAT}),
    "coeffs": (cmd_coeffs, "coefficient tables for one (j, k)",
               (("j", _nonnegative), ("k", _nonnegative)),
               {"--which": ("which", str, ("h", "zeta", "lambda", "xi"), "h"), **_FORMAT}),
    "quantize": (cmd_quantize, "Weyl-quantize a polynomial system file", (("path", str),),
                 _FORMAT),
    "check": (cmd_check, "cross-method verification sweep", (),
              {"--max": ("max_degree", _nonnegative, None, 6),
               "--eta-cap": ("eta_cap", _nonnegative, None, ETA_CAP)}),
}
# Per command, the Namespace fields before any argument is read.
_DEFAULTS = {name: {"command": name, **{dest: default for dest, _, _, default in options.values()}}
             for name, (_, _, _, options) in COMMANDS.items()}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of COMMANDS, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="weylorder",
        description="Exact normal-ordered Weyl orderings of q^j p^k and friends.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, positionals, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for dest, kind in positionals:
            command.add_argument(dest, type=kind)
        for option, (dest, kind, choices, default) in options.items():
            command.add_argument(option, dest=dest, type=kind, choices=choices, default=default)
    return parser


def _quick_args(argv):
    """The Namespace parse_args returns for a plain argv, or None to leave argv to argparse.

    Plain is `COMMAND POSITIONAL... (--OPTION VALUE)...`: each option string an
    exact match, no positional or value that starts with `-`, each value taken
    by its type and inside its choices.  The last of a repeated option wins.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, _, positionals, options = command
    count = len(positionals) + 1
    if len(argv) < count or (len(argv) - count) % 2:
        return None
    values = dict(_DEFAULTS[argv[0]])
    fields = [*positionals, *map(options.get, argv[count::2])]
    for field, token in zip(fields, argv[1:count] + argv[count + 1::2]):
        if field is None or token.startswith("-"):
            return None
        try:
            value = field[1](token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if len(field) > 2 and field[2] is not None and value not in field[2]:  # only options
            return None
        values[field[0]] = value
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _quick_args(argv)
        if args is None:  # argparse's help and usage text is caught here for the writer below
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
                args = build_parser().parse_args(argv)
        code, out, err = COMMANDS[args.command][0](args)
    except SystemExit as exc:  # parse_args has put help (exit 0) or a usage error in out, err
        code = EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        out, err = (text.getvalue().removesuffix("\n") or None for text in (out, err))
    except CapExceededError as exc:
        code, out, err = EXIT_CAP, None, f"error: {_cut(str(exc))}"
    except (ParseError, SystemFormatError, OSError) as exc:  # OSError: load_system's file
        code, out, err = EXIT_USAGE, None, f"error: {_cut(str(exc))}"
    for stream, text in ((sys.stderr, err), (sys.stdout, out)):
        if stream is None:  # its descriptor was closed before the interpreter started
            continue
        try:
            if text is not None:
                stream.write(text + "\n")
            stream.flush()  # a stream that cannot be written fails here, not at interpreter exit
        except OSError:  # the code stands, and the exit-time flush goes to os.devnull
            with suppress(AttributeError, OSError, ValueError):  # a StringIO has no descriptor
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code

if __name__ == "__main__":
    sys.exit(main())
