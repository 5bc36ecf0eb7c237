# The checks CI runs beyond Tier-1: the console script at sizes, streams and exit codes
# that the tests do not reach.  bash -e fails on any nonzero exit not caught by ||.
#
#   bash -e tests/console.sh                                      # the installed weylorder
#   WEYLORDER="python -m weylorder.cli" bash -e tests/console.sh  # a checkout, no install
#
# The python -c checks import the checkout's own src.  Temporary files go to $RUNNER_TEMP,
# or to a fresh directory that is removed on exit.
WEYLORDER=${WEYLORDER:-weylorder}
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src${PYTHONPATH:+:$PYTHONPATH}"
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
$WEYLORDER weyl 1 1
$WEYLORDER check --max 3
# all six checks pass at a degree the CLI tests do not reach
timeout 10 $WEYLORDER check --max 12 > /dev/null
$WEYLORDER weyl 5 4 --method forced
code=0; timeout 10 $WEYLORDER weyl 1000000000 0 || code=$?
test "$code" -eq 3
timeout 10 $WEYLORDER normal-order "a^32 ad^32" --route blasiak
# both routes run on every request and exit 0 only when they agree
timeout 10 $WEYLORDER normal-order "a^1000 ad^1000" > /dev/null
timeout 10 $WEYLORDER normal-order "a^1000 ad^1000" --route blasiak > /dev/null
code=0; err=$($WEYLORDER weyl x 1 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
case "$err" in *_nonnegative*) echo "$err"; exit 1;; esac
code=0; timeout 10 $WEYLORDER normal-order "a^100000000" || code=$?
test "$code" -eq 3
timeout 10 $WEYLORDER weyl 12 12 --method brute
# the integer closed form, byte for byte against cg at a degree Tier-1 does not sweep
test "$($WEYLORDER weyl 40 40)" = "$($WEYLORDER weyl 40 40 --method cg)"
# the one-component render paths, latex and structured, against cg's coefficients
test "$($WEYLORDER weyl 40 40 --format latex)" = "$($WEYLORDER weyl 40 40 --method cg --format latex)"
test "$($WEYLORDER weyl 40 40 --format structured)" = "$($WEYLORDER weyl 40 40 --method cg --format structured)"
# quantize sums the closed-form rows in ints: one monomial at a degree Tier-1 does not sweep, against cg
one="$RUNNER_TEMP/one.json"
echo '{"qdot": [{"j": 40, "k": 40, "coeff": "1"}], "pdot": []}' > "$one"
test "$($WEYLORDER quantize "$one" | head -n 1)" = "<q>' = $($WEYLORDER weyl 40 40 --method cg)"
# two monomials of one parity put components 0 and 1 on about half the keys: the
# several-part path of scalar._parts, plain and structured, at a degree Tier-1 does not sweep
mixed="$RUNNER_TEMP/mixed.json"
echo '{"qdot": [{"j": 40, "k": 40, "coeff": "1"}, {"j": 41, "k": 39, "coeff": "1"}], "pdot": []}' > "$mixed"
test "$($WEYLORDER quantize "$mixed" | head -n 1)" = "<q>' = $(python -c 'from weylorder import render, weyl_via_cg; print(render(weyl_via_cg(40, 40) + weyl_via_cg(41, 39)))')"
test "$($WEYLORDER quantize "$mixed" --format structured | python -c 'import json, sys; print(json.dumps(json.load(sys.stdin)["qdot"]))')" = "$(python -c 'import json; from weylorder import weyl_via_cg; from weylorder.textio import structured_terms; print(json.dumps({"terms": structured_terms(weyl_via_cg(40, 40) + weyl_via_cg(41, 39))}))')"
# textio.render_table at a degree Tier-1 does not sweep: the nonzero rows of the h table,
# keyed by (80-2u-v, v), are the terms of the closed form
h="$RUNNER_TEMP/h.json"
$WEYLORDER coeffs 40 40 --which h --format structured > "$h"
$WEYLORDER weyl 40 40 --format structured | python -c 'import json, sys
fields = ("x_re", "x_im", "y_re", "y_im")
rows = {(80 - 2 * r["u"] - r["v"], r["v"]): [r[f] for f in fields]
        for r in json.load(open(sys.argv[1]))["rows"] if any(r[f] != "0/1" for f in fields)}
terms = {(t["m"], t["n"]): [t[f] for f in fields] for t in json.load(sys.stdin)["terms"]}
sys.exit(None if rows == terms else "the h rows differ from the weyl terms")' "$h"
# the Blasiak row of ad a a ad holds a zero; both routes agree only if it is pruned
test "$($WEYLORDER normal-order "ad a a ad")" = "ad^2 a^2 + 2 ad a"
# a word is parsed to its runs: a zero power drops out and neighbours of one letter merge
test "$($WEYLORDER normal-order "a a^0 a ad ad")" = "$($WEYLORDER normal-order "a^2 ad^2")"
# a long ad run is one count to both routes, never 9999 letters
timeout 10 $WEYLORDER normal-order "ad^9999 a" > /dev/null
# prefix excesses (0, 50, 55, -243, -252): the adjoint branch builds its own string, and
# the Blasiak row ends 245 points at a zero factor; both routes must agree (exit 0)
timeout 10 $WEYLORDER normal-order "a^9 ad^2 a^300 ad^7 a^2 ad^50" > /dev/null
# the falling-basis Blasiak row against the rewrite at sizes Tier-1 does not sweep: a block
# of 1500 letters a by Chu–Vandermonde, and a largest block (700 letters a) that meets the
# prefix excess -3, so falling is read at a negative d; both routes must agree (exit 0)
timeout 10 $WEYLORDER normal-order "a^1500 ad^1500" > /dev/null
timeout 10 $WEYLORDER normal-order "ad^800 a^700 ad^2 a^8 ad^3" > /dev/null
# the zeta recurrence's exact division at MAX_DEGREE, against the alternating sum
python -c 'from weylorder import zeta_row, zeta_sum
for j in (0, 1, 150, 399, 400):
    assert zeta_row(j, 400 - j) == [zeta_sum(j, 400 - j, t) for t in range(401)], j'
timeout 10 $WEYLORDER weyl 200 200 --format structured > /dev/null
# a reader that closes stdout after 10 of 705 KB is not an error: exit 0
$WEYLORDER weyl 100 100 | head -c 10 > /dev/null; test "${PIPESTATUS[0]}" -eq 0
# a closed stderr changes neither stdout nor the exit code
test "$($WEYLORDER weyl 3 3 2>&-)" = "$($WEYLORDER weyl 3 3 2>/dev/null)"
code=0; $WEYLORDER weyl 1000000000 0 2>&- || code=$?; test "$code" -eq 3
# a usage error with stderr closed: exit 2, and argparse's usage text stays off stdout
code=0; out=$($WEYLORDER weyl x 1 2>&-) || code=$?; test "$code" -eq 2; test -z "$out"
# cg sums its 101 converted monomials with +, at a degree Tier-1 does not sweep
test "$($WEYLORDER weyl 100 100 --method cg)" = "$($WEYLORDER weyl 100 100)"
# a coefficient past the 4300-digit int-to-str limit: exit 3 and nothing on stdout
big="$RUNNER_TEMP/bigcoeff.json"
python -c 'import json; print(json.dumps({"qdot": [{"j": 1, "k": 0, "coeff": "1"}],
    "pdot": [{"j": 40, "k": 40, "coeff": "9" * 4290}]}))' > "$big"
code=0; out=$($WEYLORDER quantize "$big") || code=$?
test "$code" -eq 3
test -z "$out"
# a rejected choice is echoed by its first characters only
code=0; err=$($WEYLORDER weyl 1 1 --method "$(python -c 'print("x" * 5000)')" 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
longest=$(printf '%s\n' "$err" | awk '{ if (length($0) > m) m = length($0) } END { print m + 0 }')
test "$longest" -lt 200
# so is a long word of the CLI's own messages: a 5000-character path that is not there
code=0; err=$($WEYLORDER quantize "$(python -c 'print("x" * 5000)')" 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
longest=$(printf '%s\n' "$err" | awk '{ if (length($0) > m) m = length($0) } END { print m + 0 }')
test "$longest" -lt 200
# and a whole message of short words: a path of 2500 "x " pairs
code=0; err=$($WEYLORDER quantize "$(python -c 'print("x " * 2500)')" 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
longest=$(printf '%s\n' "$err" | awk '{ if (length($0) > m) m = length($0) } END { print m + 0 }')
test "$longest" -lt 200
# plain argv skips argparse; an abbreviated option goes through it, to the same bytes
test "$($WEYLORDER weyl 3 2 --form latex)" = "$($WEYLORDER weyl 3 2 --format latex)"
# help goes through argparse, built from the command table: exit 0 and usage on stdout
for command in "" weyl normal-order coeffs quantize check; do
  help=$($WEYLORDER $command --help)
  case "$help" in usage:*) ;; *) echo "$help"; exit 1;; esac
done
# the import every run pays, as installed, loads neither dataclasses nor inspect
imports=$(python -X importtime -c "import weylorder.cli" 2>&1)
if printf '%s\n' "$imports" | grep -E ' (dataclasses|inspect)$'; then exit 1; fi
