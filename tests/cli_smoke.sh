#!/usr/bin/env bash
# End-to-end smoke run of the dpllkit command line.
#
# Usage: tests/cli_smoke.sh CMD...
#   CMD is the way to start the command line: the installed script
#   (`tests/cli_smoke.sh dpllkit`), or the module with the package on the
#   path (`PYTHONPATH=src tests/cli_smoke.sh python -m dpllkit`).  `python`
#   on PATH must import dpllkit too.  The run works in a temporary directory
#   and exits nonzero at the first step that does not behave as expected;
#   each expected nonzero exit is captured with || rc=$?.
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 CMD..." >&2
    exit 64
fi
cmd=("$@")
# `command` runs CMD itself, even when CMD is the installed `dpllkit`
dpllkit() { command "${cmd[@]}" "$@"; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

dpllkit gen php 3 2 --out php32.cnf
rc=0; dpllkit solve php32.cnf --out php32.dpll || rc=$?
test "$rc" -eq 20
dpllkit check dpll php32.cnf php32.dpll
# one token per line: the parser reads any legal spacing
tr ' ' '\n' < php32.dpll > php32-lines.dpll
test "$(dpllkit check dpll php32.cnf php32-lines.dpll)" = valid
# a truncated proof: exit 1 with the parse error and its offset
printf '(unit 1 conflict' > cut.dpll
rc=0; dpllkit check dpll php32.cnf cut.dpll 2> cut.err || rc=$?
test "$rc" -eq 1
grep -qxF "error: offset 16: unexpected end of input, expected ')'" cut.err
dpllkit convert dpll2res php32.cnf php32.dpll --out php32.res
dpllkit check res php32.cnf php32.res
# PHP(5,4)'s proof one token per line: not the serializer's
# spacing, so the token walk reads it, token by token
dpllkit gen php 5 4 --out php54.cnf
rc=0; dpllkit solve php54.cnf --out php54.dpll || rc=$?
test "$rc" -eq 20
tr ' ' '\n' < php54.dpll > php54-lines.dpll
test "$(dpllkit check dpll php54.cnf php54-lines.dpll)" = valid
dpllkit convert dpll2res php54.cnf php54-lines.dpll --out php54.res
test "$(dpllkit check res php54.cnf php54.res)" = valid
rc=0; python -m dpllkit solve --mode decide php32.cnf || rc=$?
test "$rc" -eq 20
# PHP(6,5)'s derivation shares the Splits it refutes twice: the text
# writes each Split once and cites it as #n after, in the order the
# Splits are finished, and each stage reads the shared derivation
dpllkit gen php 6 5 --out php65.cnf
rc=0; dpllkit solve php65.cnf --out php65.dpll || rc=$?
test "$rc" -eq 20
test "$(dpllkit check dpll php65.cnf php65.dpll)" = valid
dpllkit convert dpll2res php65.cnf php65.dpll --out php65.res
test "$(dpllkit check res php65.cnf php65.res)" = valid
# PHP(8,7) decided without a proof: each refuted Split is searched once
dpllkit gen php 8 7 --out php87.cnf
rc=0; timeout 60 "${cmd[@]}" solve --mode decide php87.cnf || rc=$?
test "$rc" -eq 20
# PHP(10,9) decided: 3,578 searched Splits, each scoring its split
# literal from the enclosing Split's Jeroslow–Wang scores
dpllkit gen php 10 9 --out php109.cnf
rc=0; timeout 60 "${cmd[@]}" solve --mode decide php109.cnf || rc=$?
test "$rc" -eq 20
# PHP(8,7) with its proof: 108,471 nodes unfolded, whose text would be
# about 2 MB unshared; shared, each stage costs the distinct derivation
rc=0; timeout 60 "${cmd[@]}" solve php87.cnf --out php87.dpll || rc=$?
test "$rc" -eq 20
test "$(wc -c < php87.dpll)" -le 122950
test "$(timeout 60 "${cmd[@]}" check dpll php87.cnf php87.dpll)" = valid
# the sizes of the unfolded derivation and of its translation
test "$(timeout 60 "${cmd[@]}" convert dpll2res php87.cnf php87.dpll --out php87.res)" \
    = "dpll_size=108471 res_size=41090"
test "$(timeout 60 "${cmd[@]}" check res php87.cnf php87.res)" = valid
# PHP(9,8) end to end: a Split refuted before is reused where its clean
# clauses come again, and its sequent fits there
dpllkit gen php 9 8 --out php98.cnf
rc=0; timeout 60 "${cmd[@]}" solve php98.cnf --out php98.dpll || rc=$?
test "$rc" -eq 20
test "$(wc -c < php98.dpll)" -le 317583
test "$(timeout 60 "${cmd[@]}" check dpll php98.cnf php98.dpll)" = valid
test "$(timeout 60 "${cmd[@]}" convert dpll2res php98.cnf php98.dpll --out php98.res)" \
    = "dpll_size=867975 res_size=328792"
test "$(timeout 60 "${cmd[@]}" check res php98.cnf php98.res)" = valid
# PHP(10,9) end to end: 7.8M nodes unfolded in a text under 1 MB
rc=0; timeout 60 "${cmd[@]}" solve php109.cnf --out php109.dpll || rc=$?
test "$rc" -eq 20
test "$(wc -c < php109.dpll)" -lt 1000000
test "$(timeout 60 "${cmd[@]}" check dpll php109.cnf php109.dpll)" = valid
test "$(timeout 60 "${cmd[@]}" convert dpll2res php109.cnf php109.dpll --out php109.res)" \
    = "dpll_size=7812035 res_size=2959218"
test "$(timeout 60 "${cmd[@]}" check res php109.cnf php109.res)" = valid
dpllkit gen php 2 1 --out php21.cnf
# a clause whose literals are out of canonical order is read as a set
printf '(unit 1 (unit 2 (red [ -2 -1 ] 1 (red [ -2 ] 2 conflict))))' > php21-swapped.dpll
test "$(dpllkit check dpll php21.cnf php21-swapped.dpll)" = valid
# --proof none writes no proof, so --out is a usage error before solving
rc=0; dpllkit solve --proof none --out none.out php21.cnf 2> none.err || rc=$?
test "$rc" -eq 1
grep -qF -- '--out' none.err
test ! -e none.out
# a model goes to --out, and the answer line stays on stdout
dpllkit gen php 2 2 --out php22.cnf
rc=0; dpllkit solve --out php22.model php22.cnf > php22.out || rc=$?
test "$rc" -eq 10
test "$(cat php22.out)" = "s SATISFIABLE"
test "$(cat php22.model)" = "v 1 -2 -3 4 0"
# unsorted and repeated literals, and one clause twice: the clauses
# are canonicalized once, and the proof is pinned
printf 'p cnf 2 5\n2 1 1 0\n1 2 0\n-1 2 0\n1 -2 0\n-2 -1 0\n' > messy.cnf
rc=0; dpllkit solve messy.cnf --out messy.dpll || rc=$?
test "$rc" -eq 20
grep -qxF '(split 1 (red [ -1 2 ] 1 (red [ -1 -2 ] 1 (unit 2 (red [ -2 ] 2 conflict)))) (red [ 1 2 ] -1 (red [ 1 -2 ] -1 (unit 2 (red [ -2 ] 2 conflict)))))' messy.dpll
test "$(dpllkit check dpll messy.cnf messy.dpll)" = valid
dpllkit convert dpll2res messy.cnf messy.dpll --out messy.res
test "$(dpllkit check res messy.cnf messy.res)" = valid
# a form feed inside a comment is whitespace, not a line break:
# the script reads the file in text mode, which passes it through
printf 'c a\fb\np cnf 1 1\n1 0\n' > ff.cnf
rc=0; dpllkit solve ff.cnf || rc=$?
test "$rc" -eq 10
# 60 lines whose steps each cite the line before twice unfold into
# 2^59 steps: check res visits each shared node once, and finds a
# valid derivation that does not conclude ()
{ echo '1 S 1 1 -1 2 0'; for i in $(seq 2 60); do echo "$i R 1 $((i - 1)) $((i - 1)) 1 -1 2 0"; done; } > shared.res
printf 'p cnf 2 1\n1 2 0\n' > shared.cnf
rc=0; timeout 20 "${cmd[@]}" check res shared.cnf shared.res 2> shared.err || rc=$?
test "$rc" -eq 2
grep -qxF 'invalid: not-a-refutation at path []' shared.err
# the serializer writes each shared node once, so the trace
# round-trips byte for byte
timeout 20 python -c 'import sys; from dpllkit.proof_text import parse_res, serialize_res; text = open(sys.argv[1]).read(); assert serialize_res(parse_res(text)) == text' shared.res
# 30 nested Splits, each citing the one inside it as its right branch,
# 2^30 - 1 Splits unfolded.  Split k reduces (-k 30+k) or (k 30+k) to the
# unit (30+k), and below Split 1 the units 31 .. 60 and then $1 end in the
# clause $2 (written to $3.cnf and $3.dpll)
chain() {
    local n=30 units=$1 text k
    for k in $(seq $((2 * n)) -1 $((n + 1))); do units="(unit $k $units)"; done
    text="(split 1 (red [ -1 $((n + 1)) ] 1 $units) (red [ 1 $((n + 1)) ] -1 $units))"
    for k in $(seq 2 $n); do
        text="(split $k (red [ -$k $((n + k)) ] $k $text) (red [ $k $((n + k)) ] -$k #$((k - 1))))"
    done
    printf '%s' "$text" > "$3.dpll"
    { echo "p cnf $((2 * n)) $((2 * n + 1))"; echo "$2 0"
      for k in $(seq 1 $n); do echo "-$k $((n + k)) 0"; echo "$k $((n + k)) 0"; done; } > "$3.cnf"
}
# over the empty clause each shared Split's sequent fits wherever it is
# met, though the premise of the unit it reads differs: check accepts it
chain conflict "" premise
test "$(timeout 20 "${cmd[@]}" check dpll premise.cnf premise.dpll)" = valid
# over the clause (-31 .. -60), which Reds by the units reduce to (), the
# translation needs every right branch, with other premises each time:
# convert stops at the text's length in steps
bottom=conflict
for k in $(seq 60 -1 31); do bottom="(red [ $(seq -s ' ' -$k -1 -60) ] $k $bottom)"; done
chain "$bottom" "$(seq -s ' ' -31 -1 -60)" wide
rc=0; timeout 20 "${cmd[@]}" convert dpll2res wide.cnf wide.dpll 2> wide.err || rc=$?
test "$rc" -eq 1
grep -qxF "error: translating the derivation takes more than $(wc -c < wide.dpll) steps" wide.err
echo "cli smoke: ok"
