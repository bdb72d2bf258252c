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
# PHP(5,4)'s proof repeats its node heads: the parser decodes
# each distinct piece of text once, here one token per line
dpllkit gen php 5 4 --out php54.cnf
rc=0; dpllkit solve php54.cnf --out php54.dpll || rc=$?
test "$rc" -eq 20
tr ' ' '\n' < php54.dpll > php54-lines.dpll
test "$(dpllkit check dpll php54.cnf php54-lines.dpll)" = valid
dpllkit convert dpll2res php54.cnf php54-lines.dpll --out php54.res
test "$(dpllkit check res php54.cnf php54.res)" = valid
rc=0; python -m dpllkit solve --mode decide php32.cnf || rc=$?
test "$rc" -eq 20
# unsorted and repeated literals, and one clause twice: the clauses
# are canonicalized once, and the proof is pinned
printf 'p cnf 2 5\n2 1 1 0\n1 2 0\n-1 2 0\n1 -2 0\n-2 -1 0\n' > messy.cnf
rc=0; dpllkit solve messy.cnf --out messy.dpll || rc=$?
test "$rc" -eq 20
grep -qxF '(split 1 (elim [ 1 2 ] 1 (red [ -1 2 ] 1 (elim [ 1 -2 ] 1 (red [ -1 -2 ] 1 (unit 2 (red [ -2 ] 2 conflict)))))) (red [ 1 2 ] -1 (elim [ -1 2 ] -1 (red [ 1 -2 ] -1 (elim [ -1 -2 ] -1 (unit 2 (red [ -2 ] 2 conflict)))))))' messy.dpll
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
echo "cli smoke: ok"
