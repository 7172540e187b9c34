#!/usr/bin/env bash
# Smoke test for the goalrec command-line tool: generates a small FoodMart
# library, converts it text -> .snap -> text and checks the statistics agree
# at every step, runs `recommend` and `spaces` on it, serves a library with
# a malformed record in quarantine mode, and checks that a malformed flag
# value exits 2 with a message naming the flag.
#
#   tests/tools/goalrec_cli_smoke.sh <path to goalrec> <work dir>
set -euo pipefail

goalrec=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$goalrec" generate foodmart --scale=small --seed=3 --out="$dir/fm" >/dev/null
lib="$dir/fm.library.txt"

"$goalrec" convert "$lib" "$dir/fm.snap" >/dev/null
[[ "$(head -c 8 "$dir/fm.snap")" == "GRSNAP1" ]] ||
  fail "convert to .snap did not write a snapshot"
"$goalrec" convert "$dir/fm.snap" "$dir/fm.round.txt" >/dev/null
stats=$("$goalrec" stats "$lib")
[[ -n "$stats" ]] || fail "stats printed nothing"
[[ "$("$goalrec" stats "$dir/fm.snap")" == "$stats" ]] ||
  fail "statistics differ after text -> .snap"
[[ "$("$goalrec" stats "$dir/fm.round.txt")" == "$stats" ]] ||
  fail "statistics differ after text -> .snap -> text"

# An activity made of the first implementation's first two actions.
actions=$(sed -n 2p "$lib" | cut -f2,3 | tr '\t' ',')
"$goalrec" recommend "$lib" --actions="$actions" --k=5 \
    --strategy=best_match >"$dir/recommend.out"
grep -q '^ 1\. ' "$dir/recommend.out" || fail "recommend listed nothing"
"$goalrec" spaces "$dir/fm.snap" --actions="$actions" >"$dir/spaces.out"
grep -q '^implementation space ([1-9]' "$dir/spaces.out" ||
  fail "spaces printed no implementation space"

# `serve --load_mode=quarantine` reports what it dropped, and its `reload`
# command loads under the same mode.
bad="$dir/bad.library.txt"
{ cat "$lib"; printf 'goal_without_actions\n'; } >"$bad"
printf 'reload\nstatus\nquit\n' |
  "$goalrec" serve "$bad" --load_mode=quarantine >"$dir/serve.out" \
      2>"$dir/serve.err"
grep -q '^load report: .* 1 quarantined' "$dir/serve.err" ||
  fail "serve did not print its load report"
grep -q 'reloaded .* as v' "$dir/serve.out" ||
  fail "serve reload ignored --load_mode=quarantine: $(cat "$dir/serve.out")"

for flag in --admission_limit=abc --retry_attempts=zz --k=abc --explain=maybe; do
  code=0
  "$goalrec" recommend "$lib" --actions="$actions" "$flag" \
      >/dev/null 2>"$dir/err" || code=$?
  [[ $code == 2 ]] || fail "$flag exited $code, want 2"
  grep -q -- "${flag%%=*} expects" "$dir/err" ||
    fail "$flag: error does not name the flag: $(cat "$dir/err")"
done
echo "OK: goalrec CLI smoke"
