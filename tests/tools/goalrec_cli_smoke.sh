#!/usr/bin/env bash
# Smoke test for the goalrec command-line tool: generates a small FoodMart
# library, converts it text -> .snap -> text and checks the statistics agree
# at every step, evaluates the generated library and activities with the full
# roster (also into a report directory it has to create), runs `recommend` and `spaces` on it, serves a library with
# a malformed record in quarantine mode (initial load and reload both print
# their load report), checks that 1 and 2 shards serve identical answers,
# that `delta append` refuses a malformed implementation id, that
# --watch_library picks up a replaced file, and that a malformed or
# out-of-range flag value, or a flag the command does not take, exits 2
# with a message naming the flag.
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

# The generated pair is self-consistent: every action a cart names is in the
# saved library, so `evaluate` runs the whole roster and writes its reports
# (into a directory that already exists).
mkdir -p "$dir/reports"
"$goalrec" evaluate "$lib" "$dir/fm.activities.csv" --out="$dir/reports" \
    >"$dir/evaluate.out" 2>"$dir/evaluate.err" ||
  fail "evaluate failed: $(cat "$dir/evaluate.err")"
grep -q '^--- true-positive rate vs hidden actions ---' "$dir/evaluate.out" ||
  fail "evaluate printed no TPR table: $(cat "$dir/evaluate.out")"
ls "$dir/reports"/*.csv >/dev/null 2>&1 ||
  fail "evaluate wrote no CSV report into $dir/reports"
# --out creates a report directory that does not exist yet, parents included
# (a few users keep this second run short).
head -n 200 "$dir/fm.activities.csv" >"$dir/fm.few.csv"
"$goalrec" evaluate "$lib" "$dir/fm.few.csv" --out="$dir/new/nested/reports" \
    >/dev/null 2>"$dir/evaluate_new.err" ||
  fail "evaluate into a new directory failed: $(cat "$dir/evaluate_new.err")"
[[ -s "$dir/new/nested/reports/tpr.csv" ]] ||
  fail "evaluate wrote no tpr.csv into the new directory"

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
[[ $(grep -c '^load report: .* 1 quarantined' "$dir/serve.err") == 2 ]] ||
  fail "serve did not print the load report of its load and its reload:" \
      "$(cat "$dir/serve.err")"
grep -q 'reloaded .* as v' "$dir/serve.out" ||
  fail "serve reload ignored --load_mode=quarantine: $(cat "$dir/serve.out")"

# One shard (the default) serves the plain kernels, two fan out; both answer
# the same activity identically. --shards=0 is not a deployment.
first_action=${actions%%,*}
for shards in default 2; do
  shard_flag=()
  [[ $shards == default ]] || shard_flag=(--shards="$shards")
  printf 'perform %s\nrecommend 5\nquit\n' "$first_action" |
    "$goalrec" serve "$lib" --strategy=best_match "${shard_flag[@]}" \
        >"$dir/serve_$shards.out" 2>/dev/null
done
grep -q '([0-9.-]*)$' "$dir/serve_default.out" ||
  fail "serve recommended nothing: $(cat "$dir/serve_default.out")"
diff "$dir/serve_default.out" "$dir/serve_2.out" >/dev/null ||
  fail "1 and 2 shards answered differently:" \
      "$(diff "$dir/serve_default.out" "$dir/serve_2.out")"
code=0
"$goalrec" serve "$lib" --shards=0 </dev/null >/dev/null 2>"$dir/err" ||
  code=$?
[[ $code == 2 ]] || fail "--shards=0 exited $code, want 2"
grep -q -- '--shards' "$dir/err" ||
  fail "--shards=0: error does not name the flag: $(cat "$dir/err")"

# `delta append` refuses a malformed implementation id instead of
# tombstoning implementation 0.
"$goalrec" delta init "$lib" "$dir/delta" >/dev/null
code=0
"$goalrec" delta append "$dir/delta" --tombstone_impls=3,x7 \
    >/dev/null 2>"$dir/err" || code=$?
[[ $code == 2 ]] || fail "--tombstone_impls=3,x7 exited $code, want 2"
grep -q -- '--tombstone_impls' "$dir/err" ||
  fail "--tombstone_impls: error does not name the flag: $(cat "$dir/err")"
"$goalrec" delta status "$dir/delta" | grep -q 'tombstoned: impls=0 ' ||
  fail "a refused append still tombstoned: $("$goalrec" delta status "$dir/delta")"

# --watch_library reloads a library file replaced under it, once.
watched="$dir/watched.library.txt"
cp "$lib" "$watched"
{
  echo status
  sleep 0.5
  cp "$lib" "$watched.tmp" && mv "$watched.tmp" "$watched"
  sleep 1
  echo status
  echo quit
} | "$goalrec" serve "$watched" --watch_library --watch_interval_ms=100 \
    >"$dir/watch.out" 2>/dev/null
grep -q ', 1 reloads)' "$dir/watch.out" ||
  fail "--watch_library missed the replaced file: $(cat "$dir/watch.out")"

for flag in --deadline_ms=abc --retry_attempts=zz --k=abc --explain=maybe \
    --k=0 --trace_sample_rate=2; do
  code=0
  "$goalrec" recommend "$lib" --actions="$actions" "$flag" \
      >/dev/null 2>"$dir/err" || code=$?
  [[ $code == 2 ]] || fail "$flag exited $code, want 2"
  grep -q -- "${flag%%=*} expects" "$dir/err" ||
    fail "$flag: error does not name the flag: $(cat "$dir/err")"
done

# A flag the command does not take exits 2 before anything runs: a typo,
# and an overload flag `recommend` no longer has.
for flag in --strategey=best_match --admission_limit=8; do
  code=0
  "$goalrec" recommend "$lib" --actions="$actions" "$flag" \
      >"$dir/out" 2>"$dir/err" || code=$?
  [[ $code == 2 ]] || fail "$flag exited $code, want 2"
  [[ ! -s "$dir/out" ]] || fail "$flag: recommend ran anyway"
  grep -q -- "unknown flag ${flag%%=*}" "$dir/err" ||
    fail "$flag: error does not name the flag: $(cat "$dir/err")"
done
echo "OK: goalrec CLI smoke"
