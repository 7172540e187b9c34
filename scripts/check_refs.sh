#!/usr/bin/env bash
# Dangling-reference check for the documentation: fails when a Markdown file
# names a repository path under bench/ src/ tests/ scripts/ docs/
# perfbench/ or examples/, or a BENCH_*.json file, that does not exist. It
# also fails when a BENCH_*.json record at the root is not one valid JSON
# document.
#
#   scripts/check_refs.sh
#
# A path is taken as written from the repository root: `bench/x` may also
# resolve to `bench/x.cc` (or `.cpp`), `{a,b}` lists and `*` globs are
# expanded, and anything inside another path (build/bench/x, $dir/tests/y,
# ../src) is skipped, since build trees are not in the repo.
# Only the documentation is checked: the top-level guides listed below and
# every Markdown file under docs/, perfbench/ and .claude/skills/. The change
# log records artefacts that were since removed, and PAPERS.md / SNIPPETS.md
# quote other repositories, so those are not checked; a new top-level guide
# is added to the list.
set -euo pipefail

cd "$(dirname "$0")/.."

readonly PREFIX='(bench|src|tests|scripts|docs|perfbench|examples)/'

# True if the path `$1` exists, as written or as a C++ source.
exists() {
  [[ -e "$1" || -e "$1.cc" || -e "$1.cpp" ]]
}

# True if the reference `$1` names something that exists. Brace lists and
# globs resolve only if every expansion exists.
resolves() {
  local ref=$1 path
  local -a paths
  if [[ "$ref" != *[{*]* ]]; then
    exists "$ref"
    return
  fi
  eval "paths=($ref)" 2>/dev/null || return 1
  for path in "${paths[@]}"; do
    exists "$path" || return 1
  done
}

# Tracked and new documentation files; outside a git checkout this fails
# loudly rather than checking nothing.
docs=$(git ls-files --cached --others --exclude-standard -- \
         README.md CONTRIBUTING.md DESIGN.md EXPERIMENTS.md ROADMAP.md \
         PAPER.md 'docs/**.md' 'perfbench/**.md' '.claude/skills/**.md' |
       sort -u)

status=0
while IFS= read -r md; do
  # Path-like tokens with their line numbers. The token is as long as the
  # path characters run, so `build/bench/x` stays one token and is skipped.
  while IFS=: read -r line token; do
    token=${token%%#*}                   # drop a Markdown anchor
    token=$(sed -E 's/[.,;:)]+$//' <<<"$token")
    token=${token#./}
    if [[ "$token" =~ ^$PREFIX ||
          "$token" =~ ^BENCH_[A-Za-z0-9_]+\.json$ ]]; then
      if ! resolves "$token"; then
        echo "$md:$line: dangling reference '$token'" >&2
        status=1
      fi
    fi
  done < <(grep -noE '[A-Za-z0-9_.$/{},*#-]*(bench|src|tests|scripts|docs|perfbench|examples|BENCH_)[A-Za-z0-9_.$/{},*#-]*' "$md" || true)
done <<<"$docs"

for record in BENCH_*.json; do
  [[ -e "$record" ]] || continue
  if ! python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
      "$record" 2>/dev/null; then
    echo "$record: not one valid JSON document" >&2
    status=1
  fi
done

if [[ $status == 0 ]]; then
  echo "OK: every documented repository path exists and every record parses"
fi
exit $status
