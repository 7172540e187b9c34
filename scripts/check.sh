#!/usr/bin/env bash
# Builds the tree and runs the full test suite under ASan+UBSan
# (-DGOALREC_SANITIZE=ON), then the concurrency-relevant tests (src/obs/
# sharded metrics, trace propagation, engine serving path, thread pool)
# under ThreadSanitizer (-DGOALREC_TSAN=ON). Pass --plain to also run the
# normal (non-sanitized) build and the benchmark driver build first. See
# CONTRIBUTING.md.
#
#   scripts/check.sh [--plain] [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

GENERATOR_ARGS=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR_ARGS=(-G Ninja)
fi

run_suite() {
  local build_dir=$1; shift
  # A configured tree keeps its generator: CMake refuses to switch it, and
  # the Tier-1 command configures build/ with the platform default.
  local generator_args=("${GENERATOR_ARGS[@]}")
  if [[ -f "$build_dir/CMakeCache.txt" ]]; then generator_args=(); fi
  cmake -B "$build_dir" -S . "${generator_args[@]}" "$@" >/dev/null
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "${CTEST_ARGS[@]}"
}

run_perfbench_build() {
  # The benchmark driver (perfbench/) compiles src/ as its own CMake package,
  # so no other step builds it: an API change that breaks it would show only
  # when the benchmark runs. Build only; the benchmark is perfbench/run.py.
  echo "=== benchmark driver build (build-perfbench/) ==="
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-perfbench --target goalrec_bench -j "$(nproc)"
}

run_fuzz_smoke() {
  local build_dir=$1
  # Differential fuzz smoke: optimized strategies vs the naive reference
  # oracle on a fixed seed (2700 checks, Best Match under all six variants;
  # well under 2 s). Exits non-zero — with a shrunk repro file — on any
  # divergence. See docs/testing.md.
  echo "=== fuzz smoke ($build_dir) ==="
  "$build_dir/src/tools/goalrec_fuzz" --seed=42 --rounds=300 --quiet \
      --out="$build_dir"
}

run_runall_hashes() {
  local build_dir=$1
  # Answer fingerprint (bench/runall_hashes.cc): one hash per eval::Suite
  # roster method and per allocating goal-based Recommend over fixed
  # FoodMart carts. Exits non-zero when RunAll at 4 threads answers
  # differently from RunAll at 1 thread. Diff its output across two
  # commits to show a refactor left every answer bit-identical.
  echo "=== RunAll hashes ($build_dir) ==="
  "$build_dir/bench/runall_hashes"
}

run_shard_smoke() {
  local build_dir=$1
  # Open-loop duration per sweep point in ms. Sanitized trees pass a longer
  # one below: the Poisson generator keeps real-time pacing, so a sanitizer-
  # slowed server needs a longer horizon for the shed/serve split to settle
  # (the bit-identity and crash-freedom checks are duration-independent).
  local duration_ms=${2:-250}
  # Sharded-serving smoke (docs/serving.md "Sharded serving"): first the
  # shard differential wall — every strategy fanned across shards must be
  # bit-identical to the single-scan reference, pooled and allocating, plus
  # the shard-count metamorphic sweep — then a short open-loop run of the
  # Poisson overload bench (bench/micro_overload.cc) across shard counts.
  # The TSan tree is trimmed to cross-thread tests and does not build the
  # wall binary; there the fan-out/merge + atomic all-shard-swap race
  # surface gates instead (serve_sharded_reload_test). Acceptance-grade
  # numbers live in BENCH_overload.json from a full run.
  echo "=== shard smoke ($build_dir) ==="
  if [[ -x "$build_dir/tests/oracle_sharded_test" ]]; then
    "$build_dir/tests/oracle_sharded_test" --gtest_brief=1
  else
    "$build_dir/tests/serve_sharded_reload_test" --gtest_brief=1
  fi
  "$build_dir/bench/micro_overload" --smoke --duration_ms="$duration_ms" \
      >/dev/null
}

run_chaos_suite() {
  local build_dir=$1
  # Chaos suite for the hardened data plane (docs/data_plane.md): first the
  # malformed-input fuzz corpus for the library parsers (truncations, giant
  # declared counts, duplicate ids, non-UTF8 junk — the loaders must return
  # a Status, never crash; under ASan a stray read is a hard failure), then
  # a short chaos_reload run hammering snapshot reload with injected
  # filesystem faults under concurrent query load. chaos_reload exits
  # non-zero if a torn snapshot is ever served or the server fails to
  # converge back to a good library; the recorded acceptance run lives in
  # BENCH_chaos.json.
  echo "=== chaos suite ($build_dir) ==="
  "$build_dir/tests/model_library_fuzz_test" --gtest_brief=1
  "$build_dir/bench/chaos_reload" --smoke >/dev/null
}

run_snapshot_smoke() {
  local build_dir=$1
  # Snapshot smoke (bench/micro_snapshot.cc): library build + snapshot wrap,
  # per-query allocation counts, and a swap-under-load sweep. The binary
  # exits non-zero if the pooled query path allocates in steady state, so
  # this run is the zero-allocation regression gate; the recorded numbers
  # live in BENCH_snapshot.json. See docs/serving.md ("Library hot reload").
  echo "=== snapshot smoke ($build_dir) ==="
  "$build_dir/bench/micro_snapshot" --smoke >/dev/null
}

run_query_smoke() {
  local build_dir=$1
  # Scoring-kernel smoke (bench/micro_query.cc): a short run of the
  # branch-lean per-strategy query kernels on a reduced workload, followed by
  # the kernel differential wall — every strategy vs the naive reference on
  # the full adversarial shape sweep. micro_query exits non-zero if the
  # pooled kernels allocate in steady state; the differential binary exits
  # non-zero on any bit divergence (under ASan/UBSan this doubles as a
  # memory-safety pass over the kernels' epoch-stamped scratch arrays). The
  # acceptance-grade numbers live in BENCH_query.json. See docs/model.md
  # ("Scoring kernels").
  echo "=== query kernel smoke ($build_dir) ==="
  "$build_dir/bench/micro_query" --smoke >/dev/null
  "$build_dir/tests/oracle_differential_test" --gtest_brief=1
}

run_obs_smoke() {
  local build_dir=$1
  # Overhead gate in percent. 3% is the production gate; sanitized trees
  # pass a wider one below — instrumentation taxes the recorder's atomic
  # ring writes far more than the scoring arithmetic around them, so the
  # relative overhead stops reflecting production cost. The zero-allocation
  # and exemplar-decode checks are limit-independent and always enforced.
  local limit_pct=${2:-3}
  # Observability smoke (bench/micro_recorder.cc): the flight-recorder
  # overhead gate — enabled vs disabled on the BestMatch pooled hot path,
  # exits non-zero when the delta exceeds the gate or the steady state
  # allocates — plus the end-to-end tail-exemplar check: a latency-burst
  # fault injector forces slow queries, which must land in the
  # ExemplarReservoir with a decodable recorder slice listed on the statusz
  # page. The recorded acceptance run lives in BENCH_obs.json. See
  # docs/observability.md.
  echo "=== obs smoke ($build_dir) ==="
  "$build_dir/bench/micro_recorder" --smoke \
      --overhead_limit_pct="$limit_pct" >/dev/null
}

run_delta_smoke() {
  local build_dir=$1
  # Recovery-latency budget in ms. The 250 ms production budget only makes
  # sense on an uninstrumented build; sanitized trees pass a wider one below
  # (the correctness invariants — no torn views, rollback to the last
  # durable prefix — are budget-independent and always enforced).
  local budget_ms=${2:-250}
  # Delta-segment smoke (docs/data_plane.md "Delta segments & compaction"):
  # the delta oracle differential (merged base+delta view must be
  # bit-identical to a from-scratch rebuild across randomized
  # append/tombstone/compaction schedules, all four strategies), then a
  # short chaos_reload --mode=delta run: hostile ".sdelta" publishes (torn,
  # bit-flipped, rename-delayed) interleaved with compactions against a
  # polling reader under query load. chaos_reload exits non-zero if a torn
  # view is ever served, rollback misses the last durable prefix, or
  # recovery p99 blows its budget; the recorded acceptance runs live in
  # BENCH_chaos.json and BENCH_delta.json.
  echo "=== delta smoke ($build_dir) ==="
  "$build_dir/tests/oracle_delta_oracle_test" --gtest_brief=1
  "$build_dir/bench/chaos_reload" --mode=delta --smoke \
      --recovery_budget_ms="$budget_ms" >/dev/null
}

# Every repository path the Markdown docs name must exist.
echo "=== documentation references ==="
scripts/check_refs.sh

CTEST_ARGS=()
PLAIN=0
for arg in "$@"; do
  if [[ "$arg" == "--plain" ]]; then PLAIN=1; else CTEST_ARGS+=("$arg"); fi
done

if [[ "$PLAIN" == 1 ]]; then
  echo "=== plain build + ctest (build/) ==="
  run_suite build
  run_perfbench_build
  run_fuzz_smoke build
  run_runall_hashes build
  run_shard_smoke build
  run_snapshot_smoke build
  run_query_smoke build
  run_obs_smoke build
  run_chaos_suite build
  run_delta_smoke build
fi

echo "=== ASan+UBSan build + ctest (build-asan/) ==="
run_suite build-asan -DGOALREC_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
run_fuzz_smoke build-asan
run_shard_smoke build-asan 1000   # ~4x horizon: ASan slows the ladder rungs
run_snapshot_smoke build-asan
run_query_smoke build-asan
run_obs_smoke build-asan 10   # ASan shadow-memory tax on the ring writes
run_chaos_suite build-asan
run_delta_smoke build-asan 1000   # ~4x budget: ASan slows fsync-heavy recovery

# TSan is mutually exclusive with ASan, so it gets its own tree. The test
# registration in tests/CMakeLists.txt trims this build to the tests that
# actually exercise cross-thread state (metric shards, trace activation,
# pool queues); single-threaded tests add nothing under TSan.
echo "=== TSan build + ctest (build-tsan/) ==="
# The suppressions file documents the one known false positive (libstdc++'s
# atomic<shared_ptr> internal spin lock, hit by SnapshotManager).
export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan_suppressions.txt ${TSAN_OPTIONS:-}"
run_suite build-tsan -DGOALREC_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
# The recorder's lock-free rings and the exemplar fast path are exactly the
# kind of code TSan exists for, so the obs smoke runs here too. The overhead
# gate is opened wide: TSan instruments every ring-buffer atomic while
# leaving the scoring arithmetic nearly untouched, so the enabled/disabled
# delta lands around 25% regardless of production cost — here the smoke
# gates the race-freedom, zero-alloc, and exemplar-decode checks.
run_obs_smoke build-tsan 50
# The delta pipeline is writer-appends / reader-polls / queries-race-swaps —
# cross-thread by construction, so its smoke runs under TSan too. TSan's
# ~5-20x slowdown makes the production recovery budget meaningless here, so
# only the correctness invariants gate — the budget is opened wide.
run_delta_smoke build-tsan 5000
# The shard fan-out is pool tasks writing per-shard partials joined by a
# root merge — the race surface TSan exists for. The numbers are
# meaningless under TSan; this gates data-race freedom of the fan-out,
# merge, and all-shard snapshot swap under real concurrent load.
run_shard_smoke build-tsan 2000
echo "OK: sanitized test suites green (ASan+UBSan, TSan)"
