#!/usr/bin/env bash
# CI gate: build everything, lint the whole workspace, tests and
# benches included, with clippy (warnings are errors), run the whole
# test suite (with a named-suite guard so lost --workspace coverage
# fails loudly),
# smoke-run the hot-path microbenches, check the headline numbers
# against results/headline.txt, then regenerate all figures at
# quick scale through `runall`, the one figure driver. Every figure's
# .json, .csv and .txt are compared byte for byte (`same_bytes`). Fails
# if any expected artefact is missing, if disabling the world-snapshot
# cache changes any artefact byte, if a seeded replay of the faults,
# churn or cluster figure does not reproduce it, if any scheduler width
# changes any artefact byte (quick scale at --jobs 2; full scale at
# --jobs 1/2/8 against the committed sequential reference in
# results/), if the full-scale sequential wall
# regressed >1.5x above the committed baseline, if runner throughput
# collapsed (>5x below the committed baseline in results/bench_runner.json — a
# coarse band that only trips on real regressions, not
# machine-to-machine noise), if the density hot path allocates again
# (deterministic allocs/event > 1.0; the allocation-free request path
# landed at 0.432), or if a world fork or cluster-host stamp allocates
# O(guests) again (exact allocation calls and bytes, absolute bounds).
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, workspace) =="
cargo build --release --workspace

echo "== clippy (whole workspace, all targets; warnings are errors) =="
cargo clippy --release --offline --workspace --all-targets -- -D warnings

echo "== tests (workspace) =="
test_log="$(mktemp)"
cargo test --workspace 2>&1 | tee "$test_log"
# Suite guard: a botched invocation (or a workspace edit that drops a
# crate or a test file from the build) silently shrinks coverage. Every
# suite named here must run and pass at least one test, and the
# workspace must pass at least MIN_TESTS tests in all. A suite is named
# by its test binary (`Running …/<name>-<hash>)`) or as doc:<crate>
# (`Doc-tests <crate>`); `determinism` is listed twice, once for the
# bench crate and once for the root crate. Suites with no tests are
# not listed.
REQUIRED_SUITES="bench runall determinism proptest_cluster container criterion
  devices guests hypervisor proptest_hv lightvm determinism end_to_end
  fault_injection paper_claims lvnet metrics proptest_stats noxs simcore
  proptest_cpu proptest_engine proptest_time tinyx proptest_tinyx toolstack
  proptest_churn proptest_config proptest_digest proptest_faults
  proptest_snapshot xenstore proptest_store doc:lightvm doc:simcore
  fork_cost"
MIN_TESTS=482
# One "<suite> <passed>" line per suite that ran.
suite_counts=$(awk '
  /^ *Running / { n = $NF; sub(/\)$/, "", n); sub(/.*\//, "", n); sub(/-[0-9a-f]+$/, "", n) }
  /^ *Doc-tests / { n = "doc:" $2 }
  /^test result: ok\./ { print n, $4 }' "$test_log")
rm -f "$test_log"
missing_suites=$(comm -23 <(printf '%s\n' $REQUIRED_SUITES | sort) \
  <(awk '$2 > 0 { print $1 }' <<< "$suite_counts" | sort))
total_tests=$(awk '{ s += $2 } END { print s + 0 }' <<< "$suite_counts")
echo "workspace tests: $total_tests passed (guard: >= $MIN_TESTS, $(wc -w <<< "$REQUIRED_SUITES") named suites)"
if [ -n "$missing_suites" ]; then
  echo "ci: named test suite(s) missing or empty:" $missing_suites >&2
  exit 1
fi
if [ "$total_tests" -lt "$MIN_TESTS" ]; then
  echo "ci: only $total_tests tests passed — workspace coverage lost (expected >= $MIN_TESTS)" >&2
  exit 1
fi

echo "== benchmark harness self-test (perfbench) =="
# perfbench is a package of its own, outside the workspace, so the
# workspace build and tests above never compile it. The self-test runs
# every workload at quick scale, timed and traced, and checks that every
# metric BENCHMARK.json names is printed and that a corrupted artefact
# and a corrupted churn world are reported as failures.
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test

echo "== microbenches (quick smoke: scheduler + xenstore hot paths) =="
LIGHTVM_BENCH_QUICK=1 cargo bench -p bench --bench hotpath
LIGHTVM_BENCH_QUICK=1 cargo bench -p bench --bench simcore_hot

echo "== headline numbers (headline vs committed results/headline.txt) =="
# The headline numbers quoted in EXPERIMENTS.md and README.md are what
# `headline` prints; the committed copy must stay byte-equal to it.
headline_out="$(mktemp)"
cargo run --release -q -p bench --bin headline > "$headline_out"
if ! cmp -s results/headline.txt "$headline_out"; then
  echo "ci: headline output differs from results/headline.txt" >&2
  diff results/headline.txt "$headline_out" >&2 || true
  rm -f "$headline_out"
  exit 1
fi
rm -f "$headline_out"

# Every figure runall writes, in registry order (`runall --list`).
FIG_IDS="fig01 fig02 fig04 fig05 fig09 fig10 fig11 fig12a fig12b fig13
  fig14 fig15 fig16a fig16b fig16c fig17 fig18 ablations faults churn cluster"

# same_bytes DIR_A DIR_B WHAT [ID...]: every listed figure (default: all
# of FIG_IDS) has a non-empty .json, .csv and .txt in DIR_A, and DIR_B
# holds the same bytes. WHAT names the comparison in the failure.
same_bytes() {
  local a=$1 b=$2 what=$3 id ext
  shift 3
  for id in ${*:-$FIG_IDS}; do
    for ext in json csv txt; do
      if [ ! -s "$a/$id.$ext" ]; then
        echo "ci: MISSING $a/$id.$ext" >&2
        exit 1
      fi
      if ! cmp -s "$a/$id.$ext" "$b/$id.$ext"; then
        echo "ci: $id.$ext differs: $what ($a vs $b)" >&2
        exit 1
      fi
    done
  done
}

# runall_quick DIR ARGS...: a quick-scale runall writing its figures and
# perf report into DIR (never over results/bench_runner.json).
runall_quick() {
  local dir=$1
  shift
  LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$dir" \
    cargo run --release -p bench --bin runall -- "$@" --report "$dir/bench_runner.json"
}

echo "== figures (runall, quick scale, --seq reference) =="
FIG_DIR="${LIGHTVM_FIG_DIR:-target/ci-figures}"
runall_quick "$FIG_DIR" --seq
if [ ! -s "$FIG_DIR/bench_runner.json" ]; then
  echo "ci: MISSING $FIG_DIR/bench_runner.json" >&2
  exit 1
fi

echo "== artefact check + scheduler determinism gate (quick, --jobs 2 vs --seq) =="
# The DAG scheduler must be invisible in the artefacts: the same quick
# run on two workers — chains, probe walks and units genuinely
# interleaving — must reproduce the sequential reference byte for byte.
# same_bytes also fails on any artefact missing from the reference.
runall_quick "$FIG_DIR/jobs2" --jobs 2 > /dev/null
same_bytes "$FIG_DIR" "$FIG_DIR/jobs2" "--seq vs --jobs 2"

echo "== fault determinism gate (same seed => same artefact) =="
# The fault plan is seeded: replaying the faults figure alone (quick
# scale, a second runall process) must reproduce the reference run's
# artefacts byte for byte.
runall_quick "$FIG_DIR/faults-replay" --filter faults > /dev/null
same_bytes "$FIG_DIR" "$FIG_DIR/faults-replay" "faults replay" faults

echo "== churn smoke gate (replay bytes + census plateau) =="
# The churn soak (DESIGN.md §6i) is seeded the same way: replaying it
# alone at quick scale must reproduce the reference run's artefacts
# byte for byte. The units already assert zero digest/census drift
# internally (a leak panics the run); the gates below re-check the
# published meta so a weakened assertion can't slip through.
runall_quick "$FIG_DIR/churn-replay" --filter churn > /dev/null
same_bytes "$FIG_DIR" "$FIG_DIR/churn-replay" "churn replay" churn
# Census-plateau gate: every unit's leak meta — digest drift, census
# drift, last-window arena/interner growth, teardown errors — must be
# exactly "0", and all 6 units must have published each key.
for key in digest_drift census_drift arena_growth_last \
           interner_growth_last teardown_errors; do
  hits=$(grep -c "_$key\": \"0\"" "$FIG_DIR/churn.json" || true)
  if [ "$hits" -ne 6 ]; then
    echo "ci: churn census gate: expected 6 zero $key entries, got $hits" >&2
    grep "_$key\"" "$FIG_DIR/churn.json" >&2 || true
    exit 1
  fi
done
echo "churn: 6 units leak-free (digest, census, arena, interner, teardown)"

echo "== cluster determinism gate (replay bytes + shard widths) =="
# The cluster figure couples thousands of fork-stamped hosts through
# the sharded conservative-lookahead executor (DESIGN.md §6j). A
# replay of the cluster figure alone must reproduce the reference
# run's bytes; runall's --jobs also sets the shard worker pool width,
# which must be invisible in the artefacts too.
for J in 1 2 8; do
  runall_quick "$FIG_DIR/cluster-j$J" --filter cluster --jobs "$J" > /dev/null
  same_bytes "$FIG_DIR" "$FIG_DIR/cluster-j$J" "cluster replay at --jobs $J" cluster
done
# Evacuation hygiene: both evac units must record zero digest and
# census drift across the surviving hosts (the units assert it too;
# this catches a weakened assertion).
for key in evac_digest_drift evac_census_drift; do
  hits=$(grep -c "$key\": \"0\"" "$FIG_DIR/cluster.json" || true)
  if [ "$hits" -ne 2 ]; then
    echo "ci: cluster evac gate: expected 2 zero $key entries, got $hits" >&2
    grep "$key\"" "$FIG_DIR/cluster.json" >&2 || true
    exit 1
  fi
done
echo "cluster: byte-identical at shard widths 1/2/8, evac units leak-free"

echo "== snapshot-cache gate (cached vs --no-snapshot-cache) =="
# Figure units share worlds through bench::worldcache (snapshot/fork
# chains + memoized probe walks). Caching must be invisible in the
# artefacts: re-running with the cache disabled — every unit
# re-simulates its world from scratch — must reproduce the cached
# run's bytes exactly.
runall_quick "$FIG_DIR/nocache" --no-snapshot-cache > /dev/null
same_bytes "$FIG_DIR" "$FIG_DIR/nocache" "snapshot cache disabled"

echo "== fault-free baseline gate (full scale vs committed results/) =="
# With the fault plan inactive the injection layer must consume zero
# RNG draws and charge nothing: every committed figure artefact —
# including the faults sweep itself, whose seed is fixed — stays byte
# identical. Full (non-quick) scale, since that is what results/ holds,
# and at every scheduler width that matters: the committed artefacts
# are the sequential reference, so --jobs 1, 2 and 8 matching them is
# the full-scale byte-identity guarantee.
for J in 1 2 8; do
  FULL_DIR="$FIG_DIR/full-j$J"
  LIGHTVM_FIG_DIR="$FULL_DIR" \
    cargo run --release -p bench --bin runall -- --jobs "$J" \
    --report "$FULL_DIR/bench_runner.json"
  same_bytes results "$FULL_DIR" "full scale --jobs $J vs committed results/"
done

echo "== cluster scale gate (committed results/cluster.json) =="
# The density ladder must actually reach datacenter scale: summed over
# the committed artefact's units, >= 1000 hosts stamped and >= 100000
# guests running. (The ladder alone contributes 1111 hosts per mode at
# full scale.)
sum_meta() {
  grep -o "\"[^\"]*_$1\": \"[0-9]*\"" results/cluster.json \
    | grep -o '[0-9]*"$' | tr -d '"' | awk '{s+=$1} END {print s+0}'
}
hosts_total=$(sum_meta hosts)
guests_total=$(sum_meta guests)
echo "cluster scale: $hosts_total hosts, $guests_total guests (gate: >= 1000 / >= 100000)"
if [ "$hosts_total" -lt 1000 ] || [ "$guests_total" -lt 100000 ]; then
  echo "ci: cluster figure below datacenter scale ($hosts_total hosts, $guests_total guests)" >&2
  exit 1
fi

echo "== wall gate (full scale, --jobs 1) =="
# Gate the fresh full-scale sequential wall against the committed
# baseline with a 1.5x noise band — wide enough for machine-to-machine
# variance, tight enough to catch a hot path (the incremental world
# digest of DESIGN.md §6h, the closed-form name check of §6k) going
# accidentally O(world) again.
# grep -m1, not `| head -1`: the report holds a wall_ms per unit, and
# head exiting early would SIGPIPE grep and fail the pipeline.
extract_wall() {
  grep -m1 -o '"wall_ms": *[0-9.]*' "$1" | grep -o '[0-9.]*$'
}
if [ -s results/bench_runner.json ]; then
  wall_base=$(extract_wall results/bench_runner.json)
  wall_fresh=$(extract_wall "$FIG_DIR/full-j1/bench_runner.json")
  echo "full-scale wall (--jobs 1): $wall_fresh ms fresh vs $wall_base ms committed (gate: <= 1.5x)"
  if ! awk -v f="$wall_fresh" -v b="$wall_base" 'BEGIN { exit !(f <= b * 1.5) }'; then
    echo "ci: full-scale sequential wall regressed >1.5x above committed baseline" >&2
    exit 1
  fi
else
  echo "ci: no committed baseline (results/bench_runner.json), skipping gate"
fi

echo "== throughput gate (aggregate_events_per_sec) =="
# Covers the cluster units too: their simulated events (hundreds of
# thousands of host-world events per run) land in the same report, so
# an events/s collapse in the sharded executor trips this gate.
extract_rate() {
  grep -m1 -o '"aggregate_events_per_sec": *[0-9.]*' "$1" | grep -o '[0-9.]*$'
}
if [ -s results/bench_runner.json ]; then
  baseline=$(extract_rate results/bench_runner.json)
  fresh=$(extract_rate "$FIG_DIR/bench_runner.json")
  echo "baseline: $baseline events/s (committed), fresh: $fresh events/s (quick run)"
  if ! awk -v f="$fresh" -v b="$baseline" 'BEGIN { exit !(f * 5.0 >= b) }'; then
    echo "ci: runner throughput regressed >5x below committed baseline" >&2
    exit 1
  fi
else
  echo "ci: no committed baseline (results/bench_runner.json), skipping gate"
fi

echo "== allocation gate (density allocs/event) =="
# The `allocs` binary replays the density hot path (200 guest creates
# under xl, ~15 ms) with the counting global allocator installed. The
# simulation is deterministic, so the count is exact and the band can
# be tight and absolute: the allocation-free request-path work landed
# at 0.432 allocs/event (results/bench_micro_pr3.md; 5.505 before it).
# Crossing 1.0 means allocations came back on the request hot path.
# Capture before grepping: grep -m1 on the pipe can exit while the
# binary is still flushing, and the SIGPIPE aborts the run.
allocs_out=$(cargo run --release -p bench --bin allocs -- 200)
fresh_allocs=$(printf '%s\n' "$allocs_out" \
  | grep -m1 -o 'allocs_per_event: *[0-9.]*' | grep -o '[0-9.]*$')
echo "density hot path: $fresh_allocs allocs/event (gate: <= 1.0)"
if ! awk -v f="$fresh_allocs" 'BEGIN { exit !(f <= 1.0) }'; then
  echo "ci: density hot path regressed above 1.0 allocs/event" >&2
  exit 1
fi

echo "== fork-cost gate (stamp and fork allocation calls and bytes) =="
# The same binary counts the allocation calls and bytes of one stamp of
# a 100-guest xl template and of one fork of a frozen 1000-guest xl
# world (DESIGN.md §6e). Both should be O(chunks): 23 calls / 6,567 B
# and 22 calls / 46,631 B when this gate landed, against 666 / 295,678
# and 6,356 / 4,308,912 when forks still copied O(guests) tables. The
# counts are deterministic, so the bounds are absolute (the stamp's are
# a tenth of its old cost); bytes are gated too, because one O(guests)
# hash table is a single call.
alloc_line() {
  printf '%s\n' "$allocs_out" | grep -m1 -o "^$1: *[0-9]*" | grep -o '[0-9]*$'
}
gate_le() {
  local what=$1 value=$2 bound=$3
  echo "$what: $value (gate: <= $bound)"
  if [ -z "$value" ] || [ "$value" -gt "$bound" ]; then
    echo "ci: $what above $bound" >&2
    exit 1
  fi
}
gate_le "stamp of a 100-guest xl template, allocation calls" "$(alloc_line stamp_xl_100_allocs)" 66
gate_le "stamp of a 100-guest xl template, bytes" "$(alloc_line stamp_xl_100_bytes)" 29567
gate_le "fork of a frozen 1000-guest xl world, allocation calls" "$(alloc_line fork_frozen_allocs)" 64
gate_le "fork of a frozen 1000-guest xl world, bytes" "$(alloc_line fork_frozen_bytes)" 98304
echo "ci: OK"
