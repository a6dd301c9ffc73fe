#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, and the tier-1 test suite.
# Usage: scripts/check.sh [--offline] [--full]
#   --full additionally runs the oracle stress lane
#   (scripts/oracle_stress.sh: PROPTEST_CASES=2048 differential fuzz plus
#   the full oracle wall and golden snapshots, release mode).
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=()
FULL=0
for arg in "$@"; do
    case "$arg" in
        --offline) CARGO_FLAGS+=(--offline) ;;
        --full) FULL=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> every bench target in crates/* is run below by name"
# A bench no gate runs compiles on every clippy pass and measures nothing;
# declaring one means adding its `cargo bench ... --bench <name>` line here.
# Targets are the [[bench]] entries plus the auto-discovered benches/*.rs.
for manifest in crates/*/Cargo.toml; do
    crate_dir=$(dirname "$manifest")
    benches=$({
        awk '/^\[\[bench\]\]/ { in_bench = 1; next }
             /^\[/ { in_bench = 0 }
             in_bench && $1 == "name" { gsub(/"/, "", $3); print $3 }' "$manifest"
        for file in "$crate_dir"/benches/*.rs; do
            if [ -e "$file" ]; then basename "$file" .rs; fi
        done
    } | sort -u)
    for name in $benches; do
        if ! grep -Eq "^cargo bench .*--bench ${name}( |$)" scripts/check.sh; then
            echo "$crate_dir has bench target '$name', which scripts/check.sh never runs" >&2
            exit 1
        fi
    done
done

echo "==> every [dependencies] entry in crates/* is used by that crate"
# A dependency no source file names still compiles into every build of the
# crate and hides the real dependency graph. Entries are matched by their
# Rust identifier (dashes become underscores) in src/, tests/, benches/ and
# examples/.
for manifest in crates/*/Cargo.toml; do
    crate_dir=$(dirname "$manifest")
    deps=$(awk '/^\[dependencies\]/ { in_deps = 1; next }
               /^\[/ { in_deps = 0 }
               in_deps && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, 1, RLENGTH) }' "$manifest")
    dirs=()
    for sub in src tests benches examples; do
        if [ -d "$crate_dir/$sub" ]; then dirs+=("$crate_dir/$sub"); fi
    done
    for dep in $deps; do
        ident=${dep//-/_}
        if ! grep -rqw --include='*.rs' "$ident" "${dirs[@]}"; then
            echo "$crate_dir depends on '$dep', which none of its sources use" >&2
            exit 1
        fi
    done
done

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings

echo "==> no eprintln! in library code (binaries under crates/*/src/bin are exempt)"
if grep -rn 'eprintln!' crates/*/src --include='*.rs' | grep -v '/src/bin/'; then
    echo "library crates must log through the obs span sinks, not eprintln!" >&2
    exit 1
fi

echo "==> cargo build --all-features"
cargo build "${CARGO_FLAGS[@]}" --workspace --all-features

echo "==> benchmark build (perfbench is a workspace of its own over crates/*)"
# A public-API change that breaks the benchmark must fail here, not only in
# the benchmark pipeline.
cargo build "${CARGO_FLAGS[@]}" --release --manifest-path perfbench/Cargo.toml

echo "==> benchmark fleet traffic (traced sweep-cold: a 2-replica fleet behind the router)"
# Runs what the build above produced: the traced run drives a router and two
# replicas over loopback through the public API, so a serving regression
# that still compiles fails here. Appends to the gitignored
# .perfbench_runs.jsonl.
cargo run "${CARGO_FLAGS[@]}" --release -q --manifest-path perfbench/Cargo.toml -- \
    --workload sweep-cold --seed 1 --seconds 2 --trace 1

echo "==> cargo test --doc"
cargo test "${CARGO_FLAGS[@]}" --workspace --doc -q

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build "${CARGO_FLAGS[@]}" --release
cargo test "${CARGO_FLAGS[@]}" -q

echo "==> every crate's library unit tests (tier-1 above runs only the root package)"
cargo test "${CARGO_FLAGS[@]}" --workspace --lib -q

echo "==> oracle conformance: brute force vs every DP path (reference/arena)"
cargo test "${CARGO_FLAGS[@]}" --test dp_oracle -q

echo "==> tier-2 (release): oracle wall + differential fuzz + golden snapshots"
# The same bit-identity suites again, but release-compiled: the arena DP's
# unsafe-free but heavily windowed hot path must agree with the reference
# under release codegen (different FP contraction and bounds-check
# elision), not just under the opt-level-2 test profile. The differential
# fuzz target includes the deep-stage lane: GPT2-XL-1.5B and BERT-Huge-48,
# whole and as memory-balanced 2-/4-stage splits, where memory windows run
# hundreds of rows long and the arena's row-delta min-plus does its work.
cargo test "${CARGO_FLAGS[@]}" --release -q \
    --test dp_oracle --test dp_fuzz_differential \
    --test golden_plans --test golden_scale

echo "==> planner_sweep bench (fails on plan divergence or a speedup floor breach)"
# Writes BENCH_planner_sweep.json at the workspace root; the bench itself
# panics (non-zero exit) on any plan divergence from serial, a cold-sweep
# speedup below the 10x floor, or a 64-GPU/100-layer cold speedup below
# the 5x floor.
cargo bench "${CARGO_FLAGS[@]}" -p galvatron-bench --bench planner_sweep
test -s BENCH_planner_sweep.json || { echo "BENCH_planner_sweep.json missing" >&2; exit 1; }

echo "==> serve crate suites (unit + fingerprint stability contract)"
cargo test "${CARGO_FLAGS[@]}" -p galvatron-serve -q
cargo test "${CARGO_FLAGS[@]}" -p galvatron-cluster --test fingerprint_stability -q

echo "==> fleet crate suites (ring properties + loopback fleet e2e)"
cargo test "${CARGO_FLAGS[@]}" -p galvatron-fleet -q

echo "==> trace suites (obs trace unit tests + seeded span-structure determinism"
echo "    across a kill-failover hop)"
cargo test "${CARGO_FLAGS[@]}" -p galvatron-obs -q
cargo test "${CARGO_FLAGS[@]}" -p galvatron-fleet --test trace_determinism -q

echo "==> galvatron-served loopback smoke (bind, announce, quit)"
# The daemon (a one-replica fleet) prints its bound address on stdout and
# exits on stdin EOF.
addr=$(echo quit | cargo run "${CARGO_FLAGS[@]}" --release -q -p galvatron-fleet --bin galvatron-served -- --addr 127.0.0.1:0 --workers 1 2>/dev/null)
case "$addr" in
    127.0.0.1:*) ;;
    *) echo "galvatron-served did not announce a bound address (got: $addr)" >&2; exit 1 ;;
esac

echo "==> galvatron-fleet-router 3-replica loopback smoke (bind, announce, quit)"
# First stdout line is the router address, then one line per replica.
fleet_out=$(echo quit | cargo run "${CARGO_FLAGS[@]}" --release -q -p galvatron-fleet --bin galvatron-fleet-router -- --replicas 3 2>/dev/null)
case "$fleet_out" in
    127.0.0.1:*) ;;
    *) echo "galvatron-fleet-router did not announce a router address (got: $fleet_out)" >&2; exit 1 ;;
esac
replica_lines=$(printf '%s\n' "$fleet_out" | grep -c '^replica ') || true
if [ "$replica_lines" -ne 3 ]; then
    echo "galvatron-fleet-router announced $replica_lines replicas, expected 3" >&2
    exit 1
fi

echo "==> hetero crate suites (unit + property tests) and the 120-instance oracle"
cargo test "${CARGO_FLAGS[@]}" -p galvatron-hetero -q
cargo test "${CARGO_FLAGS[@]}" --test hetero_oracle -q

echo "==> hetero acceptance bench (fails unless a mixed deployment beats the best"
echo "    homogeneous island on samples-per-dollar for >=1 zoo model, or the"
echo "    cluster-advisor sweep is non-deterministic)"
# Writes BENCH_hetero.json at the workspace root.
cargo run "${CARGO_FLAGS[@]}" --release -q -p galvatron-hetero --bin galvatron-hetero
test -s BENCH_hetero.json || { echo "BENCH_hetero.json missing" >&2; exit 1; }

echo "==> bmw crate suites (knob corners, 6 GiB unlock, determinism) + per-layer"
echo "    recompute extension (per-layer plan decisions, Auto never loses)"
cargo test "${CARGO_FLAGS[@]}" -p galvatron-bmw -q
cargo test "${CARGO_FLAGS[@]}" --test recompute_extension -q

echo "==> bmw acceptance bench (fails unless recompute + memory-balanced stages"
echo "    beat the four-paradigm baseline — feasibility or throughput — at >=1"
echo "    model x budget point, every winner re-simulated against its budget)"
# Writes BENCH_bmw.json at the workspace root.
cargo run "${CARGO_FLAGS[@]}" --release -q -p galvatron-bmw --bin galvatron-bmw
test -s BENCH_bmw.json || { echo "BENCH_bmw.json missing" >&2; exit 1; }

echo "==> serve load bench (fails below 5x warm-over-cold, herd >1 compute, or no shed)"
# Writes BENCH_serve.json at the workspace root.
cargo run "${CARGO_FLAGS[@]}" --release -q -p galvatron-fleet --bin galvatron-bench-serve
test -s BENCH_serve.json || { echo "BENCH_serve.json missing" >&2; exit 1; }

echo "==> fleet bench: 3 replicas behind the router (fails on any cross-replica"
echo "    byte mismatch, cold DP after warm-join, or a dropped answer after a kill)"
# Writes BENCH_fleet.json at the workspace root, plus the trace-phase gate:
# the traced request's attribution phases must sum to within 5% of the
# client-observed latency, its spans must form one linked router->replica->
# planner tree, and /trace/slow must be non-empty after the traced zipf
# phase (BENCH_trace.json + BENCH_trace_spans.jsonl at the workspace root).
cargo run "${CARGO_FLAGS[@]}" --release -q -p galvatron-fleet --bin galvatron-bench-serve -- --fleet 3 --max-batch 8
test -s BENCH_fleet.json || { echo "BENCH_fleet.json missing" >&2; exit 1; }
test -s BENCH_trace.json || { echo "BENCH_trace.json missing" >&2; exit 1; }
test -s BENCH_trace_spans.jsonl || { echo "BENCH_trace_spans.jsonl missing" >&2; exit 1; }

echo "==> galvatron-trace attribution report (replays the bench span dump)"
cargo run "${CARGO_FLAGS[@]}" --release -q -p galvatron-obs --bin galvatron-trace -- \
    --spans BENCH_trace_spans.jsonl --chrome-out TRACE_fleet.json
test -s TRACE_fleet.json || { echo "TRACE_fleet.json missing" >&2; exit 1; }

if [ "$FULL" -eq 1 ]; then
    echo "==> oracle stress lane (scripts/oracle_stress.sh, PROPTEST_CASES=2048)"
    stress_line=$(scripts/oracle_stress.sh)
    printf '%s\n' "$stress_line"
    case "$stress_line" in
        "oracle-stress: ok"*) ;;
        *) echo "oracle stress lane did not report ok (got: $stress_line)" >&2; exit 1 ;;
    esac
fi

echo "==> all checks passed"
