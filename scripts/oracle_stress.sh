#!/usr/bin/env bash
# Nightly-style DP-oracle stress lane: the full seeded oracle wall, the
# golden-plan snapshots, the differential fuzz harness cranked to
# PROPTEST_CASES=2048, and the planner-vs-serial parallelism suite, all in
# release mode.
#
# The fuzzed instances are small (3-6 layers), so their memory windows are
# only a few rows long. Two suites cover long windows, where the arena's
# row-delta min-plus folds most: the fuzz target's deterministic deep-stage
# lane (GPT2-XL-1.5B and BERT-Huge-48, whole and as memory-balanced 2-/4-
# stage splits, recompute off and auto) and planner_parallelism, which
# compares the planner against the serial reference on real-size zoo
# models.
#
# Since the BMW extension the fuzzed instance space includes the
# recompute dimension: every case draws a RecomputeMode (off/on/auto)
# and the brute-force reference enumerates both per-layer planes, so
# the reference/arena equivalences are stressed over
# the enlarged (strategy, recompute) decision space too.
#
# Prints exactly ONE summary line on stdout, e.g.
#   oracle-stress: ok cases=2048 suites=5 seconds=37
# (all cargo output goes to stderr), so scripts/check.sh --full — or a cron
# job — can consume the verdict without parsing test logs. Any failing
# suite aborts before the summary line is printed (set -e), so a missing
# or non-"ok" line IS the failure signal.
#
# Override the fuzz case count with PROPTEST_CASES=<n>.
set -euo pipefail
cd "$(dirname "$0")/.."

CASES="${PROPTEST_CASES:-2048}"
start=$(date +%s)
{
    echo "==> oracle wall (410 seeded instances, release)"
    cargo test --release -q --test dp_oracle
    echo "==> differential fuzz + deep-stage lane, PROPTEST_CASES=$CASES (release)"
    PROPTEST_CASES="$CASES" cargo test --release -q --test dp_fuzz_differential
    echo "==> golden plan snapshots (Table-1 zoo + 64-GPU/100-layer scale point)"
    cargo test --release -q --test golden_plans
    cargo test --release -q --test golden_scale
    echo "==> planner vs serial reference on real-size zoo models (release)"
    cargo test --release -q --test planner_parallelism
} >&2
end=$(date +%s)

echo "oracle-stress: ok cases=$CASES suites=5 seconds=$((end - start))"
