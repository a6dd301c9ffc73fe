//! Golden snapshot for the 64-GPU/100-layer cold scaling point, plus the
//! best-first visit-order pin.
//!
//! The arena-DP rebuild added a cold scaling point (the `scale_point_model`
//! BERT variant on the 64-GPU A100 testbed) to the planner sweep bench.
//! This test pins its plan the same way `golden_plans` pins the Table-1
//! zoo: field-for-field against a checked-in snapshot with throughput and
//! iteration time compared as exact `f64` bit patterns.
//!
//! It also pins the best-first candidate ordering. The sweep dispatches
//! candidates in descending throughput-upper-bound order and folds the
//! dispatched slot ordinals into an FNV-1a digest
//! (`SearchStats::visit_order_digest`); the snapshot freezes that digest,
//! so any change to the ordering heuristic — intended or not — shows up as
//! a failing diff rather than a silent search-order drift.
//!
//! To regenerate after an *intentional* cost-model or ordering change:
//!
//! ```text
//! GALVATRON_BLESS=1 cargo test --test golden_scale
//! ```
//!
//! then review the diff like any other code change.

use galvatron::prelude::*;
use galvatron_bench::paper::{scale_point_model, SCALE_POINT_LAYERS};
use galvatron_core::OptimizerConfig;
use galvatron_planner::{ParallelPlanner, PlannerConfig};
use galvatron_strategy::ParallelPlan;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

const BUDGET_GIB: u64 = 16;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenScale {
    model: String,
    testbed: String,
    budget_gib: u64,
    layers: usize,
    max_batch: usize,
    throughput_samples_per_sec: f64,
    iteration_time: f64,
    throughput_bits: u64,
    iteration_time_bits: u64,
    /// FNV-1a digest of the best-first dispatch order (slot ordinals).
    visit_order_digest: u64,
    plan: Option<ParallelPlan>,
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("scale-a100-64-100l.json")
}

fn config() -> OptimizerConfig {
    // Mirrors the planner_sweep bench's scale point: max_batch 32 keeps the
    // run quick, the search structure is identical at larger caps.
    OptimizerConfig {
        max_batch: 32,
        ..OptimizerConfig::default()
    }
}

fn planner(jobs: usize) -> ParallelPlanner {
    ParallelPlanner::new(PlannerConfig {
        optimizer: config(),
        jobs,
        prune: true,
        ..PlannerConfig::default()
    })
}

/// One cold plan of the scale point, like the bench's cold pass. Returns
/// the snapshot and the raw outcome for extra checks.
fn snapshot(jobs: usize) -> GoldenScale {
    let spec = scale_point_model();
    let topology = TestbedPreset::A100x64.topology();
    let outcome = planner(jobs)
        .optimize(&spec, &topology, BUDGET_GIB * GIB)
        .expect("64-GPU testbed is well formed");
    let outcome = outcome.expect("scale point is feasible at 16 GiB");
    GoldenScale {
        model: spec.name.clone(),
        testbed: "a100-64".to_string(),
        budget_gib: BUDGET_GIB,
        layers: spec.n_layers(),
        max_batch: config().max_batch,
        throughput_samples_per_sec: outcome.throughput_samples_per_sec,
        iteration_time: outcome.iteration_time,
        throughput_bits: outcome.throughput_samples_per_sec.to_bits(),
        iteration_time_bits: outcome.iteration_time.to_bits(),
        visit_order_digest: outcome.stats.visit_order_digest,
        plan: Some(outcome.plan),
    }
}

#[test]
fn scale_point_plan_and_visit_order_match_the_golden_snapshot() {
    let bless = std::env::var_os("GALVATRON_BLESS").is_some_and(|v| v == "1");
    let current = snapshot(2);
    assert_eq!(current.layers, SCALE_POINT_LAYERS);
    let path = golden_path();
    if bless {
        let json = serde_json::to_string_pretty(&current).expect("snapshot serializes");
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, json + "\n").expect("write snapshot");
        return;
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {path:?} ({e}); \
             run `GALVATRON_BLESS=1 cargo test --test golden_scale` to create it"
        )
    });
    let golden: GoldenScale = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("corrupt golden snapshot {path:?}: {e:?}"));
    // Readable floats must agree with their own bit patterns, or the
    // snapshot was hand-edited inconsistently.
    assert_eq!(
        golden.throughput_samples_per_sec.to_bits(),
        golden.throughput_bits,
        "snapshot throughput and bits disagree — regenerate, don't hand-edit"
    );
    assert_eq!(
        golden.iteration_time.to_bits(),
        golden.iteration_time_bits,
        "snapshot iteration time and bits disagree — regenerate, don't hand-edit"
    );
    assert_eq!(
        golden, current,
        "scale point diverged from the golden snapshot. If the change is \
         intentional, re-bless with `GALVATRON_BLESS=1 cargo test --test \
         golden_scale` and review the diff."
    );
}

/// The best-first dispatch order is a pure function of the search inputs:
/// fresh reuse structures and a different worker count must reproduce the
/// digest bit-for-bit (ordering is decided before dispatch, so parallelism
/// cannot perturb it).
#[test]
fn visit_order_digest_is_deterministic_across_runs_and_worker_counts() {
    let two_workers = snapshot(2);
    let again = snapshot(2);
    let serial = snapshot(1);
    assert_ne!(two_workers.visit_order_digest, 0, "digest never recorded");
    assert_eq!(
        two_workers.visit_order_digest, again.visit_order_digest,
        "visit order drifted between identical runs"
    );
    assert_eq!(
        two_workers.visit_order_digest, serial.visit_order_digest,
        "visit order depends on worker count"
    );
    assert_eq!(
        two_workers.plan, serial.plan,
        "plan depends on worker count"
    );
}
