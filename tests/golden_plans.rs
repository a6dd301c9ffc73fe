//! Golden-plan snapshot tests.
//!
//! Every Table-1 zoo model is planned on the 8-GPU PCIe testbed through the
//! full production stack (parallel planner, arena DP, bound pruning) and
//! compared field-for-field against a checked-in snapshot in
//! `tests/golden/`. Throughput and iteration time are compared as exact
//! `f64` bit patterns, so any drift in the cost model, the DP tie-breaking
//! or the pruning shows up as a failing diff — not as a silently shifted
//! plan.
//!
//! To regenerate after an *intentional* cost-model change:
//!
//! ```text
//! GALVATRON_BLESS=1 cargo test --test golden_plans
//! ```
//!
//! then review the diff like any other code change.

use galvatron::prelude::*;
use galvatron_core::OptimizerConfig;
use galvatron_planner::{ParallelPlanner, PlannerConfig};
use galvatron_strategy::ParallelPlan;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

const BUDGET_GIB: u64 = 16;

/// One checked-in snapshot. The `*_bits` fields are the authoritative
/// comparison (bit-exact `f64`); the plain floats ride along so humans can
/// read the file. An infeasible model is pinned too (`plan: None`) — a
/// cost-model change that suddenly makes it fit is just as much a
/// divergence as a shifted plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenPlan {
    model: String,
    testbed: String,
    budget_gib: u64,
    max_batch: usize,
    throughput_samples_per_sec: f64,
    iteration_time: f64,
    throughput_bits: u64,
    iteration_time_bits: u64,
    plan: Option<ParallelPlan>,
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn config() -> OptimizerConfig {
    OptimizerConfig {
        max_batch: 64,
        ..OptimizerConfig::default()
    }
}

fn snapshot(planner: &ParallelPlanner, model: PaperModel) -> GoldenPlan {
    let spec = model.spec();
    let topology = TestbedPreset::RtxTitan8.topology();
    let outcome = planner
        .optimize(&spec, &topology, BUDGET_GIB * GIB)
        .expect("8-GPU testbed is well formed");
    let (throughput, iteration_time, plan) = match outcome {
        Some(o) => (o.throughput_samples_per_sec, o.iteration_time, Some(o.plan)),
        None => (0.0, 0.0, None),
    };
    GoldenPlan {
        model: model.name().to_string(),
        testbed: "rtx-titan-8".to_string(),
        budget_gib: BUDGET_GIB,
        max_batch: config().max_batch,
        throughput_samples_per_sec: throughput,
        iteration_time,
        throughput_bits: throughput.to_bits(),
        iteration_time_bits: iteration_time.to_bits(),
        plan,
    }
}

#[test]
fn zoo_plans_match_the_golden_snapshots() {
    let bless = std::env::var_os("GALVATRON_BLESS").is_some_and(|v| v == "1");
    let planner = ParallelPlanner::new(PlannerConfig {
        optimizer: config(),
        jobs: 2,
        prune: true,
        ..PlannerConfig::default()
    });
    let dir = golden_dir();
    let mut diverged = Vec::new();

    for model in PaperModel::ALL {
        let current = snapshot(&planner, model);
        let path = dir.join(format!("{}.json", model.name()));
        if bless {
            let json = serde_json::to_string_pretty(&current).expect("snapshot serializes");
            std::fs::create_dir_all(&dir).expect("create tests/golden");
            std::fs::write(&path, json + "\n").expect("write snapshot");
            continue;
        }
        let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {path:?} ({e}); \
                 run `GALVATRON_BLESS=1 cargo test --test golden_plans` to create it"
            )
        });
        let golden: GoldenPlan = serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("corrupt golden snapshot {path:?}: {e:?}"));
        // Bit patterns are authoritative: a plan that matches structurally
        // but differs in modeled time is still a divergence.
        if golden.plan != current.plan
            || golden.throughput_bits != current.throughput_bits
            || golden.iteration_time_bits != current.iteration_time_bits
        {
            diverged.push(format!(
                "{}: golden throughput {} (bits {:#018x}), current {} (bits {:#018x})",
                model.name(),
                golden.throughput_samples_per_sec,
                golden.throughput_bits,
                current.throughput_samples_per_sec,
                current.throughput_bits,
            ));
        }
        // The readable floats must agree with their own bit patterns, or
        // the snapshot was hand-edited inconsistently.
        assert_eq!(
            golden.throughput_samples_per_sec.to_bits(),
            golden.throughput_bits,
            "{}: snapshot throughput and bits disagree — regenerate, don't hand-edit",
            model.name()
        );
        assert_eq!(
            golden.iteration_time.to_bits(),
            golden.iteration_time_bits,
            "{}: snapshot iteration time and bits disagree — regenerate, don't hand-edit",
            model.name()
        );
    }

    assert!(
        diverged.is_empty(),
        "plans diverged from the golden snapshots:\n  {}\n\
         If the change is intentional, re-bless with \
         `GALVATRON_BLESS=1 cargo test --test golden_plans` and review the diff.",
        diverged.join("\n  ")
    );
}
