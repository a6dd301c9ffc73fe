//! The hetero study: throughput-per-dollar across device mixes, plus the
//! cluster-advisor demo.
//!
//! For every Table-2 model × budget point on the mixed A100+RTX-TITAN
//! testbed, evaluates the three island-aligned deployments (the A100
//! island alone, the RTX TITAN island alone, the full mixed cluster) and
//! reports each one's samples per dollar. The run **panics** — this is the
//! `scripts/check.sh` gate — unless for at least one model the mixed
//! deployment's throughput-per-dollar strictly beats the best
//! single-island deployment, and unless two identical advisor sweeps
//! return byte-identical reports. Results land in `BENCH_hetero.json` at
//! the workspace root.

use galvatron_cluster::{mixed_a100_rtx_cluster, GIB};
use galvatron_core::OptimizerConfig;
use galvatron_hetero::{AdvisorQuery, AdvisorReport, ClusterAdvisor, HeteroPlanner};
use galvatron_model::PaperModel;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

const BUDGETS_GIB: [u64; 3] = [16, 24, 32];

#[derive(Debug, Serialize)]
struct DeploymentRow {
    mix: String,
    n_devices: usize,
    price_per_hour: f64,
    feasible: bool,
    throughput_samples_per_sec: f64,
    samples_per_dollar: f64,
}

#[derive(Debug, Serialize)]
struct PointRow {
    model: String,
    budget_gib: u64,
    deployments: Vec<DeploymentRow>,
    winner_mix: Option<String>,
    mixed_beats_best_island: bool,
}

#[derive(Debug, Serialize)]
struct HeteroReport {
    testbed: String,
    max_batch: usize,
    budgets_gib: Vec<u64>,
    rows: Vec<PointRow>,
    gate_points: Vec<String>,
    advisor: AdvisorReport,
    advisor_deterministic: bool,
    seconds: f64,
}

fn config() -> OptimizerConfig {
    // max_batch 32 keeps the study a smoke bench, same cap as the
    // planner_sweep gate; the economics are unchanged at the paper's 512.
    OptimizerConfig {
        max_batch: 32,
        ..OptimizerConfig::default()
    }
}

fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            let text = std::fs::read_to_string(&manifest).unwrap_or_default();
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return std::env::current_dir().expect("cwd");
        }
    }
}

fn main() {
    let started = Instant::now();
    let topology = mixed_a100_rtx_cluster(1, 1, 8);
    let planner = HeteroPlanner::new(config());

    let mut rows = Vec::new();
    let mut gate_points = Vec::new();
    for model in PaperModel::ALL {
        let spec = model.spec();
        for budget_gib in BUDGETS_GIB {
            let evals = planner
                .evaluate_deployments(&spec, &topology, budget_gib * GIB)
                .expect("catalog topology is well-formed");
            let deployments: Vec<DeploymentRow> = evals
                .iter()
                .map(|e| DeploymentRow {
                    mix: e.deployment.mix.clone(),
                    n_devices: e.deployment.topology.n_devices(),
                    price_per_hour: e.price_per_hour,
                    feasible: e.outcome.is_some(),
                    throughput_samples_per_sec: e
                        .outcome
                        .as_ref()
                        .map_or(0.0, |o| o.throughput_samples_per_sec),
                    samples_per_dollar: e.samples_per_dollar,
                })
                .collect();
            // The full cluster is always the last deployment; every other
            // row is a strict sub-cluster (single islands, here).
            let (mixed, islands) = deployments.split_last().expect("at least one deployment");
            let best_island = islands
                .iter()
                .map(|d| d.samples_per_dollar)
                .fold(0.0f64, f64::max);
            let beats = mixed.feasible && mixed.samples_per_dollar > best_island;
            if beats {
                gate_points.push(format!("{} @ {budget_gib}G", model.name()));
            }
            let winner_mix = deployments
                .iter()
                .filter(|d| d.feasible)
                .fold(None::<&DeploymentRow>, |best, d| match best {
                    Some(b) if b.samples_per_dollar >= d.samples_per_dollar => Some(b),
                    _ => Some(d),
                })
                .map(|d| d.mix.clone());
            println!(
                "{:<12} @ {budget_gib:>2}G  mixed {:>10.1} $/sample⁻¹  best island {:>10.1}  {}",
                model.name(),
                mixed.samples_per_dollar,
                best_island,
                if beats { "MIXED WINS" } else { "" }
            );
            rows.push(PointRow {
                model: model.name().to_string(),
                budget_gib,
                deployments,
                winner_mix,
                mixed_beats_best_island: beats,
            });
        }
    }

    // Advisor demo: cheapest mix training BERT-Huge-32 to 10M samples
    // inside the deadline — run twice, byte-identical.
    let advisor = ClusterAdvisor::new(config());
    let query = AdvisorQuery {
        budget_bytes: 16 * GIB,
        target_samples: 1.0e7,
        max_hours: 1000.0,
        per_island: 8,
        max_islands_per_type: 1,
    };
    let model = PaperModel::BertHuge32.spec();
    let first = advisor
        .advise(&model, &query)
        .expect("catalog mixes are valid");
    let second = advisor
        .advise(&model, &query)
        .expect("catalog mixes are valid");
    let advisor_deterministic = serde_json::to_string(&first).expect("report serializes")
        == serde_json::to_string(&second).expect("report serializes");
    if let Some(rec) = first.recommended() {
        println!(
            "advisor: {} — {:.1} h, ${:.0} to completion",
            rec.mix, rec.hours, rec.total_cost
        );
    }

    let report = HeteroReport {
        testbed: "1x8 A100 + 1x8 RTX TITAN (PCIe islands, 100Gb IB)".to_string(),
        max_batch: config().max_batch,
        budgets_gib: BUDGETS_GIB.to_vec(),
        rows,
        gate_points: gate_points.clone(),
        advisor: first,
        advisor_deterministic,
        seconds: started.elapsed().as_secs_f64(),
    };
    let path = workspace_root().join("BENCH_hetero.json");
    let mut json = serde_json::to_string_pretty(&report).expect("report serializes");
    json.push('\n');
    std::fs::write(&path, json).expect("write BENCH_hetero.json");
    println!("wrote {}", path.display());

    assert!(
        advisor_deterministic,
        "two identical advisor sweeps returned different reports"
    );
    assert!(
        !gate_points.is_empty(),
        "gate failed: the mixed deployment never strictly beat the best \
         single-island deployment on samples per dollar"
    );
    println!(
        "gate passed: mixed wins at {} point(s): {}",
        gate_points.len(),
        gate_points.join(", ")
    );
}
