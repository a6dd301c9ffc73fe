//! Regenerates Table 1: 8-GPU end-to-end comparison under 8/12/16/20 GB
//! memory budgets, 8 models × 8 strategies.
//!
//! Every cell is planned by the corresponding baseline planner and
//! *measured* by the discrete-event simulator. Prints the table, the
//! paper's values, and per-block agreement statistics.

use galvatron_bench::paper;
use galvatron_bench::render::{agreement, render_cells, write_json};
use galvatron_bench::{
    evaluate_table, jobs_from_args, metrics_out_from_args, write_metrics_snapshot, TableSpec,
};
use galvatron_cluster::TestbedPreset;
use galvatron_core::OptimizerConfig;
use galvatron_obs::{MetricsRegistry, NullSink, Obs};
use galvatron_planner::resolve_jobs;
use std::sync::Arc;

fn main() {
    let jobs = jobs_from_args();
    let metrics_out = metrics_out_from_args();
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Obs::new(registry.clone(), Arc::new(NullSink));
    let budgets = vec![8u32, 12, 16, 20];
    let models = paper::TABLE1_MODELS.to_vec();
    let spec = TableSpec {
        name: "table1",
        topology: TestbedPreset::RtxTitan8.topology(),
        budgets_gb: budgets.clone(),
        models: models.clone(),
        config: OptimizerConfig {
            max_batch: 512,
            ..OptimizerConfig::default()
        },
    };
    eprintln!(
        "table1: evaluating {} cells on {} threads...",
        budgets.len() * models.len() * 8,
        resolve_jobs(jobs)
    );
    let started = std::time::Instant::now();
    let cells = evaluate_table(&spec, jobs, &obs);
    eprintln!("table1: done in {:.1}s", started.elapsed().as_secs_f64());

    println!("{}", render_cells(&cells, &models, &budgets));

    println!("--- paper-vs-measured agreement ---");
    for block in paper::table1() {
        let a = agreement(&cells, &block, &models);
        println!(
            "{:>3}G: feasibility {}/{} cells match, Galvatron dominance {}/{}, \
             geomean throughput ratio ours/paper {:.2}",
            a.budget_gb,
            a.feasibility_matches,
            a.cells,
            a.dominance_matches,
            a.dominance_cells,
            a.geomean_ratio
        );
    }

    let path = write_json("table1", &cells).expect("write results");
    eprintln!("wrote {}", path.display());

    let snap = registry.snapshot();
    eprintln!(
        "table1: planner evaluated {} DP cells, pruned {} candidates",
        snap.counter("planner_dp_cells_evaluated").unwrap_or(0),
        snap.counter("planner_candidates_pruned").unwrap_or(0),
    );
    if let Some(path) = metrics_out {
        write_metrics_snapshot(&path, &registry, false);
        eprintln!("wrote metrics snapshot to {path}");
    }
}
