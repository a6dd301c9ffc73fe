//! Regenerates Table 3: 16-GPU (2 × 8 RTX TITAN over 100 Gb InfiniBand)
//! comparison under 8/16 GB budgets.

use galvatron_bench::paper;
use galvatron_bench::render::{agreement, render_cells, write_json};
use galvatron_bench::{
    evaluate_table_observed, jobs_from_args, metrics_out_from_args, write_metrics_snapshot,
    TableSpec,
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
    let budgets = vec![8u32, 16];
    let models = paper::TABLE3_MODELS.to_vec();
    let spec = TableSpec {
        name: "table3",
        topology: TestbedPreset::RtxTitan16.topology(),
        budgets_gb: budgets.clone(),
        models: models.clone(),
        config: OptimizerConfig {
            max_batch: 1024,
            ..OptimizerConfig::default()
        },
    };
    let started = std::time::Instant::now();
    eprintln!("table3: running on {} threads...", resolve_jobs(jobs));
    let cells = evaluate_table_observed(&spec, jobs, &obs);
    eprintln!("table3: done in {:.1}s", started.elapsed().as_secs_f64());

    println!("{}", render_cells(&cells, &models, &budgets));

    println!("--- paper-vs-measured agreement ---");
    for block in paper::table3() {
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

    let path = write_json("table3", &cells).expect("write results");
    eprintln!("wrote {}", path.display());

    if let Some(path) = metrics_out {
        write_metrics_snapshot(&path, &registry, false);
        eprintln!("wrote metrics snapshot to {path}");
    }
}
