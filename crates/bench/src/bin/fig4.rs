//! Regenerates Figure 4: optimization (search) efficiency.
//!
//! (a) Search time of the Eq. 1 dynamic program as the number of layers and
//!     the memory budget grow — linear in both, as the paper observes.
//! (b) Search time against the strategy-space size: the limited-dimension
//!     searches (DP+TP, DP+PP) against full Galvatron on 8 GPUs.

use galvatron_bench::render::write_json;
use galvatron_bench::{
    jobs_from_args, metrics_out_from_args, resolve_jobs, write_metrics_snapshot,
};
use galvatron_cluster::{rtx_titan_node, GIB, MIB};
use galvatron_core::{reference, DirectCosts, OptimizerConfig, StageDpQuery};
use galvatron_estimator::{CostEstimator, EstimatorConfig};
use galvatron_model::BertConfig;
use galvatron_obs::{MetricsRegistry, NullSink, Obs};
use galvatron_planner::{ParallelPlanner, PlannerConfig};
use galvatron_strategy::{DecisionTreeBuilder, Paradigm};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct ScalePoint {
    layers: usize,
    budget_gb: u32,
    dp_millis: f64,
}

#[derive(Debug, Serialize)]
struct SpacePoint {
    variant: String,
    candidate_strategies: usize,
    search_millis: f64,
}

fn bert(layers: usize) -> galvatron_model::ModelSpec {
    BertConfig {
        layers,
        hidden: 1280,
        heads: 20,
        seq: 512,
        vocab: 30522,
    }
    .build(&format!("BERT-{layers}"))
}

fn main() {
    let jobs = jobs_from_args();
    let metrics_out = metrics_out_from_args();
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Obs::new(registry.clone(), Arc::new(NullSink));
    let topology = rtx_titan_node(8);
    let estimator = CostEstimator::new(topology.clone(), EstimatorConfig::default());
    let set = DecisionTreeBuilder::new(8).strategies();

    // --- (a) layers × memory scaling -----------------------------------
    println!("Figure 4(a): Eq.1 DP search time (ms)");
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "layers", "8G", "12G", "16G", "20G"
    );
    let mut scale = Vec::new();
    for layers in [8usize, 16, 24, 32, 40, 48, 56, 64] {
        let model = bert(layers);
        print!("{layers:<8}");
        for budget_gb in [8u32, 12, 16, 20] {
            let usable = topology.usable_budget(budget_gb as u64 * GIB);
            let q = StageDpQuery::new(0..model.n_layers(), &set, 16, usable, 32 * MIB);
            let started = Instant::now();
            let _ =
                reference::solve(&estimator, &model, &q, &DirectCosts).expect("search succeeds");
            let ms = started.elapsed().as_secs_f64() * 1e3;
            print!(" {ms:>7.1}");
            scale.push(ScalePoint {
                layers,
                budget_gb,
                dp_millis: ms,
            });
        }
        println!();
    }

    // Linearity check: time(64 layers) / time(8 layers) ≈ 8 at fixed budget.
    let t8: f64 = scale
        .iter()
        .filter(|p| p.layers == 8 && p.budget_gb == 16)
        .map(|p| p.dp_millis)
        .sum();
    let t64: f64 = scale
        .iter()
        .filter(|p| p.layers == 64 && p.budget_gb == 16)
        .map(|p| p.dp_millis)
        .sum();
    println!("\nlinearity: t(64)/t(8) = {:.1} (ideal 8.0)", t64 / t8);

    // --- (b) strategy-space size ----------------------------------------
    println!(
        "\nFigure 4(b): full-search time vs strategy-space size (8 GPUs, {} workers)",
        resolve_jobs(jobs)
    );
    let model = bert(32);
    let mut space = Vec::new();
    let variants: [(&str, OptimizerConfig); 3] = [
        (
            "Galvatron (DP+TP)",
            OptimizerConfig {
                paradigms: vec![Paradigm::Data, Paradigm::Tensor],
                allow_pipeline: false,
                max_batch: 64,
                ..OptimizerConfig::default()
            },
        ),
        (
            "Galvatron (DP+PP)",
            OptimizerConfig {
                paradigms: vec![Paradigm::Data],
                max_batch: 64,
                ..OptimizerConfig::default()
            },
        ),
        (
            "Galvatron (full)",
            OptimizerConfig {
                max_batch: 64,
                ..OptimizerConfig::default()
            },
        ),
    ];
    for (name, cfg) in variants {
        let planner = ParallelPlanner::new(PlannerConfig {
            optimizer: cfg,
            jobs,
            use_cache: true,
            prune: true,
            incremental: true,
            cache_max_entries: None,
            intern_max_entries: None,
        })
        .with_obs(obs.clone());
        let started = Instant::now();
        let outcome = planner
            .optimize(&model, &topology, 16 * GIB)
            .expect("search succeeds")
            .expect("feasible");
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let candidates: usize = outcome
            .stats
            .strategy_set_sizes
            .iter()
            .map(|&(_, n)| n)
            .sum();
        println!("{name:<20} |S| = {candidates:>3}  search {ms:>8.1} ms");
        space.push(SpacePoint {
            variant: name.to_string(),
            candidate_strategies: candidates,
            search_millis: ms,
        });
    }
    println!(
        "(paper: DP+TP and DP+PP each have 4 alternatives, Galvatron 22; our DP+TP \
         counts axis orderings, hence 6)"
    );

    let path = write_json("fig4", &(scale, space)).expect("write results");
    eprintln!("wrote {}", path.display());

    if let Some(path) = metrics_out {
        write_metrics_snapshot(&path, &registry, false);
        eprintln!("wrote metrics snapshot to {path}");
    }
}
