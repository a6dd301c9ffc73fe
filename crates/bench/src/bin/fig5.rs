//! Regenerates Figure 5: the optimal parallelism plans Galvatron emits for
//! BERT-Huge-32 and Swin-Huge-32 under 8 GB and 12 GB budgets.
//!
//! The paper's qualitative findings to look for in the output:
//! * BERT @ 8 GB combines all four paradigms (PP appears);
//! * BERT @ 12 GB drops PP for TP+DP / TP+SDP mixtures with a larger batch;
//! * Swin assigns different strategies per stage depth — shallow layers
//!   (large activations, few parameters) lean on data parallelism, deep
//!   layers (many parameters) on tensor/sharded parallelism.

use galvatron_bench::render::write_json;
use galvatron_cluster::{TestbedPreset, GIB};
use galvatron_core::OptimizerConfig;
use galvatron_model::PaperModel;
use galvatron_planner::ParallelPlanner;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct PlanRecord {
    model: String,
    budget_gb: u32,
    batch: usize,
    estimated_throughput: f64,
    summary: String,
}

fn main() {
    let topology = TestbedPreset::RtxTitan8.topology();
    let planner = ParallelPlanner::with_optimizer(OptimizerConfig {
        max_batch: 256,
        ..OptimizerConfig::default()
    });

    let mut records = Vec::new();
    for model_id in [PaperModel::BertHuge32, PaperModel::SwinHuge32] {
        let model = model_id.spec();
        for budget_gb in [8u32, 12] {
            match planner
                .optimize(&model, &topology, budget_gb as u64 * GIB)
                .expect("topology lookups succeed")
            {
                Some(outcome) => {
                    println!(
                        "### {} @ {budget_gb} GB — batch {}, {:.2} samples/s (estimated)",
                        model_id.name(),
                        outcome.plan.global_batch,
                        outcome.throughput_samples_per_sec
                    );
                    println!("{}", outcome.plan.summary());
                    records.push(PlanRecord {
                        model: model_id.name().to_string(),
                        budget_gb,
                        batch: outcome.plan.global_batch,
                        estimated_throughput: outcome.throughput_samples_per_sec,
                        summary: outcome.plan.summary(),
                    });
                }
                None => println!("### {} @ {budget_gb} GB — infeasible", model_id.name()),
            }
        }
    }

    let path = write_json("fig5", &records).expect("write results");
    eprintln!("wrote {}", path.display());
}
