//! Swin Transformer's uneven layers (§5.5 / Figure 5): shallow stages have
//! huge activations and few parameters, deep stages the reverse — so the
//! optimal per-layer strategies differ across the model and shift with the
//! memory budget. This example sweeps budgets and prints the chosen
//! strategy per Swin stage, together with a synthetic-ImageNet epoch
//! estimate.
//!
//! ```sh
//! cargo run --release --example swin_memory_sweep
//! ```

use galvatron::model::workload::SyntheticDataset;
use galvatron::prelude::*;

fn main() {
    let cluster = TestbedPreset::RtxTitan8.topology();
    let model = PaperModel::SwinHuge32.spec();

    // Per-layer imbalance, quantified.
    println!("{}: per-layer parameter vs activation balance", model.name);
    let probe_layers = ["s0.enc.0", "s1.enc.0", "s2.enc.0", "s3.enc.0"];
    for name in probe_layers {
        let layer = model.layers.iter().find(|l| l.name == name).unwrap();
        println!(
            "  {:<10} {:>8.1}M params {:>8.1} MB act/sample",
            layer.name,
            layer.param_count() as f64 / 1e6,
            layer.activation_bytes_per_sample(model.dtype) as f64 / 1e6
        );
    }

    let planner = ParallelPlanner::with_optimizer(OptimizerConfig {
        max_batch: 256,
        ..OptimizerConfig::default()
    });

    for budget_gb in [8u64, 12, 16, 20] {
        let Some(outcome) = planner
            .optimize(&model, &cluster, budget_gb * GIB)
            .expect("topology lookups succeed")
        else {
            println!("\n{budget_gb} GB: infeasible");
            continue;
        };
        println!(
            "\n=== {budget_gb} GB: batch {}, {:.1} samples/s estimated ===",
            outcome.plan.global_batch, outcome.throughput_samples_per_sec
        );
        // Strategy of the first encoder layer in each Swin stage.
        for name in probe_layers {
            let idx = model.layers.iter().position(|l| l.name == name).unwrap();
            let strategy = outcome.plan.strategy_of(idx).unwrap();
            let (pipeline_stage, _) = outcome.plan.stage_of(idx).unwrap();
            println!("  {name:<10} pp-stage {pipeline_stage}  {strategy}");
        }

        // Feed it a synthetic ImageNet-1K epoch to translate throughput
        // into wall-clock.
        let mut dataset = SyntheticDataset::imagenet(224, 42);
        let epoch_samples = 1_281_167u64; // ImageNet-1K train split
        let mut drawn = 0u64;
        while drawn < outcome.plan.global_batch as u64 {
            let batch = dataset.next_batch(outcome.plan.global_batch as u64);
            drawn += batch.batch_size;
        }
        let epoch_seconds = epoch_samples as f64 / outcome.throughput_samples_per_sec;
        println!(
            "  synthetic ImageNet epoch: {:.1} min ({} samples)",
            epoch_seconds / 60.0,
            epoch_samples
        );
    }
}
