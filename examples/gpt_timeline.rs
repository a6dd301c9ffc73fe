//! Plan a decoder-only GPT model (an architecture beyond the paper's zoo),
//! simulate one iteration, and export the execution timeline as a Chrome
//! trace — open the output in `chrome://tracing` or Perfetto to see the
//! GPipe schedule, the flush barrier, and gradient all-reduces overlapping
//! backward compute.
//!
//! ```sh
//! cargo run --release --example gpt_timeline
//! # then load /tmp/gpt_timeline.json in chrome://tracing
//! ```

use galvatron::model::GptConfig;
use galvatron::prelude::*;
use galvatron::sim::{to_chrome_trace, trace_stats};

fn main() {
    let model = GptConfig {
        layers: 48,
        hidden: 1600,
        heads: 25,
        seq: 1024,
        vocab: 50257,
    }
    .build("GPT2-XL");
    let cluster = TestbedPreset::RtxTitan8.topology();

    println!(
        "{}: {:.2}B parameters, {:.0} MB activations/sample",
        model.name,
        model.total_param_count() as f64 / 1e9,
        model.activation_bytes_per_sample() as f64 / 1e6
    );

    // At sequence length 1024 and fp32, GPT2-XL stashes ~18 GB of
    // activations per sample — the planner must explore batches below 8.
    let planner = ParallelPlanner::with_optimizer(OptimizerConfig {
        max_batch: 64,
        sub_step_batches: true,
        ..OptimizerConfig::default()
    });
    let outcome = planner
        .optimize(&model, &cluster, 20 * GIB)
        .expect("topology lookups succeed")
        .expect("GPT2-XL fits 20 GiB on 8 GPUs");
    println!("{}", outcome.plan.summary());

    let sim = Simulator::new(cluster, SimulatorConfig::default().with_budget(20 * GIB));
    let (report, trace) = sim
        .execute_traced(&model, &outcome.plan)
        .expect("plan executes");
    let stats = trace_stats(&trace);
    println!(
        "simulated {:.2} samples/s over {} tasks (compute busy {:.2}s, comm busy {:.2}s)",
        report.throughput, stats.tasks, stats.compute_busy, stats.comm_busy
    );
    if let Some((label, dur)) = &stats.longest {
        println!("longest task: {label} ({:.1} ms)", dur * 1e3);
    }

    let path = std::env::temp_dir().join("gpt_timeline.json");
    std::fs::write(&path, to_chrome_trace(&trace)).expect("write trace");
    println!(
        "timeline written to {} — open in chrome://tracing",
        path.display()
    );
}
