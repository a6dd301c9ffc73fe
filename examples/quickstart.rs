//! Quickstart: find the optimal hybrid-parallelism plan for ViT-Huge on an
//! 8-GPU node with an 8 GB per-device budget, then execute it on the
//! simulator.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use galvatron::prelude::*;

fn main() {
    // 1. Describe the hardware: the paper's Table 1 testbed — one node with
    //    eight RTX TITANs on PCIe 3.0.
    let cluster = TestbedPreset::RtxTitan8.topology();

    // 2. Pick a workload from the zoo (or build your own with
    //    `galvatron_model::BertConfig` & friends).
    let model = PaperModel::VitHuge32.spec();
    println!(
        "planning {} ({:.0}M parameters) on {} × {}",
        model.name,
        model.total_param_count() as f64 / 1e6,
        cluster.n_devices(),
        cluster.gpu().name,
    );

    // 3. Run Algorithm 1: sweep batch sizes and pipeline degrees, search
    //    per-layer hybrid strategies with the Eq. 1 dynamic program.
    let planner = ParallelPlanner::with_optimizer(OptimizerConfig {
        max_batch: 128,
        ..OptimizerConfig::default()
    });
    let outcome = planner
        .optimize(&model, &cluster, 8 * GIB)
        .expect("topology lookups succeed")
        .expect("ViT-Huge fits an 8 GB budget");

    println!(
        "\nbest plan: {:.1} samples/s estimated at batch {}",
        outcome.throughput_samples_per_sec, outcome.plan.global_batch
    );
    println!("{}", outcome.plan.summary());

    // 4. "Run" the plan: the discrete-event simulator executes the full
    //    GPipe schedule with compute/communication contention and memory
    //    tracking.
    let simulator = Simulator::new(cluster, SimulatorConfig::default().with_budget(8 * GIB));
    let report = simulator
        .execute(&model, &outcome.plan)
        .expect("the chosen plan executes");
    println!(
        "simulated: {:.1} samples/s, peak memory {:.2} GiB/device, {} tasks",
        report.throughput,
        report.peak_memory() as f64 / GIB as f64,
        report.task_count,
    );
    assert!(!report.oom, "the planner respects the budget");
}
