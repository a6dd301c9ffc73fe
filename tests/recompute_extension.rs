//! Activation recomputation — the memory optimization the paper disables
//! (§5.1: "we disable some memory optimizations (e.g., recompute) and leave
//! them as our future work") and this repository implements end-to-end.

use galvatron::prelude::*;
use galvatron_core::GalvatronOptimizer;
use galvatron_strategy::Paradigm;

fn dp8_plan(model: &galvatron::model::ModelSpec, batch: usize) -> ParallelPlan {
    ParallelPlan::uniform(
        "dp8",
        model.n_layers(),
        8,
        galvatron::strategy::IntraStageStrategy::pure(Paradigm::Data, 8).unwrap(),
        batch,
    )
}

/// `plan` with every layer of every stage marked for recomputation.
fn recompute_everything(plan: &ParallelPlan) -> ParallelPlan {
    let mut plan = plan.clone();
    for stage in &mut plan.stages {
        stage.layer_recompute = vec![true; stage.n_layers()];
    }
    plan
}

#[test]
fn recompute_trades_memory_for_compute_in_the_simulator() {
    let topo = TestbedPreset::RtxTitan8.topology();
    let model = PaperModel::VitHuge32.spec();
    // ZeRO-3 shards the model state, so activations dominate the footprint
    // and the recomputation saving is visible end to end.
    let plan = ParallelPlan::uniform(
        "sdp8",
        model.n_layers(),
        8,
        galvatron::strategy::IntraStageStrategy::pure(Paradigm::ShardedData, 8).unwrap(),
        64,
    );

    let base = Simulator::new(topo.clone(), SimulatorConfig::deterministic())
        .execute(&model, &plan)
        .unwrap();
    let recompute = Simulator::new(topo, SimulatorConfig::deterministic())
        .execute(&model, &recompute_everything(&plan))
        .unwrap();

    assert!(
        recompute.peak_memory() < base.peak_memory() / 2,
        "recompute {:.2} GiB vs stash {:.2} GiB",
        recompute.peak_memory() as f64 / GIB as f64,
        base.peak_memory() as f64 / GIB as f64
    );
    assert!(recompute.iteration_time > base.iteration_time);
    // Backward grows by exactly one forward: total compute 3/2×... the
    // forward half is unchanged, so the overall compute work ratio is 4/3.
    let ratio = recompute.compute_work / base.compute_work;
    assert!((ratio - 4.0 / 3.0).abs() < 0.02, "compute ratio {ratio:.3}");
}

#[test]
fn estimator_and_simulator_agree_on_recompute() {
    let topo = TestbedPreset::RtxTitan8.topology();
    let model = PaperModel::VitHuge32.spec();
    let plan = dp8_plan(&model, 32);

    let plan = recompute_everything(&plan);
    let est = CostEstimator::with_defaults(topo.clone())
        .plan_cost(&model, &plan)
        .unwrap();

    let sim = Simulator::new(topo, SimulatorConfig::default())
        .execute(&model, &plan)
        .unwrap();

    let time_err = (est.iteration_time / sim.iteration_time - 1.0).abs();
    assert!(time_err < 0.10, "time err {time_err:.3}");
    let mem_err = (est.peak_memory() as f64 / sim.peak_memory() as f64 - 1.0).abs();
    assert!(mem_err < 0.05, "memory err {mem_err:.3}");
}

#[test]
fn recompute_unlocks_infeasible_budgets() {
    // BERT-Huge-48 cannot train under 6 GiB/device without recomputation;
    // with every layer recomputing, the planner finds a plan that carries
    // the decisions and the simulator confirms it fits.
    let topo = TestbedPreset::RtxTitan8.topology();
    let model = PaperModel::BertHuge48.spec();
    let budget = 6 * GIB;

    let plain = GalvatronOptimizer::new(OptimizerConfig {
        max_batch: 32,
        ..OptimizerConfig::default()
    })
    .optimize(&model, &topo, budget)
    .unwrap();
    assert!(
        plain.is_none(),
        "6 GiB should be infeasible without recompute"
    );

    let est_cfg = EstimatorConfig {
        include_boundary_comm: true,
        ..EstimatorConfig::default()
    };
    let with = GalvatronOptimizer::new(OptimizerConfig {
        estimator: est_cfg,
        recompute: RecomputeMode::On,
        max_batch: 32,
        ..OptimizerConfig::default()
    })
    .optimize(&model, &topo, budget)
    .unwrap()
    .expect("recompute makes 6 GiB feasible");

    for stage in &with.plan.stages {
        assert_eq!(stage.layer_recompute, vec![true; stage.n_layers()]);
    }

    let report = Simulator::new(topo, SimulatorConfig::default().with_budget(budget))
        .execute(&model, &with.plan)
        .unwrap();
    assert!(!report.oom);
    assert!(report.throughput > 0.0);
}

#[test]
fn per_layer_dp_dimension_unlocks_infeasible_budgets() {
    // Same 6 GiB cliff as above, but solved through the fifth DP dimension:
    // the planner itself decides which layers recompute, no estimator-wide
    // override involved, and the plan carries the decisions.
    let topo = TestbedPreset::RtxTitan8.topology();
    let model = PaperModel::BertHuge48.spec();
    let budget = 6 * GIB;

    let outcome = GalvatronOptimizer::new(OptimizerConfig {
        recompute: RecomputeMode::Auto,
        max_batch: 32,
        ..OptimizerConfig::default()
    })
    .optimize(&model, &topo, budget)
    .unwrap()
    .expect("the recompute dimension makes 6 GiB feasible");

    let marked: usize = outcome
        .plan
        .stages
        .iter()
        .map(|s| s.layer_recompute.iter().filter(|&&r| r).count())
        .sum();
    assert!(marked > 0, "the winning plan should recompute some layers");

    // The simulator honours the per-layer decisions the plan carries.
    let report = Simulator::new(topo, SimulatorConfig::default().with_budget(budget))
        .execute(&model, &outcome.plan)
        .unwrap();
    assert!(!report.oom);
    assert!(report.throughput > 0.0);
}

#[test]
fn auto_recompute_never_loses_to_stash_only() {
    // Auto searches both planes, so at a budget where stash-only is already
    // feasible the winner can only match or beat it.
    let topo = TestbedPreset::RtxTitan8.topology();
    let model = PaperModel::BertHuge32.spec();
    let budget = 10 * GIB;

    let stash = GalvatronOptimizer::new(OptimizerConfig {
        max_batch: 16,
        ..OptimizerConfig::default()
    })
    .optimize(&model, &topo, budget)
    .unwrap()
    .expect("stash-only baseline feasible");
    let auto = GalvatronOptimizer::new(OptimizerConfig {
        recompute: RecomputeMode::Auto,
        max_batch: 16,
        ..OptimizerConfig::default()
    })
    .optimize(&model, &topo, budget)
    .unwrap()
    .expect("auto at least matches stash-only");

    assert!(
        auto.throughput_samples_per_sec >= stash.throughput_samples_per_sec * (1.0 - 1e-9),
        "auto {:.3} vs stash {:.3} samples/s",
        auto.throughput_samples_per_sec,
        stash.throughput_samples_per_sec
    );
}
