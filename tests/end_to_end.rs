//! End-to-end integration: plan → validate → estimate → simulate, across
//! models and testbeds.

use galvatron::baselines::{BaselinePlanner, BaselineStrategy};
use galvatron::prelude::*;
use galvatron_core::GalvatronOptimizer;

fn quick_config() -> OptimizerConfig {
    OptimizerConfig {
        max_batch: 64,
        ..OptimizerConfig::default()
    }
}

#[test]
fn plans_execute_for_every_paper_model_on_8_gpus() {
    let cluster = TestbedPreset::RtxTitan8.topology();
    let optimizer = GalvatronOptimizer::new(quick_config());
    for m in PaperModel::TABLE1 {
        let model = m.spec();
        let budget = 16 * GIB;
        let outcome = optimizer
            .optimize(&model, &cluster, budget)
            .expect("lookups succeed")
            .unwrap_or_else(|| panic!("{} fits 16 GiB", m.name()));
        outcome
            .plan
            .validate(model.n_layers(), cluster.n_devices())
            .expect("valid plan");
        let sim = Simulator::new(
            cluster.clone(),
            SimulatorConfig::default().with_budget(budget),
        );
        let report = sim.execute(&model, &outcome.plan).expect("plan executes");
        assert!(!report.oom, "{}: planner-approved plan OOMed", m.name());
        assert!(report.throughput > 0.0);
        // The estimate should land in the right ballpark of the measured
        // value (Figure 3 shows <5% on average; allow generous slack for
        // single plans).
        let ratio = outcome.throughput_samples_per_sec / report.throughput;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "{}: est {:.2} vs sim {:.2}",
            m.name(),
            outcome.throughput_samples_per_sec,
            report.throughput
        );
    }
}

#[test]
fn planner_feasibility_implies_simulator_feasibility() {
    // The memory accounting on both sides must agree: whenever the planner
    // emits a plan under budget, the simulator must not OOM.
    let cluster = TestbedPreset::RtxTitan8.topology();
    let planner = BaselinePlanner::new(cluster.clone(), quick_config());
    for m in [PaperModel::BertHuge32, PaperModel::SwinHuge48] {
        let model = m.spec();
        for budget_gb in [8u64, 12, 16] {
            let budget = budget_gb * GIB;
            for strategy in BaselineStrategy::ALL {
                if let Some(outcome) = planner.plan(strategy, &model, budget).unwrap() {
                    let sim = Simulator::new(
                        cluster.clone(),
                        SimulatorConfig::default().with_budget(budget),
                    );
                    let report = sim.execute(&model, &outcome.plan).expect("executes");
                    assert!(
                        !report.oom,
                        "{} {} @{budget_gb}G: planner said fit, sim peaked at {:.2} GiB",
                        m.name(),
                        strategy.label(),
                        report.peak_memory() as f64 / GIB as f64
                    );
                }
            }
        }
    }
}

#[test]
fn galvatron_dominates_pure_strategies_in_simulation() {
    // The headline Table-1 property, measured on the simulator.
    let cluster = TestbedPreset::RtxTitan8.topology();
    let planner = BaselinePlanner::new(cluster.clone(), quick_config());
    let model = PaperModel::VitHuge32.spec();
    let budget = 12 * GIB;
    let sim = Simulator::new(
        cluster.clone(),
        SimulatorConfig::default().with_budget(budget),
    );

    let full = planner
        .plan(BaselineStrategy::GalvatronFull, &model, budget)
        .unwrap()
        .expect("feasible");
    let full_measured = sim.execute(&model, &full.plan).unwrap().throughput;

    for strategy in [
        BaselineStrategy::PyTorchDdp,
        BaselineStrategy::MegatronTp,
        BaselineStrategy::GPipePp,
        BaselineStrategy::FsdpSdp,
    ] {
        if let Some(outcome) = planner.plan(strategy, &model, budget).unwrap() {
            let measured = sim.execute(&model, &outcome.plan).unwrap().throughput;
            assert!(
                full_measured >= measured * 0.95,
                "{}: {measured:.2} vs Galvatron {full_measured:.2}",
                strategy.label()
            );
        }
    }
}

#[test]
fn sixteen_gpu_plans_span_both_nodes() {
    let cluster = TestbedPreset::RtxTitan16.topology();
    let model = PaperModel::VitHuge32.spec();
    let outcome = GalvatronOptimizer::new(quick_config())
        .optimize(&model, &cluster, 8 * GIB)
        .unwrap()
        .expect("feasible");
    outcome.plan.validate(model.n_layers(), 16).unwrap();
    let devices: usize = outcome.plan.stages.iter().map(|s| s.device_count).sum();
    assert_eq!(devices, 16);
    let sim = Simulator::new(cluster, SimulatorConfig::default().with_budget(8 * GIB));
    let report = sim.execute(&model, &outcome.plan).unwrap();
    assert!(!report.oom);
}

#[test]
fn tighter_budget_never_beats_looser_budget_in_simulation() {
    let cluster = TestbedPreset::RtxTitan8.topology();
    let optimizer = GalvatronOptimizer::new(quick_config());
    let model = PaperModel::SwinHuge32.spec();
    let mut prev = 0.0;
    for budget_gb in [8u64, 12, 16, 20] {
        let budget = budget_gb * GIB;
        let outcome = optimizer
            .optimize(&model, &cluster, budget)
            .unwrap()
            .expect("feasible");
        let sim = Simulator::new(
            cluster.clone(),
            SimulatorConfig::default().with_budget(budget),
        );
        let measured = sim.execute(&model, &outcome.plan).unwrap().throughput;
        // Allow a sliver of slack: the planner optimizes the estimate, not
        // the simulator.
        assert!(
            measured >= prev * 0.93,
            "throughput regressed at {budget_gb}G: {measured:.2} < {prev:.2}"
        );
        prev = prev.max(measured);
    }
}
