//! Reproducibility and serialization: same inputs → same outputs; plans and
//! reports round-trip through JSON.

use galvatron::prelude::*;
use galvatron_core::GalvatronOptimizer;
use galvatron_strategy::Paradigm;

fn plan_fixture() -> (galvatron::model::ModelSpec, ParallelPlan) {
    let model = PaperModel::VitHuge32.spec();
    let plan = ParallelPlan::uniform(
        "fixture",
        model.n_layers(),
        8,
        galvatron::strategy::IntraStageStrategy::pure(Paradigm::ShardedData, 8).unwrap(),
        32,
    );
    (model, plan)
}

#[test]
fn simulation_is_deterministic_per_seed() {
    let (model, plan) = plan_fixture();
    let topo = TestbedPreset::RtxTitan8.topology();
    let a = Simulator::new(topo.clone(), SimulatorConfig::default().with_seed(1))
        .execute(&model, &plan)
        .unwrap();
    let b = Simulator::new(topo.clone(), SimulatorConfig::default().with_seed(1))
        .execute(&model, &plan)
        .unwrap();
    assert_eq!(a.iteration_time, b.iteration_time);
    assert_eq!(a.peak_memory_per_stage, b.peak_memory_per_stage);

    let c = Simulator::new(topo, SimulatorConfig::default().with_seed(2))
        .execute(&model, &plan)
        .unwrap();
    assert_ne!(
        a.iteration_time, c.iteration_time,
        "noise must vary by seed"
    );
    // ... but only within the configured noise band.
    let rel = (a.iteration_time / c.iteration_time - 1.0).abs();
    assert!(rel < 0.10, "seed variation too large: {rel:.3}");
}

#[test]
fn planning_is_deterministic() {
    let topo = TestbedPreset::RtxTitan8.topology();
    let model = PaperModel::SwinHuge32.spec();
    let optimizer = GalvatronOptimizer::new(OptimizerConfig {
        max_batch: 64,
        ..OptimizerConfig::default()
    });
    let a = optimizer
        .optimize(&model, &topo, 12 * GIB)
        .unwrap()
        .unwrap();
    let b = optimizer
        .optimize(&model, &topo, 12 * GIB)
        .unwrap()
        .unwrap();
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.throughput_samples_per_sec, b.throughput_samples_per_sec);
}

#[test]
fn plans_round_trip_through_json() {
    let topo = TestbedPreset::RtxTitan8.topology();
    let model = PaperModel::BertHuge32.spec();
    let outcome = GalvatronOptimizer::new(OptimizerConfig {
        max_batch: 32,
        ..OptimizerConfig::default()
    })
    .optimize(&model, &topo, 16 * GIB)
    .unwrap()
    .unwrap();

    let json = serde_json::to_string(&outcome.plan).unwrap();
    let back: ParallelPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(outcome.plan, back);
    back.validate(model.n_layers(), 8).unwrap();

    // A deserialised plan simulates identically.
    let sim = Simulator::new(topo, SimulatorConfig::default());
    let a = sim.execute(&model, &outcome.plan).unwrap();
    let b = sim.execute(&model, &back).unwrap();
    assert_eq!(a.iteration_time, b.iteration_time);
}

#[test]
fn reports_and_topologies_serialize() {
    let topo = TestbedPreset::RtxTitan16.topology();
    let json = serde_json::to_string(&topo).unwrap();
    let back: ClusterTopology = serde_json::from_str(&json).unwrap();
    assert_eq!(topo, back);

    let (model, plan) = plan_fixture();
    let report = Simulator::new(
        TestbedPreset::RtxTitan8.topology(),
        SimulatorConfig::default(),
    )
    .execute(&model, &plan)
    .unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back: ExecutionReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}

#[test]
fn traces_are_consistent_with_reports() {
    let (model, plan) = plan_fixture();
    let sim = Simulator::new(
        TestbedPreset::RtxTitan8.topology(),
        SimulatorConfig::default(),
    );
    let (report, trace) = sim.execute_traced(&model, &plan).unwrap();
    assert_eq!(trace.len(), report.task_count);
    let end = trace.iter().fold(0.0f64, |acc, e| acc.max(e.end));
    assert!((end - report.iteration_time).abs() < 1e-9);
    for entry in &trace {
        assert!(entry.end >= entry.start);
        assert!(entry.start >= 0.0);
    }
}
