//! Mixed-precision training (fp16 compute, fp32 Adam master state) as a
//! configuration of the existing accounting: parameter, gradient,
//! activation and communication bytes all halve; optimizer state grows to
//! 12 B/param (fp32 master + m + v). The paper trains fp32 on RTX TITANs;
//! this is the knob a practitioner flips first when memory is tight.

use galvatron::model::DType;
use galvatron::prelude::*;
use galvatron_core::GalvatronOptimizer;
use galvatron_strategy::{IntraStageStrategy, Paradigm};

/// Mixed-precision Adam: fp16 params (2) + fp16 grads (2) + fp32 master,
/// m, v (12) = 16 B/param — same total as fp32 Adam, but the *sharded* and
/// *communicated* portions shrink.
const MIXED_OPTIMIZER_BYTES: u64 = 12;

#[test]
fn halving_precision_halves_activations_and_comm() {
    let fp32 = PaperModel::BertHuge32.spec();
    let fp16 = PaperModel::BertHuge32.spec().with_dtype(DType::F16);
    assert_eq!(
        fp16.activation_bytes_per_sample() * 2,
        fp32.activation_bytes_per_sample()
    );
    assert_eq!(fp16.total_param_bytes() * 2, fp32.total_param_bytes());

    // Gradient all-reduce volume halves → DP comm time roughly halves.
    let topo = TestbedPreset::RtxTitan8.topology();
    let est = CostEstimator::with_defaults(topo);
    let strategy = IntraStageStrategy::pure(Paradigm::Data, 8).unwrap();
    let layer32 = &fp32.layers[5];
    let c32 = est
        .layer_cost(layer32, fp32.dtype, &strategy, 8, 0, false)
        .unwrap();
    let c16 = est
        .layer_cost(&fp16.layers[5], fp16.dtype, &strategy, 8, 0, false)
        .unwrap();
    let ratio = c16.dp_allreduce / c32.dp_allreduce;
    assert!((ratio - 0.5).abs() < 0.05, "comm ratio {ratio:.3}");
}

#[test]
fn mixed_precision_unlocks_larger_batches() {
    let topo = TestbedPreset::RtxTitan8.topology();
    let budget = 8 * GIB;

    let fp32 = PaperModel::BertHuge32.spec();
    let plan32 = GalvatronOptimizer::new(OptimizerConfig {
        max_batch: 256,
        ..OptimizerConfig::default()
    })
    .optimize(&fp32, &topo, budget)
    .unwrap()
    .expect("fp32 fits 8 GiB");

    let fp16 = PaperModel::BertHuge32.spec().with_dtype(DType::F16);
    let est_cfg = galvatron::estimator::EstimatorConfig {
        optimizer_bytes_per_param: MIXED_OPTIMIZER_BYTES,
        include_boundary_comm: true,
        ..galvatron::estimator::EstimatorConfig::default()
    };
    let plan16 = GalvatronOptimizer::new(OptimizerConfig {
        estimator: est_cfg,
        max_batch: 256,
        ..OptimizerConfig::default()
    })
    .optimize(&fp16, &topo, budget)
    .unwrap()
    .expect("fp16 fits 8 GiB");

    assert!(
        plan16.plan.global_batch >= 2 * plan32.plan.global_batch,
        "fp16 batch {} vs fp32 batch {}",
        plan16.plan.global_batch,
        plan32.plan.global_batch
    );
    assert!(plan16.throughput_samples_per_sec > plan32.throughput_samples_per_sec);

    // The simulator confirms the fp16 plan fits.
    let sim_cfg = SimulatorConfig {
        optimizer_bytes_per_param: MIXED_OPTIMIZER_BYTES,
        ..SimulatorConfig::default().with_budget(budget)
    };
    let report = Simulator::new(topo, sim_cfg)
        .execute(&fp16, &plan16.plan)
        .unwrap();
    assert!(!report.oom);
}
