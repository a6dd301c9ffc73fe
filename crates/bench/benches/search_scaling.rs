//! Criterion counterpart of Figure 4: Eq. 1 search-time scaling in layers,
//! memory budget and strategy-space size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use galvatron_cluster::{rtx_titan_node, GIB, MIB};
use galvatron_core::{reference, DirectCosts, GalvatronOptimizer, OptimizerConfig, StageDpQuery};
use galvatron_estimator::{CostEstimator, EstimatorConfig};
use galvatron_model::{BertConfig, ModelSpec};
use galvatron_strategy::{DecisionTreeBuilder, Paradigm};
use std::hint::black_box;

fn bert(layers: usize) -> ModelSpec {
    BertConfig {
        layers,
        hidden: 1280,
        heads: 20,
        seq: 512,
        vocab: 30522,
    }
    .build(&format!("BERT-{layers}"))
}

fn bench_dp_by_layers(c: &mut Criterion) {
    let topology = rtx_titan_node(8);
    let estimator = CostEstimator::new(topology.clone(), EstimatorConfig::default());
    let set = DecisionTreeBuilder::new(8).strategies();
    let usable = topology.usable_budget(16 * GIB);

    let mut group = c.benchmark_group("dp_search/layers");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for layers in [8usize, 16, 32, 64] {
        let model = bert(layers);
        group.bench_with_input(BenchmarkId::from_parameter(layers), &model, |b, model| {
            let q = StageDpQuery::new(0..model.n_layers(), &set, 16, usable, 32 * MIB);
            b.iter(|| reference::solve(&estimator, black_box(model), &q, &DirectCosts).unwrap())
        });
    }
    group.finish();
}

fn bench_dp_by_budget(c: &mut Criterion) {
    let topology = rtx_titan_node(8);
    let estimator = CostEstimator::new(topology.clone(), EstimatorConfig::default());
    let set = DecisionTreeBuilder::new(8).strategies();
    let model = bert(32);

    let mut group = c.benchmark_group("dp_search/budget_gb");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for budget_gb in [8u64, 12, 16, 20] {
        let usable = topology.usable_budget(budget_gb * GIB);
        group.bench_with_input(
            BenchmarkId::from_parameter(budget_gb),
            &usable,
            |b, &usable| {
                let q = StageDpQuery::new(0..model.n_layers(), &set, 16, usable, 32 * MIB);
                b.iter(|| reference::solve(&estimator, &model, &q, &DirectCosts).unwrap())
            },
        );
    }
    group.finish();
}

fn bench_full_search_by_space(c: &mut Criterion) {
    let topology = rtx_titan_node(8);
    let model = bert(32);
    let variants: [(&str, OptimizerConfig); 3] = [
        (
            "dp_tp",
            OptimizerConfig {
                paradigms: vec![Paradigm::Data, Paradigm::Tensor],
                allow_pipeline: false,
                max_batch: 32,
                ..OptimizerConfig::default()
            },
        ),
        (
            "dp_pp",
            OptimizerConfig {
                paradigms: vec![Paradigm::Data],
                max_batch: 32,
                ..OptimizerConfig::default()
            },
        ),
        (
            "full",
            OptimizerConfig {
                max_batch: 32,
                ..OptimizerConfig::default()
            },
        ),
    ];

    let mut group = c.benchmark_group("algorithm1/strategy_space");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    for (name, cfg) in variants {
        let optimizer = GalvatronOptimizer::new(cfg);
        group.bench_function(name, |b| {
            b.iter(|| {
                optimizer
                    .optimize(black_box(&model), &topology, 16 * GIB)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dp_by_layers,
    bench_dp_by_budget,
    bench_full_search_by_space
);
criterion_main!(benches);
