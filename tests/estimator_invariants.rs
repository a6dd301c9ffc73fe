//! Property tests for the estimator invariants the planner's search leans
//! on.
//!
//! Modeled memory must be monotone in the batch: the paper's Algorithm 1
//! (lines 14–18) stops the sweep on that fact, and a stage that is
//! infeasible at some batch must stay infeasible at every larger one.
//! `dp_feasible` — the O(L·S) screen the parallel planner runs on every
//! candidate stage before dispatching it — must answer exactly
//! `reference::solve(..).is_some()`, or a dispatched candidate could come
//! back infeasible (or a feasible one be skipped). This suite pins both,
//! plus the layer-count monotonicity that makes stage-prefix costs well
//! behaved.

use galvatron_cluster::{rtx_titan_node, GIB, MIB};
use galvatron_core::{dp_feasible, reference, DirectCosts, StageDpQuery};
use galvatron_estimator::{CostEstimator, EstimatorConfig};
use galvatron_model::{BertConfig, ModelSpec};
use galvatron_strategy::DecisionTreeBuilder;
use proptest::prelude::*;

fn estimator() -> CostEstimator {
    CostEstimator::new(rtx_titan_node(8), EstimatorConfig::default())
}

fn model(layers: usize) -> ModelSpec {
    BertConfig {
        layers,
        hidden: 1024,
        heads: 16,
        seq: 256,
        vocab: 30522,
    }
    .build("invariants")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    /// Modeled per-layer memory (persistent and peak) never decreases in
    /// the batch size, for every layer kind and every strategy.
    #[test]
    fn layer_memory_is_monotone_in_batch(
        layers in 1usize..=3,
        batch_exp in 0u32..=5,
    ) {
        let est = estimator();
        let spec = model(layers);
        let set = DecisionTreeBuilder::new(8).strategies();
        let b1 = 1u64 << batch_exp;
        let b2 = b1 * 2;
        for layer in &spec.layers {
            for s in set.iter() {
                let small = est.layer_memory(layer, spec.dtype, s, b1);
                let large = est.layer_memory(layer, spec.dtype, s, b2);
                prop_assert!(
                    small.persistent() <= large.persistent(),
                    "{s}: persistent {} @ {b1} > {} @ {b2}",
                    small.persistent(),
                    large.persistent()
                );
                prop_assert!(
                    small.peak() <= large.peak(),
                    "{s}: peak {} @ {b1} > {} @ {b2}",
                    small.peak(),
                    large.peak()
                );
            }
        }
    }

    /// Modeled per-layer time never decreases in the micro-batch size.
    #[test]
    fn layer_cost_is_monotone_in_batch(
        layers in 1usize..=3,
        batch_exp in 0u32..=5,
    ) {
        let est = estimator();
        let spec = model(layers);
        let set = DecisionTreeBuilder::new(8).strategies();
        let b1 = 1u64 << batch_exp;
        let b2 = b1 * 2;
        for layer in &spec.layers {
            for s in set.iter() {
                let small = est.layer_cost(layer, spec.dtype, s, b1, 0).unwrap();
                let large = est.layer_cost(layer, spec.dtype, s, b2, 0).unwrap();
                prop_assert!(
                    small.total(est.config()) <= large.total(est.config()) + 1e-12,
                    "{s}: cost {} @ {b1} > {} @ {b2}",
                    small.total(est.config()),
                    large.total(est.config())
                );
            }
        }
    }

    /// Stage-prefix monotonicity in the layer count: a feasible stage stays
    /// feasible when layers are removed from its end, and its optimum never
    /// gets more expensive.
    #[test]
    fn dp_is_monotone_in_layer_count(
        layers in 2usize..=4,
        batch_exp in 3u32..=5,
        budget_gib in 4u64..=16,
    ) {
        let est = estimator();
        let spec = model(layers);
        let set = DecisionTreeBuilder::new(8).strategies();
        let batch = 1u64 << batch_exp;
        let budget = budget_gib * GIB;
        let n = spec.n_layers();
        let mut prev_cost: Option<f64> = None;
        // Walk prefixes longest-first: feasibility may only *appear* and the
        // optimum may only shrink as layers are dropped.
        for end in (1..=n).rev() {
            let q = StageDpQuery::new(0..end, &set, batch, budget, 32 * MIB);
            let out = reference::solve(&est, &spec, &q, &DirectCosts).unwrap();
            if let Some(prev) = prev_cost {
                let out = out.as_ref().expect("shorter prefix lost feasibility");
                prop_assert!(
                    out.cost <= prev + 1e-12,
                    "prefix 0..{end}: {} > {prev}",
                    out.cost
                );
            }
            prev_cost = out.map(|o| o.cost).or(prev_cost);
        }
    }

    /// Batch monotonicity at the stage level: once a query is
    /// memory-infeasible at stash `b`, it stays infeasible at every larger
    /// stash — for both `dp_feasible` and the full solve.
    #[test]
    fn infeasibility_is_monotone_in_batch(
        layers in 1usize..=3,
        budget_mib in 64u64..=4096,
        gran_exp in 4u32..=6,
    ) {
        let est = estimator();
        let spec = model(layers);
        let set = DecisionTreeBuilder::new(8).strategies();
        let budget = budget_mib * MIB;
        let granularity = (1u64 << gran_exp) * MIB;
        let mut seen_infeasible = false;
        for batch in [1u64, 2, 4, 8, 16, 32, 64] {
            let q = StageDpQuery::new(0..spec.n_layers(), &set, batch, budget, granularity);
            let quick = dp_feasible(&est, &spec, &q, &DirectCosts);
            let full = reference::solve(&est, &spec, &q, &DirectCosts).unwrap().is_some();
            prop_assert_eq!(quick, full, "screen vs solve at batch {}", batch);
            if seen_infeasible {
                prop_assert!(!full, "batch {} feasible after a smaller batch was not", batch);
            }
            seen_infeasible |= !full;
        }
    }

    /// `dp_feasible` answers exactly `reference::solve(..).is_some()` across the
    /// (budget × batch × micro-batch) grid, including the quantization
    /// boundary region.
    #[test]
    fn feasibility_screen_agrees_with_the_solver(
        layers in 1usize..=3,
        budget_mib in 128u64..=8192,
        batch_exp in 0u32..=5,
        micro_batches in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let est = estimator();
        let spec = model(layers);
        let set = DecisionTreeBuilder::new(8).strategies();
        let budget = budget_mib * MIB;
        let batch = 8u64 << batch_exp;
        let q = StageDpQuery {
            micro_batches,
            ..StageDpQuery::new(0..spec.n_layers(), &set, batch, budget, 32 * MIB)
        };
        let quick = dp_feasible(&est, &spec, &q, &DirectCosts);
        let full = reference::solve(&est, &spec, &q, &DirectCosts).unwrap().is_some();
        prop_assert_eq!(quick, full);
    }
}
