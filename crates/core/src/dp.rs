//! The Eq. 1 interface: one query type, one solver trait, the cost-kernel
//! seam and the exact feasibility screen.
//!
//! For one pipeline stage of `L` layers under a per-device budget `E`,
//! choose a strategy `S_j ∈ S` per layer minimising
//!
//! ```text
//! C(L, E) = min over Sj { C(L−1, E − O(L, Sj)) + c(L, Sj) + R(L, Si, Sj) }
//! ```
//!
//! The DP state is `(layer, quantized remaining memory, strategy of the
//! previous layer)` — the paper's formulation plus the explicit previous-
//! strategy coordinate the transformation term `R` requires, giving
//! `O(L·E·|S|²)` time (the paper quotes `O(L·E·|S|)`, folding the `R`
//! minimisation into the candidate scan).
//!
//! Memory is quantized to a configurable granularity (the paper's "using
//! large memory granularity" knob from the complexity analysis). ZeRO-3
//! gather transients are handled with a *reserve*: the worst single-layer
//! transient any candidate could incur is pre-subtracted from the budget,
//! keeping `O(·)` additive so the optimal-substructure argument of §3.3
//! holds unchanged.
//!
//! Every solver answers a [`StageDpQuery`] through the [`StageDp`] trait:
//! [`reference::solve`](crate::reference::solve) is the oracle,
//! [`dp_search_arena`](crate::arena::dp_search_arena) the production path.
//! [`dp_feasible`] answers whether a query has any solution at all.

use galvatron_cluster::{ClusterError, DeviceId};
use galvatron_estimator::{CostEstimator, LayerCost, LayerMemory};
use galvatron_model::ModelSpec;
use galvatron_strategy::{IntraStageStrategy, StrategySet};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// How the DP treats per-layer activation recomputation — the fifth
/// decision dimension (Galvatron-BMW direction).
///
/// `Off` restricts every layer to the stash plane and is bit-identical to
/// the pre-recompute solver; `On` forces every layer onto the recompute
/// plane; `Auto` lets the DP choose per layer, trading the 4/3 recompute
/// ratio (backward replays the forward) against activation memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RecomputeMode {
    /// Stash every layer's activations (the historical behaviour).
    #[default]
    Off,
    /// Recompute every layer during backward.
    On,
    /// Choose per layer inside the DP.
    Auto,
}

impl RecomputeMode {
    /// The recompute planes scanned per layer, in tie-break order. The
    /// stash plane comes first so all-stash assignments win cost ties under
    /// the solver's first-wins strict-`<` rule, keeping plans byte-identical
    /// whenever recompute never strictly helps.
    pub fn planes(self) -> &'static [bool] {
        match self {
            RecomputeMode::Off => &[false],
            RecomputeMode::On => &[true],
            RecomputeMode::Auto => &[false, true],
        }
    }

    /// Whether this is the historical stash-only mode. Takes a reference
    /// so it doubles as a `skip_serializing_if` predicate (keeping default
    /// configs byte-identical to their pre-recompute serialization).
    pub fn is_off(&self) -> bool {
        matches!(self, RecomputeMode::Off)
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<RecomputeMode> {
        match s {
            "off" => Some(RecomputeMode::Off),
            "on" => Some(RecomputeMode::On),
            "auto" => Some(RecomputeMode::Auto),
            _ => None,
        }
    }
}

impl std::fmt::Display for RecomputeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecomputeMode::Off => "off",
            RecomputeMode::On => "on",
            RecomputeMode::Auto => "auto",
        })
    }
}

/// Where the DP obtains its three cost kernels — per-layer cost `c(l, s)`,
/// per-layer memory `O(l, s)` and the Slice-Gather transformation
/// `R(l, s_i, s_j)`.
///
/// [`DirectCosts`], the one production provider, calls the estimator every
/// time; test and benchmark wrappers (call counters, timers) delegate to it.
/// Implementations must return **exactly** the estimator's values, which
/// keeps every DP answer bit-identical to a direct solve.
///
/// Layer coordinates are *global* model-layer indices (`model.layers[l]`).
pub trait StageCostProvider {
    /// `c(l, s)` for a micro-batch of `micro` samples on the group starting
    /// at `base`.
    fn layer_cost(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        layer: usize,
        strategy: &IntraStageStrategy,
        micro: u64,
        base: DeviceId,
    ) -> Result<LayerCost, ClusterError>;

    /// `O(l, s)` with activations charged for `act_stash_batch` samples.
    fn layer_memory(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        layer: usize,
        strategy: &IntraStageStrategy,
        act_stash_batch: u64,
    ) -> LayerMemory;

    /// `R(l, s_prev, s_next)` across the boundary after global layer
    /// `prev_layer`, for the whole stage batch.
    #[allow(clippy::too_many_arguments)]
    fn transformation(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        prev_layer: usize,
        prev: &IntraStageStrategy,
        next: &IntraStageStrategy,
        stage_batch: u64,
        base: DeviceId,
    ) -> Result<f64, ClusterError>;

    /// `c(l, s, rc)` — [`StageCostProvider::layer_cost`] extended with the
    /// per-layer recompute decision (the fifth DP dimension). The default
    /// routes `recompute = false` through the historical kernel (bit-identity
    /// for [`RecomputeMode::Off`]) and prices the recompute plane directly
    /// via the estimator.
    #[allow(clippy::too_many_arguments)]
    fn layer_cost_rc(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        layer: usize,
        strategy: &IntraStageStrategy,
        micro: u64,
        base: DeviceId,
        recompute: bool,
    ) -> Result<LayerCost, ClusterError> {
        if recompute {
            estimator.layer_cost_with_recompute(
                &model.layers[layer],
                model.dtype,
                strategy,
                micro,
                base,
                true,
            )
        } else {
            self.layer_cost(estimator, model, layer, strategy, micro, base)
        }
    }

    /// `O(l, s, rc)` — [`StageCostProvider::layer_memory`] extended with the
    /// per-layer recompute decision; same default-routing contract as
    /// [`StageCostProvider::layer_cost_rc`].
    fn layer_memory_rc(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        layer: usize,
        strategy: &IntraStageStrategy,
        act_stash_batch: u64,
        recompute: bool,
    ) -> LayerMemory {
        if recompute {
            estimator.layer_memory_with_recompute(
                &model.layers[layer],
                model.dtype,
                strategy,
                act_stash_batch,
                true,
            )
        } else {
            self.layer_memory(estimator, model, layer, strategy, act_stash_batch)
        }
    }
}

/// The pass-through [`StageCostProvider`]: every kernel evaluation calls
/// the estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectCosts;

impl StageCostProvider for DirectCosts {
    fn layer_cost(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        layer: usize,
        strategy: &IntraStageStrategy,
        micro: u64,
        base: DeviceId,
    ) -> Result<LayerCost, ClusterError> {
        estimator.layer_cost(&model.layers[layer], model.dtype, strategy, micro, base)
    }

    fn layer_memory(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        layer: usize,
        strategy: &IntraStageStrategy,
        act_stash_batch: u64,
    ) -> LayerMemory {
        estimator.layer_memory(&model.layers[layer], model.dtype, strategy, act_stash_batch)
    }

    fn transformation(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        prev_layer: usize,
        prev: &IntraStageStrategy,
        next: &IntraStageStrategy,
        stage_batch: u64,
        base: DeviceId,
    ) -> Result<f64, ClusterError> {
        estimator.transformation_cost(
            &model.layers[prev_layer],
            model.dtype,
            prev,
            next,
            stage_batch,
            base,
        )
    }
}

/// Outcome of a per-stage search.
#[derive(Debug, Clone, PartialEq)]
pub struct DpResult {
    /// Minimum stage execution time for the whole batch, seconds.
    pub cost: f64,
    /// The chosen strategy per layer (in stage order).
    pub strategies: Vec<IntraStageStrategy>,
    /// The chosen recompute decision per layer (in stage order). Empty
    /// means "all stash" — both the [`RecomputeMode::Off`] answer and any
    /// enlarged-space answer where no layer recomputes normalize to empty,
    /// so results compare equal across modes when the decisions agree.
    pub recompute: Vec<bool>,
    /// Persistent memory of the chosen assignment, bytes per device
    /// (quantized accounting).
    pub memory_bytes: u64,
}

/// One per-stage Eq. 1 query, with every input that determines its answer:
/// the stage's layer range and device group, the runnable strategy set, the
/// batch shape (micro-batch count, activation stash), the usable budget,
/// the memory granularity and the recompute planes. Every solver answers
/// exactly this type; [`stage_queries`](crate::candidate::stage_queries)
/// builds the queries of an Algorithm-1 candidate.
#[derive(Debug, Clone)]
pub struct StageDpQuery<'a> {
    /// First layer of the stage (inclusive).
    pub layer_start: usize,
    /// One past the last layer (exclusive).
    pub layer_end: usize,
    /// First device of the stage's group.
    pub base_device: usize,
    /// The runnable candidate strategies.
    pub set: &'a StrategySet,
    /// Whole-stage batch, samples.
    pub stage_batch: u64,
    /// Usable per-device budget, bytes.
    pub usable_budget: u64,
    /// DP memory quantization granularity, bytes.
    pub granularity: u64,
    /// Micro-batches the stage runs. ZeRO-3 collectives repeat per
    /// micro-batch, which changes which strategies win inside deep
    /// pipelines.
    pub micro_batches: usize,
    /// Samples whose activations are simultaneously stashed (the whole
    /// batch under GPipe; the in-flight window under 1F1B).
    pub act_stash_batch: u64,
    /// Which per-layer recomputation planes the Eq. 1 DP may choose from.
    pub recompute: RecomputeMode,
}

impl<'a> StageDpQuery<'a> {
    /// The single-micro-batch, stash-only query for `layers` on the group
    /// starting at device 0: the whole `stage_batch` is one micro-batch
    /// and every activation is stashed. Override fields with struct-update
    /// syntax for other shapes.
    pub fn new(
        layers: Range<usize>,
        set: &'a StrategySet,
        stage_batch: u64,
        usable_budget: u64,
        granularity: u64,
    ) -> Self {
        StageDpQuery {
            layer_start: layers.start,
            layer_end: layers.end,
            base_device: 0,
            set,
            stage_batch,
            usable_budget,
            granularity,
            micro_batches: 1,
            act_stash_batch: stage_batch,
            recompute: RecomputeMode::Off,
        }
    }

    /// The stage's global layer indices.
    pub fn layers(&self) -> Range<usize> {
        self.layer_start..self.layer_end
    }
}

/// An Eq. 1 solver. Two implementations exist:
/// [`DirectStageDp`](crate::reference::DirectStageDp) (the reference
/// solver, for the serial baseline and the oracle suites) and
/// [`ArenaStageDp`](crate::arena::ArenaStageDp) (the production solver).
/// Both answer every query bit-identically.
pub trait StageDp {
    /// Answer one Eq. 1 query; `Ok(None)` when no assignment fits the
    /// budget (the paper's `∞`).
    fn solve(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        query: &StageDpQuery<'_>,
    ) -> Result<Option<DpResult>, ClusterError>;
}

/// Memory-only feasibility of an Eq. 1 query: `true` iff a solver would
/// return `Some`. The DP admits an assignment exactly when the
/// cheapest-memory decision per layer fits the quantized budget —
/// `Σ_l min_d units(l, d) ≤ e_max` over every `(strategy, recompute)`
/// decision the query's planes allow — because Eq. 1 constrains memory
/// only through the additive per-layer draw (time never gates
/// reachability). The arithmetic below (saturating `u32` quantization,
/// transient reserve, `e_max` clamp) mirrors the solvers bit for bit, so
/// the planner runs this `O(L·S)` check to reproduce Algorithm 1's
/// early-stop bookkeeping without paying the `O(L·S²·E)` solve for
/// infeasible candidates. Only the memory kernel is consulted, through
/// `provider`.
pub fn dp_feasible(
    estimator: &CostEstimator,
    model: &ModelSpec,
    q: &StageDpQuery<'_>,
    provider: &dyn StageCostProvider,
) -> bool {
    assert!(q.granularity > 0);
    if q.layer_start == q.layer_end || q.set.is_empty() {
        return true;
    }
    let mut reserve = 0u64;
    let mut min_units = 0u64;
    for l in q.layers() {
        let mut best = u32::MAX;
        for &rc in q.recompute.planes() {
            for s in q.set.iter() {
                let m = provider.layer_memory_rc(estimator, model, l, s, q.act_stash_batch, rc);
                let units =
                    u32::try_from(m.persistent().div_ceil(q.granularity)).unwrap_or(u32::MAX);
                reserve = reserve.max(m.transient);
                best = best.min(units);
            }
        }
        min_units += best as u64;
    }
    let budget_units = q.usable_budget.saturating_sub(2 * reserve) / q.granularity;
    let e_max = usize::try_from(budget_units)
        .unwrap_or(usize::MAX)
        .min(1 << 22) as u64;
    min_units <= e_max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use galvatron_cluster::{rtx_titan_node, MIB};
    use galvatron_estimator::EstimatorConfig;
    use galvatron_model::BertConfig;
    use galvatron_strategy::DecisionTreeBuilder;

    fn estimator() -> CostEstimator {
        CostEstimator::new(rtx_titan_node(8), EstimatorConfig::default())
    }

    fn tiny_bert(layers: usize) -> ModelSpec {
        BertConfig {
            layers,
            hidden: 1280,
            heads: 20,
            seq: 512,
            vocab: 30522,
        }
        .build("tiny")
    }

    #[test]
    fn feasibility_check_agrees_with_the_dp() {
        // `dp_feasible` must answer exactly `solve(..).is_some()` for
        // every budget from hopeless to generous, including the boundary
        // region where quantization and the transient reserve decide.
        let est = estimator();
        let model = tiny_bert(4);
        let set = DecisionTreeBuilder::new(8).strategies();
        let granularity = 32 * MIB;
        let mut flips = 0usize;
        let mut prev = None;
        for step in 0..40u64 {
            let budget = 64 * MIB + step * 512 * MIB;
            for batch in [8u64, 32] {
                let q = StageDpQuery::new(0..model.n_layers(), &set, batch, budget, granularity);
                let full = reference::solve(&est, &model, &q, &DirectCosts)
                    .unwrap()
                    .is_some();
                let quick = dp_feasible(&est, &model, &q, &DirectCosts);
                assert_eq!(quick, full, "budget {budget} batch {batch}");
                if prev == Some(!full) {
                    flips += 1;
                }
                prev = Some(full);
            }
        }
        assert!(flips >= 1, "sweep must cross the feasibility boundary");
    }

    #[test]
    fn empty_inputs_are_trivially_feasible() {
        let est = estimator();
        let model = tiny_bert(2);
        let set = DecisionTreeBuilder::new(8).strategies();
        let q = StageDpQuery::new(0..0, &set, 8, 0, MIB);
        assert!(dp_feasible(&est, &model, &q, &DirectCosts));
        let empty = StrategySet::new(8, Vec::new());
        let q = StageDpQuery::new(0..model.n_layers(), &empty, 8, 0, MIB);
        assert!(dp_feasible(&est, &model, &q, &DirectCosts));
    }
}
