//! Galvatron-BMW: balanced memory workloads on top of the Eq. 1 search.
//!
//! The paper (§5.1) defers recomputation and keeps pipeline stages
//! layer-count-uniform; the BMW follow-up (*Improving Automatic Parallel
//! Training via Balanced Memory Workload Optimization*) folds both into
//! the search. This crate orchestrates the enlarged space the core
//! planner already exposes:
//!
//! * **the fifth DP dimension** — [`RecomputeMode::Auto`] lets Eq. 1 pick
//!   `(strategy, recompute)` per layer, trading the 4/3 recompute compute
//!   ratio against activation-stash memory, and
//! * **memory-balanced partitioning** —
//!   [`PipelinePartitioner::MemoryBalanced`] sizes stages by estimated
//!   peak memory (state + schedule-depth-scaled stash) instead of FLOPs,
//!   so early stages of deep pipelines stop OOMing first.
//!
//! [`BmwPlanner`] prices every combination of the two knobs against the
//! four-paradigm baseline on the same `(model, cluster, budget)` point and
//! reports which one wins — the acceptance question ("does BMW unlock a
//! point that was infeasible or slower without it?") asked by the
//! `galvatron-bmw` bench gate.

#![warn(missing_docs)]

use galvatron_cluster::{ClusterError, ClusterTopology};
use galvatron_core::{OptimizeOutcome, OptimizerConfig, PipelinePartitioner, RecomputeMode};
use galvatron_model::ModelSpec;
use galvatron_planner::ParallelPlanner;
use serde::Serialize;

/// The four corners of the BMW knob space, baseline first.
pub const VARIANTS: [BmwVariant; 4] = [
    BmwVariant::Baseline,
    BmwVariant::Recompute,
    BmwVariant::Balanced,
    BmwVariant::Bmw,
];

/// One combination of the two BMW knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BmwVariant {
    /// The four-paradigm planner as configured: stash everything, stages
    /// split by the base partitioner.
    Baseline,
    /// Per-layer recomputation on (`RecomputeMode::Auto`), base stages.
    Recompute,
    /// Memory-balanced stages, no recomputation.
    Balanced,
    /// Both: the full BMW search space.
    Bmw,
}

impl BmwVariant {
    /// Stable lowercase label (`"baseline"`, `"recompute"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            BmwVariant::Baseline => "baseline",
            BmwVariant::Recompute => "recompute",
            BmwVariant::Balanced => "balanced",
            BmwVariant::Bmw => "bmw",
        }
    }

    /// Whether this variant searches the recompute plane.
    pub fn recompute(self) -> bool {
        matches!(self, BmwVariant::Recompute | BmwVariant::Bmw)
    }

    /// Whether this variant balances stages by memory.
    pub fn balanced(self) -> bool {
        matches!(self, BmwVariant::Balanced | BmwVariant::Bmw)
    }
}

impl Serialize for BmwVariant {
    fn __to_value(&self) -> serde::value::Value {
        self.name().__to_value()
    }
}

/// One variant's result on a `(model, cluster, budget)` point.
#[derive(Debug, Clone, Serialize)]
pub struct VariantOutcome {
    /// Which knob combination ran.
    pub variant: BmwVariant,
    /// Whether any plan fit the budget.
    pub feasible: bool,
    /// Winning global batch (0 when infeasible).
    pub global_batch: usize,
    /// Winning pipeline degree (0 when infeasible).
    pub pipeline_degree: usize,
    /// Estimated samples/second (0 when infeasible).
    pub throughput_samples_per_sec: f64,
    /// How many layers of the winning plan recompute.
    pub recompute_layers: usize,
    /// The full planner outcome, when feasible.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub outcome: Option<OptimizeOutcome>,
}

/// The four variants priced on one point, baseline first.
#[derive(Debug, Clone, Serialize)]
pub struct BmwComparison {
    /// Per-variant results in [`VARIANTS`] order.
    pub variants: Vec<VariantOutcome>,
}

impl BmwComparison {
    /// The result of one variant.
    pub fn get(&self, variant: BmwVariant) -> &VariantOutcome {
        self.variants
            .iter()
            .find(|v| v.variant == variant)
            .expect("all four variants are always priced")
    }

    /// The feasible variant with the highest throughput, if any.
    pub fn winner(&self) -> Option<&VariantOutcome> {
        self.variants.iter().filter(|v| v.feasible).fold(
            None,
            |best: Option<&VariantOutcome>, v| match best {
                Some(b) if b.throughput_samples_per_sec >= v.throughput_samples_per_sec => Some(b),
                _ => Some(v),
            },
        )
    }

    /// The acceptance predicate: the full BMW space strictly beats the
    /// baseline — either the baseline cannot train at all, or BMW trains
    /// strictly faster.
    pub fn bmw_strictly_beats_baseline(&self) -> bool {
        let baseline = self.get(BmwVariant::Baseline);
        let bmw = self.get(BmwVariant::Bmw);
        bmw.feasible
            && (!baseline.feasible
                || bmw.throughput_samples_per_sec > baseline.throughput_samples_per_sec)
    }
}

/// The BMW orchestrator: one [`ParallelPlanner`] search per knob
/// combination, sharing one base [`OptimizerConfig`].
pub struct BmwPlanner {
    config: OptimizerConfig,
}

impl BmwPlanner {
    /// Build from the base configuration. Its `recompute`/`partitioner`
    /// fields are overridden per variant; everything else (batch sweep,
    /// paradigms, estimator calibration) is shared so the comparison
    /// isolates the BMW knobs.
    pub fn new(config: OptimizerConfig) -> Self {
        BmwPlanner { config }
    }

    /// The config a variant runs with.
    pub fn variant_config(&self, variant: BmwVariant) -> OptimizerConfig {
        let mut config = self.config.clone();
        config.recompute = if variant.recompute() {
            RecomputeMode::Auto
        } else {
            RecomputeMode::Off
        };
        if variant.balanced() {
            config.partitioner = PipelinePartitioner::MemoryBalanced;
        }
        config.origin = format!("{}+{}", config.origin, variant.name());
        config
    }

    /// Run one variant on the point.
    pub fn optimize_variant(
        &self,
        variant: BmwVariant,
        model: &ModelSpec,
        topology: &ClusterTopology,
        budget_bytes: u64,
    ) -> Result<VariantOutcome, ClusterError> {
        let outcome = ParallelPlanner::with_optimizer(self.variant_config(variant)).optimize(
            model,
            topology,
            budget_bytes,
        )?;
        let recompute_layers = outcome.as_ref().map_or(0, |o| {
            o.plan
                .stages
                .iter()
                .map(|s| s.layer_recompute.iter().filter(|&&r| r).count())
                .sum()
        });
        Ok(VariantOutcome {
            variant,
            feasible: outcome.is_some(),
            global_batch: outcome.as_ref().map_or(0, |o| o.plan.global_batch),
            pipeline_degree: outcome.as_ref().map_or(0, |o| o.plan.stages.len()),
            throughput_samples_per_sec: outcome
                .as_ref()
                .map_or(0.0, |o| o.throughput_samples_per_sec),
            recompute_layers,
            outcome,
        })
    }

    /// Price all four knob combinations on the point, baseline first.
    pub fn compare(
        &self,
        model: &ModelSpec,
        topology: &ClusterTopology,
        budget_bytes: u64,
    ) -> Result<BmwComparison, ClusterError> {
        let mut variants = Vec::with_capacity(VARIANTS.len());
        for variant in VARIANTS {
            variants.push(self.optimize_variant(variant, model, topology, budget_bytes)?);
        }
        Ok(BmwComparison { variants })
    }

    /// The full BMW search on its own: recompute auto + balanced stages.
    pub fn optimize(
        &self,
        model: &ModelSpec,
        topology: &ClusterTopology,
        budget_bytes: u64,
    ) -> Result<Option<OptimizeOutcome>, ClusterError> {
        Ok(self
            .optimize_variant(BmwVariant::Bmw, model, topology, budget_bytes)?
            .outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::{rtx_titan_node, GIB};
    use galvatron_model::PaperModel;
    use galvatron_sim::{Simulator, SimulatorConfig};

    fn planner() -> BmwPlanner {
        BmwPlanner::new(OptimizerConfig {
            max_batch: 32,
            ..OptimizerConfig::default()
        })
    }

    #[test]
    fn variant_configs_set_exactly_the_advertised_knobs() {
        let planner = planner();
        let base = planner.variant_config(BmwVariant::Baseline);
        assert_eq!(base.recompute, RecomputeMode::Off);
        assert_ne!(base.partitioner, PipelinePartitioner::MemoryBalanced);
        let bmw = planner.variant_config(BmwVariant::Bmw);
        assert_eq!(bmw.recompute, RecomputeMode::Auto);
        assert_eq!(bmw.partitioner, PipelinePartitioner::MemoryBalanced);
        assert!(bmw.origin.ends_with("+bmw"));
    }

    #[test]
    fn bmw_unlocks_the_six_gib_bert_point_and_the_plan_fits() {
        // The acceptance point: BERT-Huge-48 under 6 GiB/device is
        // infeasible for the four-paradigm planner and feasible for BMW.
        let topo = rtx_titan_node(8);
        let model = PaperModel::BertHuge48.spec();
        let comparison = planner().compare(&model, &topo, 6 * GIB).unwrap();

        assert!(!comparison.get(BmwVariant::Baseline).feasible);
        let bmw = comparison.get(BmwVariant::Bmw);
        assert!(bmw.feasible);
        assert!(bmw.recompute_layers > 0);
        assert!(comparison.bmw_strictly_beats_baseline());

        // The simulator confirms the per-layer decisions fit end to end.
        let plan = &bmw.outcome.as_ref().unwrap().plan;
        let report = Simulator::new(topo, SimulatorConfig::default().with_budget(6 * GIB))
            .execute(&model, plan)
            .unwrap();
        assert!(!report.oom);
    }

    #[test]
    fn comparison_is_deterministic() {
        // Byte-identical decisions across two runs; SearchStats carries
        // wall-clock timings, so compare the plans, not the whole outcome.
        let topo = rtx_titan_node(8);
        let model = PaperModel::VitHuge32.spec();
        let planner = planner();
        let a = planner.compare(&model, &topo, 8 * GIB).unwrap();
        let b = planner.compare(&model, &topo, 8 * GIB).unwrap();
        for (va, vb) in a.variants.iter().zip(&b.variants) {
            assert_eq!(va.variant, vb.variant);
            assert_eq!(va.feasible, vb.feasible);
            assert_eq!(va.throughput_samples_per_sec, vb.throughput_samples_per_sec);
            assert_eq!(va.recompute_layers, vb.recompute_layers);
            let plan = |v: &VariantOutcome| {
                v.outcome
                    .as_ref()
                    .map(|o| serde_json::to_string(&o.plan).unwrap())
            };
            assert_eq!(plan(va), plan(vb));
        }
    }
}
