//! Algorithm 1: the optimization workflow.
//!
//! Sweep batch sizes; for each, try every power-of-two PP degree, partition
//! the model and devices, build the decision-tree strategy set, run the Eq. 1
//! DP per stage, tune micro-batches, and keep the highest-throughput plan.
//! The sweep stops at the first batch size where *no* configuration fits the
//! memory budget (memory use is monotone in batch, so nothing larger fits
//! either) — Algorithm 1 lines 14–18.
//!
//! [`GalvatronOptimizer`] is the serial reference baseline: every stage goes
//! through the reference solver, in sweep order, with no reuse. Only tests
//! and the `planner_sweep` bench construct it. Every production caller
//! plans through `galvatron-planner`'s `ParallelPlanner`, which runs the
//! same sweep and must match it bit for bit.

use crate::candidate::{
    evaluate_candidate, micro_batch_candidates, stage_bound_sets, strategy_sets, CandidateResult,
    CandidateSpec,
};
use crate::dp::RecomputeMode;
use crate::partition::PipelinePartitioner;
use crate::reference::DirectStageDp;
use galvatron_cluster::{ClusterError, ClusterTopology, MIB};
use galvatron_estimator::{CostEstimator, EstimatorConfig};
use galvatron_model::ModelSpec;
use galvatron_obs::MetricsRegistry;
use galvatron_strategy::{Paradigm, ParallelPlan, PipelineSchedule};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Planner configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Cost-model configuration.
    pub estimator: EstimatorConfig,
    /// Batch-size sweep step (the paper's Table 1 batches are multiples
    /// of 8).
    pub batch_step: usize,
    /// Upper bound on the explored global batch.
    pub max_batch: usize,
    /// Also try power-of-two batches below `batch_step` (needed to
    /// reproduce Table 4's batch-2..7 cells on memory-starved clusters).
    pub sub_step_batches: bool,
    /// Memory quantization granularity of the DP, bytes.
    pub memory_granularity: u64,
    /// Pipeline load-balancing guideline.
    pub partitioner: PipelinePartitioner,
    /// Intra-stage paradigms available to the decision trees. Restricting
    /// this models the limited-dimension automatic baselines (DP+TP, DP+PP).
    pub paradigms: Vec<Paradigm>,
    /// Allow pipeline degrees above 1.
    pub allow_pipeline: bool,
    /// Optional cap on the PP degree.
    pub max_pp_degree: Option<usize>,
    /// Apply Takeaway #3 pruning (the `planner_sweep` ablation rows turn
    /// it off).
    pub takeaway3: bool,
    /// Pipeline execution schedule for multi-stage plans. The paper
    /// evaluates GPipe; 1F1B (PipeDream-flush) is the implemented
    /// future-work extension — same bubble, smaller activation stash.
    pub schedule: PipelineSchedule,
    /// Per-layer activation recomputation planes the Eq. 1 DP chooses from
    /// (the BMW fifth dimension). [`RecomputeMode::Off`] — the default, and
    /// bit-identical to the historical four-dimension search — stashes
    /// every activation; `On` checkpoints every layer; `Auto` lets the DP
    /// pick per layer, trading the 4/3 recompute ratio against stash
    /// memory.
    #[serde(default, skip_serializing_if = "RecomputeMode::is_off")]
    pub recompute: RecomputeMode,
    /// Label stamped on emitted plans.
    pub origin: String,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            // The paper's DP excludes boundary transfers (§3.3); the final
            // candidate comparison here prices them, because at small
            // micro-batches over InfiniBand they are not "quite small" and
            // ignoring them mis-ranks deep pipelines.
            estimator: EstimatorConfig {
                include_boundary_comm: true,
                ..EstimatorConfig::default()
            },
            batch_step: 8,
            max_batch: 4096,
            sub_step_batches: false,
            memory_granularity: 16 * MIB,
            partitioner: PipelinePartitioner::ByFlops,
            paradigms: Paradigm::ALL.to_vec(),
            allow_pipeline: true,
            max_pp_degree: None,
            takeaway3: true,
            schedule: PipelineSchedule::GPipe,
            recompute: RecomputeMode::Off,
            origin: "Galvatron".to_string(),
        }
    }
}

/// Search-effort accounting (Figure 4), plus the parallel planner's
/// observability counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Batch sizes explored.
    pub batches_explored: usize,
    /// `(pp_degree, |S|)` pairs of the candidate sets used.
    pub strategy_set_sizes: Vec<(usize, usize)>,
    /// Eq. 1 invocations.
    pub dp_invocations: usize,
    /// Eq. 1 DP cells submitted: Σ over stage queries of
    /// `stage_layers × |runnable set|` (see
    /// [`CandidateOutcome::dp_cells`](crate::CandidateOutcome)).
    #[serde(default)]
    pub dp_cells_evaluated: usize,
    /// Complete candidate plans evaluated.
    pub candidate_plans: usize,
    /// Wall-clock search seconds.
    pub search_seconds: f64,
    /// Cumulative seconds inside candidate evaluations (DP solves plus the
    /// final plan pricing; the serial path accumulates this inline, workers
    /// sum their own clocks so it can exceed `search_seconds` when
    /// `jobs > 1`).
    #[serde(default)]
    pub dp_seconds: f64,
    /// Per-candidate evaluation seconds, in sweep order, for every
    /// candidate that issued at least one Eq. 1 query.
    #[serde(default)]
    pub candidate_seconds: Vec<f64>,
    /// Candidates skipped by the planner's throughput upper bound
    /// (always 0 on the serial path).
    #[serde(default)]
    pub pruned_candidates: usize,
    /// No longer incremented: always 0. The stage-DP memoization cache it
    /// counted hits on was removed (it hardly ever hit); every stage query
    /// is an arena solve. Kept so the benchmark and serialized stats still
    /// compile and parse.
    #[serde(default)]
    pub cache_hits: usize,
    /// No longer incremented: always 0 (memoization cache removed; see
    /// [`cache_hits`](Self::cache_hits)).
    #[serde(default)]
    pub cache_misses: usize,
    /// No longer incremented: always 0. The kernel intern table it counted
    /// hits on was removed (it cost more than it saved). Kept, like the
    /// three fields below, so the benchmark and serialized stats still
    /// compile and parse.
    #[serde(default)]
    pub intern_hits: usize,
    /// No longer incremented: always 0 (intern table removed; see
    /// [`intern_hits`](Self::intern_hits)).
    #[serde(default)]
    pub intern_misses: usize,
    /// No longer incremented: always 0. The monotone-memory feasibility
    /// ledger it counted was removed; every candidate stage is screened by
    /// the exact [`dp_feasible`](crate::dp::dp_feasible) check instead.
    #[serde(default)]
    pub ledger_hits: usize,
    /// No longer incremented: always 0 (ledger removed; see
    /// [`ledger_hits`](Self::ledger_hits)).
    #[serde(default)]
    pub ledger_misses: usize,
    /// No longer incremented: always 0. The planner screens every stage
    /// with the exact feasibility check before dispatching it, so a
    /// solve-time ledger gate never had anything left to prune and was
    /// removed. Kept so serialized stats and existing readers stay valid.
    #[serde(default)]
    pub warm_start_prunes: usize,
    /// Stage solves answered by the arena solver (0 on the serial
    /// reference path, which deliberately keeps the reference solver).
    #[serde(default)]
    pub arena_solves: usize,
    /// `(layer, strategy)` slots removed by the arena's dominance
    /// prefilter across those solves (0 without the arena).
    #[serde(default)]
    pub dominated_pruned: usize,
    /// `(predecessor, decision)` pairs the arena's row-delta min-plus
    /// folded across those solves (0 without the arena).
    #[serde(default)]
    pub minplus_pairs: usize,
    /// `(predecessor, decision)` pairs a dense per-row min-plus would have
    /// visited over the same windows — the denominator of the row-delta
    /// saving (0 without the arena).
    #[serde(default)]
    pub minplus_pairs_dense: usize,
    /// FNV-1a digest of the parallel planner's best-first dispatch order
    /// (candidate slot ordinals in visit order; 0 on the serial path).
    /// Pinned by the golden search-trace test: an ordering regression is
    /// caught even when the final plan is unchanged.
    #[serde(default)]
    pub visit_order_digest: u64,
}

impl SearchStats {
    /// The slowest single candidate evaluation, seconds.
    pub fn max_candidate_seconds(&self) -> f64 {
        self.candidate_seconds.iter().cloned().fold(0.0, f64::max)
    }

    /// Publish these stats into a metrics registry. `SearchStats` stays
    /// the per-search snapshot view; the registry accumulates across
    /// searches (a plan service handling many requests sums naturally).
    /// Logical counters are deterministic; the wall-clock latencies go to
    /// volatile histograms that
    /// [`MetricsSnapshot::deterministic`](galvatron_obs::MetricsSnapshot::deterministic)
    /// drops.
    pub fn record_to(&self, registry: &MetricsRegistry) {
        registry
            .counter("planner_batches_explored")
            .inc_by(self.batches_explored as u64);
        registry
            .counter("planner_dp_invocations")
            .inc_by(self.dp_invocations as u64);
        registry
            .counter("planner_dp_cells_evaluated")
            .inc_by(self.dp_cells_evaluated as u64);
        registry
            .counter("planner_candidate_plans")
            .inc_by(self.candidate_plans as u64);
        registry
            .counter("planner_candidates_pruned")
            .inc_by(self.pruned_candidates as u64);
        registry
            .counter("dp_arena_solves")
            .inc_by(self.arena_solves as u64);
        registry
            .counter("dp_dominated_pruned")
            .inc_by(self.dominated_pruned as u64);
        registry
            .counter("dp_minplus_pairs")
            .inc_by(self.minplus_pairs as u64);
        registry
            .counter("dp_minplus_pairs_dense")
            .inc_by(self.minplus_pairs_dense as u64);
        registry
            .wall_histogram("planner_search_seconds")
            .observe(self.search_seconds);
        let candidate_hist = registry.wall_histogram("planner_candidate_seconds");
        for &s in &self.candidate_seconds {
            candidate_hist.observe(s);
        }
    }
}

/// The planner's result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeOutcome {
    /// The best plan found.
    pub plan: ParallelPlan,
    /// Its estimated throughput, samples/second.
    pub throughput_samples_per_sec: f64,
    /// Its estimated iteration time, seconds.
    pub iteration_time: f64,
    /// Search-effort statistics.
    pub stats: SearchStats,
}

/// The global-batch candidates Algorithm 1 sweeps: multiples of the step,
/// optionally merged with the powers of two up to `max` (`sub_step`; the
/// paper's 8-GPU sweep uses multiples of 8 only, while its 64-GPU Table 4
/// reports batches as small as 2). A power of two that is also a multiple
/// of the step (e.g. 16 with `step = 4`) would appear in both ladders, so
/// the merged list is deduplicated — every candidate batch is explored
/// exactly once, in ascending order.
pub fn batch_candidates(step: usize, max: usize, sub_step: bool) -> Vec<usize> {
    let mut out = Vec::new();
    if sub_step {
        let mut b = 1usize;
        while b <= max {
            out.push(b);
            match b.checked_mul(2) {
                Some(next) => b = next,
                None => break,
            }
        }
    }
    let mut b = step;
    while b <= max {
        out.push(b);
        b += step;
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The serial reference implementation of Algorithm 1, kept for tests and
/// the `planner_sweep` bench to compare the production planner against.
#[derive(Debug, Clone)]
pub struct GalvatronOptimizer {
    config: OptimizerConfig,
}

impl GalvatronOptimizer {
    /// Build a planner.
    pub fn new(config: OptimizerConfig) -> Self {
        GalvatronOptimizer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Run Algorithm 1: find the highest-throughput plan for `model` on
    /// `topology` under `budget_bytes` per device. Returns `None` when even
    /// the smallest batch fits no strategy.
    pub fn optimize(
        &self,
        model: &ModelSpec,
        topology: &ClusterTopology,
        budget_bytes: u64,
    ) -> Result<Option<OptimizeOutcome>, ClusterError> {
        let started = Instant::now();
        let estimator = CostEstimator::new(topology.clone(), self.config.estimator.clone());
        let n = topology.n_devices();
        let mut stats = SearchStats::default();

        // Candidate PP degrees (Algorithm 1 line 4), their strategy sets
        // (line 7) and the stage-bound alternatives — none depend on the
        // batch, so build them once.
        let sets = strategy_sets(&self.config, model, n);
        for (p, set) in &sets {
            stats.strategy_set_sizes.push((*p, set.len()));
        }
        let bound_sets_per_pp: Vec<Vec<Vec<(usize, usize)>>> = sets
            .iter()
            .map(|&(pp, _)| stage_bound_sets(&self.config, model, topology, pp))
            .collect();
        // Per-stage usable budgets, one vector per PP degree: the legacy
        // uniform value on homogeneous clusters, per-island memory caps on
        // heterogeneous ones (see `stage_usable_budgets`).
        let budgets_per_pp: Vec<Vec<u64>> = sets
            .iter()
            .map(|&(pp, _)| topology.stage_usable_budgets(budget_bytes, pp))
            .collect();

        let mut best: Option<OptimizeOutcome> = None;
        let mut consecutive_infeasible = 0usize;
        for batch in batch_candidates(
            self.config.batch_step,
            self.config.max_batch,
            self.config.sub_step_batches,
        ) {
            stats.batches_explored += 1;
            let mut any_feasible = false;

            for (((pp, full_set), bound_sets), stage_budgets) in
                sets.iter().zip(&bound_sets_per_pp).zip(&budgets_per_pp)
            {
                for bounds in bound_sets {
                    // Micro-batch candidates for this (batch, PP) pair. The
                    // per-layer strategy choice, the bubble fraction and the
                    // ZeRO-3 per-micro-batch costs are coupled (§3.3 notes the
                    // stage/search interaction), so the planner searches the
                    // (strategy, m) product instead of tuning m after the fact.
                    for micro_batches in micro_batch_candidates(batch, *pp) {
                        let spec = CandidateSpec {
                            batch,
                            pp: *pp,
                            bounds: bounds.clone(),
                            micro_batches,
                        };
                        let candidate_started = Instant::now();
                        let out = evaluate_candidate(
                            &estimator,
                            model,
                            &self.config,
                            full_set,
                            &spec,
                            stage_budgets,
                            &DirectStageDp,
                        )?;
                        if out.dp_invocations > 0 {
                            let secs = candidate_started.elapsed().as_secs_f64();
                            stats.dp_seconds += secs;
                            stats.candidate_seconds.push(secs);
                        }
                        stats.dp_invocations += out.dp_invocations;
                        stats.dp_cells_evaluated += out.dp_cells;
                        match out.result {
                            CandidateResult::NoRunnableStrategy | CandidateResult::Infeasible => {
                                continue
                            }
                            CandidateResult::Evaluated {
                                plan,
                                throughput,
                                iteration_time,
                                fits,
                            } => {
                                any_feasible = true;
                                stats.candidate_plans += 1;
                                if !fits {
                                    // Quantization slack should prevent
                                    // this; stay safe.
                                    continue;
                                }
                                let improves = best
                                    .as_ref()
                                    .is_none_or(|b| throughput > b.throughput_samples_per_sec);
                                if improves {
                                    best = Some(OptimizeOutcome {
                                        plan,
                                        throughput_samples_per_sec: throughput,
                                        iteration_time,
                                        stats: SearchStats::default(),
                                    });
                                }
                            }
                        }
                    }
                }
            }

            if any_feasible {
                consecutive_infeasible = 0;
            } else {
                // Out of memory for every configuration (Algorithm 1 line
                // 17) — but feasibility is not monotone across the sweep:
                // a 16-way data split skips batches that are not multiples
                // of 16. Stop only once a full divisibility period of
                // candidates has failed.
                consecutive_infeasible += 1;
                if consecutive_infeasible >= 8 {
                    break;
                }
            }
        }

        stats.search_seconds = started.elapsed().as_secs_f64();
        Ok(best.map(|mut outcome| {
            outcome.stats = stats;
            outcome
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::{rtx_titan_node, TestbedPreset, GIB};
    use galvatron_model::{BertConfig, PaperModel};

    fn fast_config() -> OptimizerConfig {
        OptimizerConfig {
            max_batch: 64,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn finds_a_plan_for_vit_at_8g() {
        let topo = rtx_titan_node(8);
        let model = PaperModel::VitHuge32.spec();
        let out = GalvatronOptimizer::new(fast_config())
            .optimize(&model, &topo, 8 * GIB)
            .unwrap()
            .expect("ViT fits 8 GiB (Table 1 row)");
        assert!(out.throughput_samples_per_sec > 0.0);
        out.plan.validate(model.n_layers(), 8).unwrap();
        assert!(out.stats.batches_explored >= 2);
        assert!(out.stats.dp_invocations > 0);
    }

    #[test]
    fn impossible_budgets_return_none() {
        let topo = rtx_titan_node(8);
        let model = PaperModel::BertHuge48.spec();
        // 2 GiB cannot hold even maximally-sharded BERT-Huge-48 state.
        let out = GalvatronOptimizer::new(fast_config())
            .optimize(&model, &topo, 2 * GIB)
            .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn bigger_budgets_never_reduce_throughput() {
        let topo = rtx_titan_node(8);
        let model = BertConfig {
            layers: 8,
            hidden: 1280,
            heads: 20,
            seq: 512,
            vocab: 30522,
        }
        .build("bert-8");
        let opt = GalvatronOptimizer::new(fast_config());
        let mut prev = 0.0;
        for budget in [8 * GIB, 12 * GIB, 16 * GIB, 20 * GIB] {
            let out = opt
                .optimize(&model, &topo, budget)
                .unwrap()
                .expect("feasible");
            assert!(
                out.throughput_samples_per_sec >= prev - 1e-9,
                "budget {budget}: {} < {prev}",
                out.throughput_samples_per_sec
            );
            prev = out.throughput_samples_per_sec;
        }
    }

    #[test]
    fn restricting_paradigms_never_helps() {
        // The full search space contains the DP+TP and DP+PP spaces, so
        // Galvatron's estimated throughput dominates both — the paper's
        // headline claim, as a test.
        let topo = rtx_titan_node(8);
        let model = PaperModel::SwinHuge32.spec();
        let budget = 12 * GIB;
        let full = GalvatronOptimizer::new(fast_config())
            .optimize(&model, &topo, budget)
            .unwrap()
            .expect("feasible");
        let dp_tp = GalvatronOptimizer::new(OptimizerConfig {
            paradigms: vec![Paradigm::Data, Paradigm::Tensor],
            allow_pipeline: false,
            origin: "Galvatron (DP+TP)".into(),
            ..fast_config()
        })
        .optimize(&model, &topo, budget)
        .unwrap();
        let dp_pp = GalvatronOptimizer::new(OptimizerConfig {
            paradigms: vec![Paradigm::Data],
            origin: "Galvatron (DP+PP)".into(),
            ..fast_config()
        })
        .optimize(&model, &topo, budget)
        .unwrap();
        for limited in [dp_tp, dp_pp].into_iter().flatten() {
            assert!(
                full.throughput_samples_per_sec >= limited.throughput_samples_per_sec - 1e-9,
                "{} beat the full space",
                limited.plan.origin
            );
        }
    }

    #[test]
    fn batch_candidates_never_repeat_a_batch() {
        // Regression: with a non-power-of-two step, a power-of-two batch
        // that is also a step multiple (e.g. 8 with step 4) used to be able
        // to enter through both ladders; the merged list must explore every
        // batch exactly once, ascending.
        for step in [3usize, 4, 6, 8, 12] {
            for max in [1usize, 7, 8, 31, 64, 100] {
                for sub_step in [false, true] {
                    let got = batch_candidates(step, max, sub_step);
                    let mut unique = got.clone();
                    unique.sort_unstable();
                    unique.dedup();
                    assert_eq!(got, unique, "step {step} max {max} sub {sub_step}");
                    assert!(got.iter().all(|&b| b >= 1 && b <= max));
                }
            }
        }
        // The default power-of-two step is unchanged by the dedupe…
        assert_eq!(batch_candidates(8, 32, true), vec![1, 2, 4, 8, 16, 24, 32]);
        assert_eq!(batch_candidates(8, 32, false), vec![8, 16, 24, 32]);
        // …while overlapping ladders now merge instead of duplicating.
        assert_eq!(batch_candidates(4, 16, true), vec![1, 2, 4, 8, 12, 16]);
        assert_eq!(
            batch_candidates(6, 20, true),
            vec![1, 2, 4, 6, 8, 12, 16, 18]
        );
    }

    #[test]
    fn two_node_plans_respect_the_hierarchy() {
        let topo = TestbedPreset::RtxTitan16.topology();
        let model = BertConfig {
            layers: 8,
            hidden: 1280,
            heads: 20,
            seq: 512,
            vocab: 30522,
        }
        .build("bert-8");
        let out = GalvatronOptimizer::new(fast_config())
            .optimize(&model, &topo, 8 * GIB)
            .unwrap()
            .expect("feasible");
        out.plan.validate(model.n_layers(), 16).unwrap();
    }
}
