//! The single-candidate evaluation unit shared by the serial optimizer and
//! the parallel planning engine (`galvatron-planner`).
//!
//! Algorithm 1's sweep is a product of independent *candidates* — one
//! `(batch, PP degree, stage bounds, micro-batch count)` combination each.
//! [`evaluate_candidate`] evaluates exactly one: filter the strategy set to
//! the runnable subset, run the Eq. 1 DP per stage, assemble the plan, and
//! price it. Both `GalvatronOptimizer::optimize` (serially, in sweep order)
//! and the parallel planner (best-first across its workers, with bound
//! pruning) call this same function, so the two fronts cannot drift.
//!
//! The per-stage DP is routed through the [`StageDp`] trait: the serial
//! path uses the reference [`DirectStageDp`](crate::reference::DirectStageDp),
//! the parallel planner the arena solver.
//! [`stage_queries`] is the one place a candidate becomes per-stage Eq. 1
//! queries — the planner's feasibility screen poses exactly the queries
//! [`evaluate_candidate`] later solves.

use crate::dp::{StageDp, StageDpQuery};
use crate::optimizer::OptimizerConfig;
use crate::partition::{partition_memory_balanced, PipelinePartitioner};
use galvatron_cluster::{ClusterError, ClusterTopology};
use galvatron_estimator::CostEstimator;
use galvatron_model::ModelSpec;
use galvatron_strategy::{
    DecisionTreeBuilder, IntraStageStrategy, ParallelPlan, StagePlan, StrategySet,
};
use serde::{Deserialize, Serialize};

/// One independent unit of Algorithm 1's sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateSpec {
    /// Global batch size.
    pub batch: usize,
    /// Pipeline degree.
    pub pp: usize,
    /// Stage layer bounds, `(start, end)` per stage.
    pub bounds: Vec<(usize, usize)>,
    /// GPipe/1F1B micro-batch count.
    pub micro_batches: usize,
}

/// What evaluating a candidate produced.
#[derive(Debug, Clone)]
pub enum CandidateResult {
    /// No strategy in the set divides the micro-batch; nothing to run.
    NoRunnableStrategy,
    /// Some stage's DP found no assignment within the budget.
    Infeasible,
    /// A complete plan was built and priced. `fits` is the final
    /// quantization-slack re-check of the plan's estimated peak against the
    /// usable budget (Algorithm 1 keeps the candidate feasible either way).
    Evaluated {
        /// The assembled plan.
        plan: ParallelPlan,
        /// Estimated samples/second.
        throughput: f64,
        /// Estimated iteration seconds.
        iteration_time: f64,
        /// Whether the priced peak memory fits the usable budget.
        fits: bool,
    },
}

/// [`evaluate_candidate`]'s result plus its search-effort accounting.
#[derive(Debug, Clone)]
pub struct CandidateOutcome {
    /// The evaluation result.
    pub result: CandidateResult,
    /// Eq. 1 queries issued (one per stage attempted).
    pub dp_invocations: usize,
    /// Eq. 1 DP cells submitted across those queries: Σ over attempted
    /// stages of `stage_layers × |runnable set|` — the `(layer, strategy)`
    /// state count of each solve, the unit Figure 4's search-cost argument
    /// is phrased in.
    pub dp_cells: usize,
}

/// Candidate PP degrees (Algorithm 1 line 4) and their decision-tree
/// strategy sets (line 7). Sets do not depend on the batch, so both fronts
/// build them once per request.
///
/// PP degrees are the divisors of `n_devices` whose stage group size is a
/// power of two — the decision-tree decomposition (Takeaway #2) only
/// splits power-of-two groups. On power-of-two clusters this is exactly
/// the classic `1, 2, 4, …` ladder; on degraded survivor clusters (say 6
/// devices after 2 failures) it admits `pp = 3` over groups of 2 and
/// `pp = 6` over single devices, so re-planning can use every survivor.
pub fn strategy_sets(
    config: &OptimizerConfig,
    model: &ModelSpec,
    n_devices: usize,
) -> Vec<(usize, StrategySet)> {
    let mut out = Vec::new();
    for p in 1..=n_devices {
        if !n_devices.is_multiple_of(p) || !(n_devices / p).is_power_of_two() {
            continue;
        }
        let allowed = (p == 1 || config.allow_pipeline)
            && p <= config.max_pp_degree.unwrap_or(n_devices)
            && p <= model.n_layers();
        if allowed {
            let set = DecisionTreeBuilder::new(n_devices / p)
                .with_paradigms(&config.paradigms)
                .with_takeaway3(config.takeaway3)
                .strategies();
            out.push((p, set));
        }
    }
    out
}

/// The deduplicated stage-bound alternatives for one PP degree: the
/// configured partitioner first, then the activation- and count-balanced
/// guidelines of §3.3, each scaled by per-stage device speeds on
/// heterogeneous clusters.
pub fn stage_bound_sets(
    config: &OptimizerConfig,
    model: &ModelSpec,
    topology: &ClusterTopology,
    pp: usize,
) -> Vec<Vec<(usize, usize)>> {
    let n = topology.n_devices();
    let group = n / pp;
    let mut partitioners = vec![config.partitioner];
    for extra in [
        PipelinePartitioner::ByActivation,
        PipelinePartitioner::ByLayerCount,
    ] {
        if !partitioners.contains(&extra) {
            partitioners.push(extra);
        }
    }
    let capacities: Option<Vec<f64>> = if topology.is_heterogeneous() {
        Some(
            (0..pp)
                .map(|i| {
                    topology
                        .group_sustained_flops(i * group, group)
                        .expect("groups tile the cluster")
                })
                .collect(),
        )
    } else {
        None
    };
    let mut bound_sets: Vec<Vec<(usize, usize)>> = Vec::new();
    for partitioner in partitioners {
        // The memory-balanced guideline is schedule-aware: the configured
        // schedule's in-flight depth shapes the per-stage stash factors.
        // It only enters the enumeration when explicitly configured, so
        // default sweeps are unchanged.
        let bounds = if partitioner == PipelinePartitioner::MemoryBalanced {
            partition_memory_balanced(model, pp, config.schedule, capacities.as_deref())
        } else {
            partitioner.partition_with_capacities(model, pp, capacities.as_deref())
        };
        if !bound_sets.contains(&bounds) {
            bound_sets.push(bounds);
        }
    }
    bound_sets
}

/// Micro-batch counts explored for a `(batch, pp)` pair: 1 for a flat
/// schedule, otherwise the powers of two dividing the batch.
pub fn micro_batch_candidates(batch: usize, pp: usize) -> Vec<usize> {
    if pp == 1 {
        return vec![1];
    }
    let mut ms = Vec::new();
    let mut m = 1usize;
    while m <= batch {
        if batch.is_multiple_of(m) {
            ms.push(m);
        }
        m *= 2;
    }
    ms
}

/// The runnable subset of `full_set` for a micro-batch of `micro` samples:
/// strategies whose data split divides the micro-batch.
pub fn runnable_set(full_set: &StrategySet, micro: usize) -> StrategySet {
    let runnable: Vec<IntraStageStrategy> = full_set
        .iter()
        .filter(|s| micro.is_multiple_of(s.data_degree()))
        .cloned()
        .collect();
    StrategySet::new(full_set.group_size(), runnable)
}

/// The per-stage Eq. 1 queries of one candidate, in stage order: stage
/// `i` covers `spec.bounds[i]` on the device group starting at
/// `i · n_devices / pp` under `stage_budgets[i]`, with `set` (the
/// candidate's [`runnable_set`]) and activations stashed for the
/// schedule's in-flight micro-batches (the whole batch under GPipe; the
/// stage's in-flight window under 1F1B).
pub fn stage_queries<'a>(
    config: &'a OptimizerConfig,
    spec: &'a CandidateSpec,
    set: &'a StrategySet,
    n_devices: usize,
    stage_budgets: &'a [u64],
) -> impl Iterator<Item = StageDpQuery<'a>> + 'a {
    debug_assert_eq!(stage_budgets.len(), spec.pp, "one usable budget per stage");
    let group = n_devices / spec.pp;
    spec.bounds
        .iter()
        .enumerate()
        .map(move |(i, &(start, end))| StageDpQuery {
            layer_start: start,
            layer_end: end,
            base_device: i * group,
            set,
            stage_batch: spec.batch as u64,
            usable_budget: stage_budgets[i],
            granularity: config.memory_granularity,
            micro_batches: spec.micro_batches,
            act_stash_batch: config.schedule.stash_samples(
                i,
                spec.pp,
                spec.micro_batches,
                spec.batch,
            ),
            recompute: config.recompute,
        })
}

/// Evaluate one candidate of Algorithm 1's sweep, exactly as the serial
/// loop does: filter the runnable strategies, run Eq. 1 per stage through
/// `dp`, assemble the plan and price it with `estimator`.
///
/// `stage_budgets` holds the usable per-device budget of each pipeline
/// stage (`stage_budgets.len() == spec.pp`), as produced by
/// [`ClusterTopology::stage_usable_budgets`]: identical entries on
/// homogeneous clusters (so every DP query and plan is
/// bit-identical to the historical single-budget path), per-island caps on
/// heterogeneous ones.
pub fn evaluate_candidate(
    estimator: &CostEstimator,
    model: &ModelSpec,
    config: &OptimizerConfig,
    full_set: &StrategySet,
    spec: &CandidateSpec,
    stage_budgets: &[u64],
    dp: &dyn StageDp,
) -> Result<CandidateOutcome, ClusterError> {
    let n = estimator.topology().n_devices();
    let pp = spec.pp;
    let group = n / pp;
    let batch = spec.batch;
    let micro_batches = spec.micro_batches;
    let micro = batch / micro_batches;

    let set = runnable_set(full_set, micro);
    if set.is_empty() {
        return Ok(CandidateOutcome {
            result: CandidateResult::NoRunnableStrategy,
            dp_invocations: 0,
            dp_cells: 0,
        });
    }

    let mut dp_invocations = 0usize;
    let mut dp_cells = 0usize;
    let mut stage_results = Vec::with_capacity(pp);
    // A decision cell is a `(layer, strategy, recompute-plane)` triple; with
    // recomputation off this is exactly the historical strategy count.
    let n_planes = config.recompute.planes().len();
    for query in stage_queries(config, spec, &set, n, stage_budgets) {
        dp_invocations += 1;
        dp_cells += query.layers().len() * set.len() * n_planes;
        match dp.solve(estimator, model, &query)? {
            Some(result) => stage_results.push(result),
            None => {
                return Ok(CandidateOutcome {
                    result: CandidateResult::Infeasible,
                    dp_invocations,
                    dp_cells,
                });
            }
        }
    }

    let stages: Vec<StagePlan> = spec
        .bounds
        .iter()
        .zip(stage_results)
        .enumerate()
        .map(|(i, (&(start, end), result))| StagePlan {
            layer_start: start,
            layer_end: end,
            device_base: i * group,
            device_count: group,
            layer_strategies: result.strategies,
            layer_recompute: result.recompute,
        })
        .collect();
    let plan = ParallelPlan {
        origin: config.origin.clone(),
        global_batch: batch,
        micro_batches,
        schedule: config.schedule,
        stages,
    };
    debug_assert!(plan.validate(model.n_layers(), n).is_ok());

    let cost = estimator.plan_cost(model, &plan)?;
    // Per-stage re-check: each stage's priced peak against its own budget.
    // With uniform budgets this is exactly the historical
    // `peak_memory() <= usable` comparison.
    let fits = cost
        .stage_peak_memory
        .iter()
        .zip(stage_budgets)
        .all(|(&peak, &usable)| peak <= usable);
    Ok(CandidateOutcome {
        result: CandidateResult::Evaluated {
            throughput: cost.throughput,
            iteration_time: cost.iteration_time,
            plan,
            fits,
        },
        dp_invocations,
        dp_cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::{rtx_titan_node, GIB};
    use galvatron_estimator::EstimatorConfig;
    use galvatron_model::BertConfig;

    fn bert(layers: usize) -> ModelSpec {
        BertConfig {
            layers,
            hidden: 1280,
            heads: 20,
            seq: 512,
            vocab: 30522,
        }
        .build("bert")
    }

    #[test]
    fn strategy_sets_match_the_decision_trees() {
        let config = OptimizerConfig::default();
        let model = bert(8);
        let sets = strategy_sets(&config, &model, 8);
        let degrees: Vec<usize> = sets.iter().map(|&(p, _)| p).collect();
        assert_eq!(degrees, vec![1, 2, 4, 8]);
        for (p, set) in &sets {
            assert_eq!(set.group_size(), 8 / p);
        }
    }

    #[test]
    fn survivor_clusters_admit_non_power_of_two_pipeline_degrees() {
        // A 6-device cluster (8 minus 2 failures) pipelines as 3 stages of
        // 2 devices or 6 stages of 1 — groups stay powers of two, so the
        // decision-tree decomposition still applies per stage.
        let config = OptimizerConfig::default();
        let sets = strategy_sets(&config, &bert(8), 6);
        let degrees: Vec<usize> = sets.iter().map(|&(p, _)| p).collect();
        assert_eq!(degrees, vec![3, 6]);
        for (p, set) in &sets {
            assert_eq!(set.group_size(), 6 / p);
        }
        // 12 devices: pp ∈ {3, 6, 12} (groups 4, 2, 1).
        let degrees: Vec<usize> = strategy_sets(&config, &bert(12), 12)
            .iter()
            .map(|&(p, _)| p)
            .collect();
        assert_eq!(degrees, vec![3, 6, 12]);
    }

    #[test]
    fn no_pipeline_config_keeps_only_pp1() {
        let config = OptimizerConfig {
            allow_pipeline: false,
            ..OptimizerConfig::default()
        };
        let sets = strategy_sets(&config, &bert(8), 8);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].0, 1);
    }

    #[test]
    fn micro_candidates_divide_the_batch() {
        assert_eq!(micro_batch_candidates(24, 1), vec![1]);
        assert_eq!(micro_batch_candidates(24, 2), vec![1, 2, 4, 8]);
        assert_eq!(micro_batch_candidates(8, 4), vec![1, 2, 4, 8]);
    }

    #[test]
    fn evaluating_a_flat_candidate_matches_plan_cost() {
        let topo = rtx_titan_node(8);
        let config = OptimizerConfig::default();
        let estimator = CostEstimator::new(
            topo.clone(),
            EstimatorConfig {
                include_boundary_comm: true,
                ..EstimatorConfig::default()
            },
        );
        let model = bert(4);
        let sets = strategy_sets(&config, &model, 8);
        let usable = topo.usable_budget(16 * GIB);
        let spec = CandidateSpec {
            batch: 16,
            pp: 1,
            bounds: vec![(0, model.n_layers())],
            micro_batches: 1,
        };
        let out = evaluate_candidate(
            &estimator,
            &model,
            &config,
            &sets[0].1,
            &spec,
            &[usable],
            &crate::reference::DirectStageDp,
        )
        .unwrap();
        assert_eq!(out.dp_invocations, 1);
        // One flat stage: cells = layers × |runnable set|.
        assert_eq!(
            out.dp_cells,
            model.n_layers() * runnable_set(&sets[0].1, 16).len()
        );
        match out.result {
            CandidateResult::Evaluated {
                plan,
                throughput,
                fits,
                ..
            } => {
                assert!(fits);
                assert!(throughput > 0.0);
                plan.validate(model.n_layers(), 8).unwrap();
            }
            other => panic!("expected an evaluated candidate, got {other:?}"),
        }
    }
}
