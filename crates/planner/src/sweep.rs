//! The two-phase parallel sweep.
//!
//! **Phase A (serial, cheap):** walk Algorithm 1's candidate space in the
//! exact order of `GalvatronOptimizer::optimize`, deciding each candidate's
//! DP feasibility with the `O(L·S)` [`dp_feasible`] check (through the
//! incremental engine's ledger when enabled) instead of the `O(L·S²·E)` DP.
//! The check runs over exactly the [`stage_queries`] Phase B later solves
//! and is exact, so no dispatched candidate ever comes back infeasible.
//! Feasibility is what drives the sweep's early stop (eight consecutive
//! batches with no feasible candidate), so the planner explores *exactly*
//! the batches the serial loop explores. Each candidate gets an ordinal
//! recording its position in the serial visit order.
//!
//! **Phase B (parallel):** the feasible candidates go into a work-stealing
//! queue and a crossbeam-scoped worker pool evaluates them with the shared
//! single-candidate entry point [`evaluate_candidate`] through one solver
//! stack — [`ArenaStageDp`] over the engine's interned kernels (or
//! [`DirectCosts`]), optionally under the memoization cache — behind the
//! [`throughput_upper_bound`] pruning gate. Workers publish completed
//! evaluations into per-candidate slots and maintain a shared atomic
//! best-throughput watermark used *only* for pruning.
//!
//! **Reduction (serial, deterministic):** the slots are scanned in ordinal
//! order with the serial loop's strict-improvement comparison, so ties
//! resolve to the earliest candidate exactly as in the serial sweep —
//! regardless of worker count, scheduling, cache state or pruning. Pruning
//! is sound because the watermark never exceeds the final best throughput
//! and only candidates whose *upper bound* is strictly below it are
//! skipped: they can never win a strict-improvement scan.

use crate::bound::throughput_upper_bound;
use crate::cache::{CachedStageDp, DpCache};
use crossbeam::deque::{Injector, Steal};
use galvatron_cluster::{ClusterError, ClusterTopology};
use galvatron_core::optimizer::batch_candidates;
use galvatron_core::{
    context_fingerprint, dp_feasible, evaluate_candidate, micro_batch_candidates, runnable_set,
    stage_bound_sets, stage_queries, strategy_sets, ArenaStageDp, BoundIncrementalDp,
    CandidateResult, CandidateSpec, DirectCosts, IncrementalEngine, OptimizerConfig, SearchStats,
    StageCostProvider, StageDp,
};
use galvatron_estimator::CostEstimator;
use galvatron_model::ModelSpec;
use galvatron_obs::Obs;
use galvatron_strategy::{ParallelPlan, StrategySet};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One dispatched unit of work: a feasible candidate plus its position in
/// the serial visit order.
struct WorkItem {
    /// Index into the evaluation-slot vector (dense, slot order = serial
    /// order among feasible candidates; *dispatch* order is best-first).
    slot: usize,
    /// Index into the `(pp, StrategySet)` list.
    set_index: usize,
    spec: CandidateSpec,
    /// The candidate's throughput upper bound — the best-first dispatch
    /// key, reused by the workers' pruning gate.
    upper_bound: f64,
}

/// What one worker recorded for one candidate.
struct EvalRecord {
    plan: Option<ParallelPlan>,
    throughput: f64,
    iteration_time: f64,
    seconds: f64,
    dp_invocations: usize,
    dp_cells: usize,
    evaluated: bool,
}

/// The sweep's result: the winning candidate (if any) and partial stats
/// (everything except `search_seconds` and the cache counters, which the
/// caller owns).
pub(crate) struct SweepOutput {
    pub best: Option<(ParallelPlan, f64, f64)>,
    pub stats: SearchStats,
}

/// Phase A's output: the `(pp, StrategySet)` list, the per-stage usable
/// budgets for each set (indexed by `set_index`), and the feasible work
/// items in serial visit order.
type EnumerateOutput = (Vec<(usize, StrategySet)>, Vec<Vec<u64>>, Vec<WorkItem>);

/// Phase A: enumerate the feasible candidates in serial order. With a
/// bound incremental engine the per-stage feasibility checks go through
/// its monotone-memory ledger, so neighbouring batches of the sweep (and
/// earlier searches over the same context) answer most checks without
/// touching the estimator.
fn enumerate(
    config: &OptimizerConfig,
    estimator: &CostEstimator,
    model: &ModelSpec,
    topology: &ClusterTopology,
    budget_bytes: u64,
    incremental: Option<&BoundIncrementalDp<'_>>,
    stats: &mut SearchStats,
) -> EnumerateOutput {
    let n = topology.n_devices();
    let sets = strategy_sets(config, model, n);
    for (p, set) in &sets {
        stats.strategy_set_sizes.push((*p, set.len()));
    }
    let bound_sets_per_pp: Vec<Vec<Vec<(usize, usize)>>> = sets
        .iter()
        .map(|&(pp, _)| stage_bound_sets(config, model, topology, pp))
        .collect();
    // Per-stage usable budgets, one vector per PP degree — identical
    // entries on homogeneous clusters (the legacy single value), per-island
    // memory caps on heterogeneous ones. Indexed by `set_index`, shared
    // with Phase B through the return value.
    let budgets_per_set: Vec<Vec<u64>> = sets
        .iter()
        .map(|&(pp, _)| topology.stage_usable_budgets(budget_bytes, pp))
        .collect();

    let mut items = Vec::new();
    let mut consecutive_infeasible = 0usize;
    for batch in batch_candidates(config.batch_step, config.max_batch, config.sub_step_batches) {
        stats.batches_explored += 1;
        let mut any_feasible = false;
        for (set_index, ((pp, full_set), bound_sets)) in
            sets.iter().zip(&bound_sets_per_pp).enumerate()
        {
            let stage_budgets = &budgets_per_set[set_index];
            for bounds in bound_sets {
                for micro_batches in micro_batch_candidates(batch, *pp) {
                    let set = runnable_set(full_set, batch / micro_batches);
                    if set.is_empty() {
                        continue;
                    }
                    let spec = CandidateSpec {
                        batch,
                        pp: *pp,
                        bounds: bounds.clone(),
                        micro_batches,
                    };
                    let feasible = stage_queries(config, &spec, &set, n, stage_budgets).all(|q| {
                        match incremental {
                            Some(bound) => bound.feasible(estimator, model, &q),
                            None => dp_feasible(estimator, model, &q, &DirectCosts),
                        }
                    });
                    if feasible {
                        any_feasible = true;
                        let upper_bound = throughput_upper_bound(model, topology, &spec);
                        items.push(WorkItem {
                            slot: items.len(),
                            set_index,
                            spec,
                            upper_bound,
                        });
                    }
                }
            }
        }
        if any_feasible {
            consecutive_infeasible = 0;
        } else {
            // Feasibility is not monotone across the sweep (divisibility);
            // stop only after a full period of infeasible batches — same
            // rule as the serial loop.
            consecutive_infeasible += 1;
            if consecutive_infeasible >= 8 {
                break;
            }
        }
    }
    (sets, budgets_per_set, items)
}

/// Run the full sweep with `jobs` workers. `cache` of `None` evaluates
/// every stage DP directly; `prune` of `false` disables the upper-bound
/// gate; `engine` of `Some` routes kernels through the shared intern table
/// and feasibility through the monotone ledger. Output is identical for
/// every combination.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sweep(
    config: &OptimizerConfig,
    estimator: &CostEstimator,
    model: &ModelSpec,
    topology: &ClusterTopology,
    budget_bytes: u64,
    jobs: usize,
    cache: Option<&DpCache>,
    engine: Option<&IncrementalEngine>,
    prune: bool,
    obs: &Obs,
) -> Result<SweepOutput, ClusterError> {
    let mut stats = SearchStats::default();
    let bound = engine.map(|e| e.bind(estimator, model));
    let mut phase_a = obs.span("enumerate_candidates");
    let (sets, budgets_per_set, items) = enumerate(
        config,
        estimator,
        model,
        topology,
        budget_bytes,
        bound.as_ref(),
        &mut stats,
    );
    let n_items = items.len();
    phase_a.add_field("batches", stats.batches_explored);
    phase_a.add_field("feasible_candidates", n_items);
    phase_a.finish();
    let mut phase_b = obs.span("evaluate_candidates");

    let context = cache.map(|c| c.intern(&context_fingerprint(estimator, model)));
    // Best-first dispatch: highest upper bound first (ties keep serial
    // order). The first evaluations are the candidates that *can* win, so
    // the pruning watermark tightens to near its final value almost
    // immediately and the long tail of hopeless candidates is skipped.
    // Correctness is untouched: the reduction below scans completed slots
    // in serial order, and pruning remains gated on the strict upper-bound
    // comparison proven sound in `bound`.
    let mut items = items;
    items.sort_by(|a, b| {
        b.upper_bound
            .partial_cmp(&a.upper_bound)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.slot.cmp(&b.slot))
    });
    // Pin the visit order: FNV-1a over the dispatched slot ordinals. The
    // golden search-trace test catches ordering regressions even when the
    // final plan is unchanged.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for item in &items {
        for byte in (item.slot as u64).to_le_bytes() {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(0x1000_0000_01b3);
        }
    }
    stats.visit_order_digest = digest;
    let queue: Injector<WorkItem> = Injector::new();
    for item in items {
        queue.push(item);
    }
    let slots: Mutex<Vec<Option<EvalRecord>>> = Mutex::new((0..n_items).map(|_| None).collect());
    // Best throughput seen so far, as f64 bits (non-negative floats order
    // like their bit patterns). Used only to gate pruning — the winner is
    // picked by the deterministic reduction below.
    let watermark = AtomicU64::new(0f64.to_bits());
    let first_error: Mutex<Option<ClusterError>> = Mutex::new(None);

    let workers = jobs.max(1).min(n_items.max(1));
    // Solver stack, innermost out: kernels from the incremental engine's
    // intern table (when enabled) or straight from the estimator, the
    // arena solver (bit-identical to the reference DP; see
    // `galvatron_core::arena`), then the whole-query memoization cache
    // (when enabled). Workers share every layer; the arena solver's
    // counters survive the worker scope.
    let kernels: &(dyn StageCostProvider + Sync) = match &bound {
        Some(b) => b,
        None => &DirectCosts,
    };
    let arena_dp = ArenaStageDp::new(kernels);
    crossbeam::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| {
                let cached = context.map(|ctx| CachedStageDp::over(cache.unwrap(), ctx, &arena_dp));
                let dp: &dyn StageDp = match &cached {
                    Some(c) => c,
                    None => &arena_dp,
                };
                loop {
                    let item = match queue.steal() {
                        Steal::Success(item) => item,
                        Steal::Empty => break,
                        Steal::Retry => continue,
                    };
                    if first_error.lock().is_some() {
                        continue; // drain the queue, nothing more to do
                    }
                    if prune {
                        let best = f64::from_bits(watermark.load(Ordering::Relaxed));
                        if item.upper_bound < best {
                            continue; // slot stays empty → counted as pruned
                        }
                    }
                    let started = Instant::now();
                    let outcome = match evaluate_candidate(
                        estimator,
                        model,
                        config,
                        &sets[item.set_index].1,
                        &item.spec,
                        &budgets_per_set[item.set_index],
                        dp,
                    ) {
                        Ok(outcome) => outcome,
                        Err(error) => {
                            let mut guard = first_error.lock();
                            if guard.is_none() {
                                *guard = Some(error);
                            }
                            continue;
                        }
                    };
                    let seconds = started.elapsed().as_secs_f64();
                    let mut record = EvalRecord {
                        plan: None,
                        throughput: 0.0,
                        iteration_time: 0.0,
                        seconds,
                        dp_invocations: outcome.dp_invocations,
                        dp_cells: outcome.dp_cells,
                        evaluated: false,
                    };
                    if let CandidateResult::Evaluated {
                        plan,
                        throughput,
                        iteration_time,
                        fits,
                    } = outcome.result
                    {
                        record.evaluated = true;
                        if fits {
                            watermark.fetch_max(throughput.to_bits(), Ordering::Relaxed);
                            record.plan = Some(plan);
                            record.throughput = throughput;
                            record.iteration_time = iteration_time;
                        }
                    }
                    slots.lock()[item.slot] = Some(record);
                }
            });
        }
    })
    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));

    if let Some(error) = first_error.into_inner() {
        return Err(error);
    }
    stats.arena_solves = arena_dp.solves();
    stats.dominated_pruned = arena_dp.dominated();
    stats.minplus_pairs = arena_dp.minplus_pairs();
    stats.minplus_pairs_dense = arena_dp.minplus_pairs_dense();

    // Deterministic reduction: serial order, strict improvement — the same
    // first-wins tie-breaking as the serial loop.
    let mut best: Option<(ParallelPlan, f64, f64)> = None;
    for record in slots.into_inner().into_iter() {
        let Some(record) = record else {
            stats.pruned_candidates += 1;
            continue;
        };
        stats.dp_invocations += record.dp_invocations;
        stats.dp_cells_evaluated += record.dp_cells;
        if record.dp_invocations > 0 {
            stats.dp_seconds += record.seconds;
            stats.candidate_seconds.push(record.seconds);
        }
        if record.evaluated {
            stats.candidate_plans += 1;
        }
        if let Some(plan) = record.plan {
            let improves = best
                .as_ref()
                .is_none_or(|(_, throughput, _)| record.throughput > *throughput);
            if improves {
                best = Some((plan, record.throughput, record.iteration_time));
            }
        }
    }
    phase_b.add_field("workers", workers);
    phase_b.add_field("evaluated", n_items - stats.pruned_candidates);
    phase_b.add_field("pruned", stats.pruned_candidates);
    phase_b.finish();
    Ok(SweepOutput { best, stats })
}
