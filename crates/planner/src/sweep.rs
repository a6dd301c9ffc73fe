//! The two-phase parallel sweep.
//!
//! **Phase A (serial, cheap):** walk Algorithm 1's candidate space in the
//! exact order of `GalvatronOptimizer::optimize`, deciding each candidate's
//! DP feasibility with the `O(L·S)` [`dp_feasible`] check instead of the
//! `O(L·S²·E)` DP. The check runs over exactly the [`stage_queries`]
//! Phase B later solves and is exact, so no dispatched candidate ever
//! comes back infeasible. Feasibility is what drives the sweep's early
//! stop (eight consecutive batches with no feasible candidate), so the
//! planner explores *exactly* the batches the serial loop explores. Each
//! candidate gets an ordinal recording its position in the serial visit
//! order.
//!
//! **Phase B (parallel):** the feasible candidates are sorted best-first
//! and `jobs` crossbeam-scoped workers claim them in that order through
//! one shared atomic index while the caller waits on the join. Every
//! worker evaluates its candidates with the shared single-candidate entry
//! point [`evaluate_candidate`] through one solver — [`ArenaStageDp`] over
//! [`DirectCosts`] — behind the [`throughput_upper_bound`] pruning gate,
//! returns its evaluations keyed by slot, and maintains a shared atomic
//! best-throughput watermark used *only* for pruning. The first failing
//! worker stops the others.
//!
//! **Reduction (serial, deterministic):** the slots are scanned in ordinal
//! order with the serial loop's strict-improvement comparison, so ties
//! resolve to the earliest candidate exactly as in the serial sweep —
//! regardless of worker count, scheduling or pruning. Pruning
//! is sound because the watermark never exceeds the final best throughput
//! and only candidates whose *upper bound* is strictly below it are
//! skipped: they can never win a strict-improvement scan.

use crate::bound::throughput_upper_bound;
use galvatron_cluster::{ClusterError, ClusterTopology};
use galvatron_core::optimizer::batch_candidates;
use galvatron_core::{
    dp_feasible, evaluate_candidate, micro_batch_candidates, runnable_set, stage_bound_sets,
    stage_queries, strategy_sets, ArenaStageDp, CandidateResult, CandidateSpec, DirectCosts,
    OptimizerConfig, SearchStats,
};
use galvatron_estimator::CostEstimator;
use galvatron_model::ModelSpec;
use galvatron_obs::Obs;
use galvatron_strategy::{ParallelPlan, StrategySet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
/// (everything except `search_seconds`, which the caller owns).
pub(crate) struct SweepOutput {
    pub best: Option<(ParallelPlan, f64, f64)>,
    pub stats: SearchStats,
}

/// Phase A's output: the `(pp, StrategySet)` list, the per-stage usable
/// budgets for each set (indexed by `set_index`), and the feasible work
/// items in serial visit order.
type EnumerateOutput = (Vec<(usize, StrategySet)>, Vec<Vec<u64>>, Vec<WorkItem>);

/// Phase A: enumerate the feasible candidates in serial order.
fn enumerate(
    config: &OptimizerConfig,
    estimator: &CostEstimator,
    model: &ModelSpec,
    topology: &ClusterTopology,
    budget_bytes: u64,
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
                    let feasible = stage_queries(config, &spec, &set, n, stage_budgets)
                        .all(|q| dp_feasible(estimator, model, &q, &DirectCosts));
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

/// Run the full sweep with `jobs` workers. `prune` of `false` disables the
/// upper-bound gate. Output is identical for every combination.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sweep(
    config: &OptimizerConfig,
    estimator: &CostEstimator,
    model: &ModelSpec,
    topology: &ClusterTopology,
    budget_bytes: u64,
    jobs: usize,
    prune: bool,
    obs: &Obs,
) -> Result<SweepOutput, ClusterError> {
    let mut stats = SearchStats::default();
    let mut phase_a = obs.span("enumerate_candidates");
    let (sets, budgets_per_set, items) =
        enumerate(config, estimator, model, topology, budget_bytes, &mut stats);
    let n_items = items.len();
    phase_a.add_field("batches", stats.batches_explored);
    phase_a.add_field("feasible_candidates", n_items);
    phase_a.finish();
    let mut phase_b = obs.span("evaluate_candidates");

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
    // Best throughput seen so far, as f64 bits (non-negative floats order
    // like their bit patterns). Used only to gate pruning — the winner is
    // picked by the deterministic reduction below.
    let watermark = AtomicU64::new(0f64.to_bits());
    // The claim index and the stop flag publish no data (each worker's
    // records come back through its join), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);

    let workers = jobs.max(1).min(n_items.max(1));
    // One solver for every worker: the arena solver over kernels straight
    // from the estimator (bit-identical to the reference DP; see
    // `galvatron_core::arena`). Its counters survive the worker scope.
    let arena_dp = ArenaStageDp::new(&DirectCosts);
    // One worker: claim the next item in best-first order until the list
    // runs out or any worker fails, and return what it evaluated keyed by
    // slot. A pruned item leaves its slot empty.
    let worker = || -> Result<Vec<(usize, EvalRecord)>, ClusterError> {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            if prune && item.upper_bound < f64::from_bits(watermark.load(Ordering::Relaxed)) {
                continue;
            }
            let started = Instant::now();
            let outcome = evaluate_candidate(
                estimator,
                model,
                config,
                &sets[item.set_index].1,
                &item.spec,
                &budgets_per_set[item.set_index],
                &arena_dp,
            )
            .inspect_err(|_| failed.store(true, Ordering::Relaxed))?;
            let mut record = EvalRecord {
                plan: None,
                throughput: 0.0,
                iteration_time: 0.0,
                seconds: started.elapsed().as_secs_f64(),
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
            done.push((item.slot, record));
        }
        Ok(done)
    };
    // Every worker is a scoped thread, `jobs = 1` included. Running a
    // worker on the caller keeps its caches warm across searches, which is
    // faster on a quiet machine, but then a search's cost swings with the
    // load on the host from one run to the next.
    let per_worker: Vec<_> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(|_| worker())).collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));

    let mut slots: Vec<Option<EvalRecord>> = (0..n_items).map(|_| None).collect();
    for done in per_worker {
        for (slot, record) in done? {
            slots[slot] = Some(record);
        }
    }
    stats.arena_solves = arena_dp.solves();
    stats.dominated_pruned = arena_dp.dominated();
    stats.minplus_pairs = arena_dp.minplus_pairs();
    stats.minplus_pairs_dense = arena_dp.minplus_pairs_dense();

    // Deterministic reduction: serial order, strict improvement — the same
    // first-wins tie-breaking as the serial loop.
    let mut best: Option<(ParallelPlan, f64, f64)> = None;
    for record in slots {
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
