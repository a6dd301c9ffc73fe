//! `galvatron-planner`: the production planning front-end, and the only
//! Algorithm-1 loop production code calls — the CLI, the plan service, the
//! baseline rows, the BMW study and the paper-figure binaries all plan
//! through [`ParallelPlanner`].
//!
//! [`GalvatronOptimizer`](galvatron_core::GalvatronOptimizer) runs
//! Algorithm 1 serially through the reference solver; tests and the
//! `planner_sweep` bench keep it as the baseline. This crate runs the
//! *same* search — the same candidate space, the same early-stop rule,
//! the same tie-breaking — on a work-stealing worker pool over the
//! production solver, [`ArenaStageDp`](galvatron_core::ArenaStageDp)
//! (fed interned kernels by the
//! [`IncrementalEngine`](galvatron_core::IncrementalEngine) when
//! `incremental` is on), with two accelerations layered on top:
//!
//! * a **shared stage-DP memoization cache** ([`DpCache`]): Eq. 1
//!   sub-problems recur across partitioner guidelines, PP degrees, budget
//!   points and service requests, and a cached answer is bit-identical to a
//!   recompute;
//! * **bound-based pruning** ([`bound::throughput_upper_bound`]): a
//!   candidate whose optimistic throughput bound is strictly below the best
//!   found so far is skipped, which cannot change the winner of the
//!   strict-improvement reduction.
//!
//! The planner's output is byte-identical to the serial optimizer for every
//! `jobs` count and for every cache/pruning combination; the
//! `planner_parallelism` integration suite asserts this across the model
//! zoo and budget grid, and the `planner_sweep` bench measures the gain
//! (`BENCH_planner_sweep.json`).
//!
//! [`PlanService`] plans many requests against one shared cache.

#![warn(missing_docs)]

pub mod bound;
pub mod cache;
pub mod service;
mod sweep;

pub use cache::{CacheCounters, CachedStageDp, DpCache};
pub use service::{PlanRequest, PlanResponse, PlanService};

use galvatron_cluster::{ClusterError, ClusterTopology};
use galvatron_core::{IncrementalEngine, OptimizeOutcome, OptimizerConfig};
use galvatron_estimator::CostEstimator;
use galvatron_model::ModelSpec;
use galvatron_obs::Obs;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Configuration of the parallel planner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// The search configuration (identical semantics to the serial
    /// optimizer's).
    pub optimizer: OptimizerConfig,
    /// Worker threads; `0` means the machine's available parallelism.
    pub jobs: usize,
    /// Share stage-DP solutions through the memoization cache.
    pub use_cache: bool,
    /// Skip candidates whose throughput upper bound cannot beat the best.
    pub prune: bool,
    /// Route kernel evaluations through the incremental engine's shared
    /// intern table and feasibility checks through its monotone-memory
    /// ledger (bit-identical plans; see
    /// [`IncrementalEngine`](galvatron_core::IncrementalEngine)). Configs
    /// serialized before this field existed deserialize to `false`
    /// (engine off), the conservative pre-existing behaviour; fresh
    /// `PlannerConfig::default()` turns it on.
    #[serde(default)]
    pub incremental: bool,
    /// Entry bound on the long-lived stage-DP memoization cache a
    /// [`PlanService`] owns, with LRU-ish eviction beyond it. `None` (the
    /// default, and what configs serialized before this field existed
    /// deserialize to) keeps the cache unbounded — the pre-existing
    /// behaviour, right for one-shot studies but not for a daemon.
    /// Eviction only forgets memoized work, so plans are unaffected.
    #[serde(default)]
    pub cache_max_entries: Option<usize>,
    /// Entry bound on the service's incremental engine (kernel intern
    /// tables and feasibility ledger), mirroring
    /// [`cache_max_entries`](Self::cache_max_entries). `None` = unbounded.
    #[serde(default)]
    pub intern_max_entries: Option<usize>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            optimizer: OptimizerConfig::default(),
            jobs: 0,
            use_cache: true,
            prune: true,
            incremental: true,
            cache_max_entries: None,
            intern_max_entries: None,
        }
    }
}

/// The work-stealing parallel planner. Produces exactly the plans the
/// serial [`GalvatronOptimizer`](galvatron_core::GalvatronOptimizer) does,
/// faster.
#[derive(Debug, Clone)]
pub struct ParallelPlanner {
    config: PlannerConfig,
    obs: Obs,
}

impl ParallelPlanner {
    /// Build a planner.
    pub fn new(config: PlannerConfig) -> Self {
        ParallelPlanner {
            config,
            obs: Obs::noop(),
        }
    }

    /// Attach a telemetry handle: sweeps emit `enumerate_candidates` /
    /// `evaluate_candidates` phase spans and every search records its
    /// [`SearchStats`](galvatron_core::SearchStats) into the registry.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// A planner with default parallelism over a given search
    /// configuration.
    pub fn with_optimizer(optimizer: OptimizerConfig) -> Self {
        ParallelPlanner::new(PlannerConfig {
            optimizer,
            ..PlannerConfig::default()
        })
    }

    /// The configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// The worker count a sweep will actually use.
    pub fn effective_jobs(&self) -> usize {
        resolve_jobs(self.config.jobs)
    }

    /// Run Algorithm 1 for `model` on `topology` under `budget_bytes` per
    /// device. Same contract as `GalvatronOptimizer::optimize`, same
    /// result, different engine.
    pub fn optimize(
        &self,
        model: &ModelSpec,
        topology: &ClusterTopology,
        budget_bytes: u64,
    ) -> Result<Option<OptimizeOutcome>, ClusterError> {
        let cache = self.config.use_cache.then(DpCache::new);
        let engine = self.config.incremental.then(IncrementalEngine::new);
        self.run(
            model,
            topology,
            budget_bytes,
            cache.as_ref(),
            engine.as_ref(),
        )
    }

    /// The fully explicit entry point — the building block of
    /// [`PlanService`]: run one search against caller-owned reuse
    /// structures — a (possibly warm) stage-DP memoization cache and/or a
    /// (possibly warm) incremental engine. Both outlive the call, so later
    /// searches over the same context start warm. `None` runs without that
    /// layer, whatever the config's `use_cache` / `incremental` say.
    pub fn optimize_with_reuse(
        &self,
        model: &ModelSpec,
        topology: &ClusterTopology,
        budget_bytes: u64,
        cache: Option<&DpCache>,
        engine: Option<&IncrementalEngine>,
    ) -> Result<Option<OptimizeOutcome>, ClusterError> {
        self.run(model, topology, budget_bytes, cache, engine)
    }

    fn run(
        &self,
        model: &ModelSpec,
        topology: &ClusterTopology,
        budget_bytes: u64,
        cache: Option<&DpCache>,
        engine: Option<&IncrementalEngine>,
    ) -> Result<Option<OptimizeOutcome>, ClusterError> {
        let started = Instant::now();
        let mut search_span = self
            .obs
            .span("dp_search")
            .field("model", model.name.as_str())
            .field("n_devices", topology.n_devices())
            .field("jobs", self.effective_jobs());
        let estimator =
            CostEstimator::new(topology.clone(), self.config.optimizer.estimator.clone());
        let counters_before = cache.map(|c| c.counters());
        let engine_before = engine.map(|e| e.counters());
        let output = sweep::run_sweep(
            &self.config.optimizer,
            &estimator,
            model,
            topology,
            budget_bytes,
            self.effective_jobs(),
            cache,
            engine,
            self.config.prune,
            &self.obs,
        )?;
        let mut stats = output.stats;
        if let (Some(cache), Some(before)) = (cache, counters_before) {
            let delta = cache.counters().since(&before);
            stats.cache_hits = delta.hits;
            stats.cache_misses = delta.misses;
        }
        if let (Some(engine), Some(before)) = (engine, engine_before) {
            let delta = engine.counters().since(&before);
            stats.intern_hits = delta.intern_hits;
            stats.intern_misses = delta.intern_misses;
            stats.ledger_hits = delta.ledger_hits;
            stats.ledger_misses = delta.ledger_misses;
        }
        stats.search_seconds = started.elapsed().as_secs_f64();
        stats.record_to(self.obs.registry());
        search_span.add_field("dp_invocations", stats.dp_invocations);
        search_span.add_field("dp_cells", stats.dp_cells_evaluated);
        search_span.add_field("pruned", stats.pruned_candidates);
        search_span.add_field("feasible", output.best.is_some());
        search_span.finish();
        Ok(output
            .best
            .map(|(plan, throughput, iteration_time)| OptimizeOutcome {
                plan,
                throughput_samples_per_sec: throughput,
                iteration_time,
                stats,
            }))
    }
}

fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        return jobs;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::{rtx_titan_node, GIB};
    use galvatron_core::GalvatronOptimizer;
    use galvatron_model::BertConfig;

    fn small_model() -> ModelSpec {
        BertConfig {
            layers: 6,
            hidden: 1024,
            heads: 16,
            seq: 256,
            vocab: 30522,
        }
        .build("bert-6")
    }

    fn fast_optimizer() -> OptimizerConfig {
        OptimizerConfig {
            max_batch: 32,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn matches_the_serial_optimizer() {
        let topo = rtx_titan_node(8);
        let model = small_model();
        let serial = GalvatronOptimizer::new(fast_optimizer())
            .optimize(&model, &topo, 8 * GIB)
            .unwrap()
            .expect("feasible");
        let parallel = ParallelPlanner::new(PlannerConfig {
            optimizer: fast_optimizer(),
            jobs: 4,
            use_cache: true,
            prune: true,
            incremental: true,
            cache_max_entries: None,
            intern_max_entries: None,
        })
        .optimize(&model, &topo, 8 * GIB)
        .unwrap()
        .expect("feasible");
        assert_eq!(serial.plan, parallel.plan);
        assert_eq!(
            serial.throughput_samples_per_sec,
            parallel.throughput_samples_per_sec
        );
        assert_eq!(serial.iteration_time, parallel.iteration_time);
    }

    #[test]
    fn cache_counters_are_reported() {
        let topo = rtx_titan_node(8);
        let model = small_model();
        let out = ParallelPlanner::new(PlannerConfig {
            optimizer: fast_optimizer(),
            jobs: 2,
            use_cache: true,
            prune: false,
            incremental: true,
            cache_max_entries: None,
            intern_max_entries: None,
        })
        .optimize(&model, &topo, 8 * GIB)
        .unwrap()
        .expect("feasible");
        assert!(out.stats.cache_misses > 0);
        assert!(out.stats.cache_hit_rate().is_some());
        assert!(!out.stats.candidate_seconds.is_empty());
        assert!(out.stats.dp_seconds > 0.0);
    }

    #[test]
    fn plans_on_degraded_six_device_clusters() {
        // Two devices lost from the 8-GPU testbed: the sweep pipelines the
        // 6 survivors as 3×2 or 6×1 and must find a feasible plan.
        let model = small_model();
        let topo = rtx_titan_node(8).without_devices(&[6, 7]).unwrap().topology;
        let out = ParallelPlanner::new(PlannerConfig {
            optimizer: fast_optimizer(),
            jobs: 2,
            use_cache: true,
            prune: true,
            incremental: true,
            cache_max_entries: None,
            intern_max_entries: None,
        })
        .optimize(&model, &topo, 8 * GIB)
        .unwrap()
        .expect("feasible on 6 survivors");
        out.plan.validate(model.n_layers(), 6).unwrap();
        let used: usize = out.plan.stages.iter().map(|s| s.device_count).sum();
        assert_eq!(used, 6, "every survivor is used");
        assert!(out.throughput_samples_per_sec > 0.0);
    }

    #[test]
    fn infeasible_budgets_return_none() {
        let topo = rtx_titan_node(8);
        let model = small_model();
        let out = ParallelPlanner::with_optimizer(fast_optimizer())
            .optimize(&model, &topo, GIB / 4)
            .unwrap();
        assert!(out.is_none());
    }
}
