//! `galvatron-planner`: the production planning front-end, and the only
//! Algorithm-1 loop production code calls — the CLI, the plan service, the
//! baseline rows, the BMW study and the paper-figure binaries all plan
//! through [`ParallelPlanner`].
//!
//! [`GalvatronOptimizer`](galvatron_core::GalvatronOptimizer) runs
//! Algorithm 1 serially through the reference solver; tests and the
//! `planner_sweep` bench keep it as the baseline. This crate runs the
//! *same* search — the same candidate space, the same early-stop rule,
//! the same tie-breaking — on `jobs` scoped worker threads over the
//! production solver, [`ArenaStageDp`](galvatron_core::ArenaStageDp). Every
//! stage query goes straight to that solver; the one search-time shortcut
//! is **bound-based pruning** ([`bound::throughput_upper_bound`]): a
//! candidate whose optimistic throughput bound is strictly below the best
//! found so far is skipped, which cannot change the winner of the
//! strict-improvement reduction.
//!
//! The planner's output is byte-identical to the serial optimizer for every
//! `jobs` count, with pruning on or off; the `planner_parallelism`
//! integration suite asserts this across the model zoo and budget grid, and
//! the `planner_sweep` bench measures the gain (`BENCH_planner_sweep.json`).
//!
//! [`PlanService`] answers a stream of requests, each one a fresh search.
//! Only in the serving daemon and fleet does a byte-bounded response cache
//! answer exact repeats before a planner runs; every other caller (the
//! elastic runtime, the table harness) pays a full search per repeat.

#![warn(missing_docs)]

pub mod bound;
pub mod service;
mod sweep;

pub use service::{PlanRequest, PlanResponse, PlanService};

use galvatron_cluster::{ClusterError, ClusterTopology};
use galvatron_core::{OptimizeOutcome, OptimizerConfig};
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
    /// Scoped worker threads per search; the caller waits on their join.
    /// `0` means the machine's available parallelism.
    pub jobs: usize,
    /// Ignored. It switched the stage-DP memoization cache, which was
    /// removed (it hardly ever hit; plans never depended on it). Kept so the
    /// benchmark's struct literals and serialized configs still compile and
    /// parse.
    pub use_cache: bool,
    /// Skip candidates whose throughput upper bound cannot beat the best.
    pub prune: bool,
    /// Ignored. It switched the kernel intern table and feasibility
    /// ledger, which were removed (they cost more than they saved; plans
    /// never depended on them). Kept so the benchmark's struct literals and
    /// serialized configs still compile and parse.
    #[serde(default)]
    pub incremental: bool,
    /// Ignored. It bounded the removed stage-DP memoization cache (see
    /// [`use_cache`](Self::use_cache)). Kept so the benchmark's struct
    /// literals and serialized configs still compile and parse.
    #[serde(default)]
    pub cache_max_entries: Option<usize>,
    /// Ignored. It bounded the removed kernel intern table (see
    /// [`incremental`](Self::incremental)). Kept so the benchmark's struct
    /// literals and serialized configs still compile and parse.
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

/// The parallel planner. Produces exactly the plans the serial
/// [`GalvatronOptimizer`](galvatron_core::GalvatronOptimizer) does, faster.
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
        let started = Instant::now();
        let mut search_span = self
            .obs
            .span("dp_search")
            .field("model", model.name.as_str())
            .field("n_devices", topology.n_devices())
            .field("jobs", self.effective_jobs());
        let estimator =
            CostEstimator::new(topology.clone(), self.config.optimizer.estimator.clone());
        let output = sweep::run_sweep(
            &self.config.optimizer,
            &estimator,
            model,
            topology,
            budget_bytes,
            self.effective_jobs(),
            self.config.prune,
            &self.obs,
        )?;
        let mut stats = output.stats;
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

/// The worker count `jobs` resolves to: `jobs` itself, or for `0` the
/// machine's available parallelism (`1` when it cannot be read).
pub fn resolve_jobs(jobs: usize) -> usize {
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
            prune: true,
            ..PlannerConfig::default()
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
    fn search_counters_are_reported() {
        let topo = rtx_titan_node(8);
        let model = small_model();
        let out = ParallelPlanner::new(PlannerConfig {
            optimizer: fast_optimizer(),
            jobs: 2,
            prune: false,
            ..PlannerConfig::default()
        })
        .optimize(&model, &topo, 8 * GIB)
        .unwrap()
        .expect("feasible");
        assert_eq!(out.stats.arena_solves, out.stats.dp_invocations);
        assert_eq!((out.stats.cache_hits, out.stats.cache_misses), (0, 0));
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
            prune: true,
            ..PlannerConfig::default()
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
