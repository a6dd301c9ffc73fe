//! The multi-request plan service.
//!
//! Production planning rarely asks one question: a capacity study sweeps
//! budgets, a model-selection study sweeps architectures, a bench sweeps
//! both. [`PlanService`] answers a batch of [`PlanRequest`]s with one
//! long-lived [`DpCache`], so every stage-DP solution computed for one
//! request is available to all later ones (requests over the same model and
//! cluster at different budgets share most of their sub-problems — the
//! cache key includes the budget only because Eq. 1's table is
//! budget-bounded). Each response carries the extended
//! [`SearchStats`](galvatron_core::SearchStats) with per-request cache
//! hit/miss deltas and per-candidate timings.

use crate::{DpCache, ParallelPlanner, PlannerConfig};
use galvatron_cluster::{ClusterError, ClusterTopology};
use galvatron_core::OptimizeOutcome;
use galvatron_model::ModelSpec;
use galvatron_obs::Obs;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One planning question.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// Caller-chosen label, echoed in the response.
    pub name: String,
    /// The model to plan for.
    pub model: ModelSpec,
    /// The cluster to plan on.
    pub topology: ClusterTopology,
    /// Per-device memory budget, bytes.
    pub budget_bytes: u64,
}

/// One planning answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanResponse {
    /// The request's label.
    pub name: String,
    /// The best plan, or `None` when nothing fits the budget.
    pub outcome: Option<OptimizeOutcome>,
    /// Wall-clock seconds this request took.
    pub seconds: f64,
}

/// A planning front-end that serves many requests from one shared
/// memoization cache, so whole-query answers stay warm across requests.
#[derive(Debug)]
pub struct PlanService {
    planner: ParallelPlanner,
    cache: DpCache,
    obs: Obs,
}

impl PlanService {
    /// Build a service. The long-lived cache honours the config's
    /// `cache_max_entries` bound (unbounded by default).
    pub fn new(config: PlannerConfig) -> Self {
        let cache = match config.cache_max_entries {
            Some(max) => DpCache::bounded(max),
            None => DpCache::new(),
        };
        PlanService {
            planner: ParallelPlanner::new(config),
            cache,
            obs: Obs::noop(),
        }
    }

    /// Attach a telemetry handle, shared with the underlying planner:
    /// requests emit `plan_request` spans and count into
    /// `plan_requests_total`; the `dp_cache_entries` gauge tracks the
    /// shared cache's size.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.planner = self.planner.clone().with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// The underlying planner.
    pub fn planner(&self) -> &ParallelPlanner {
        &self.planner
    }

    /// The shared cache (e.g. to inspect size or cumulative counters).
    pub fn cache(&self) -> &DpCache {
        &self.cache
    }

    /// Answer one request against the shared cache.
    pub fn submit(&self, request: &PlanRequest) -> Result<PlanResponse, ClusterError> {
        let started = Instant::now();
        let mut span = self
            .obs
            .span("plan_request")
            .field("request", request.name.as_str());
        let config = self.planner.config();
        let outcome = self.planner.optimize_with_reuse(
            &request.model,
            &request.topology,
            request.budget_bytes,
            config.use_cache.then_some(&self.cache),
        )?;
        let seconds = started.elapsed().as_secs_f64();
        let registry = self.obs.registry();
        registry.counter("plan_requests_total").inc();
        registry
            .gauge("dp_cache_entries")
            .set(self.cache.len() as f64);
        // Counters only move forward: top up to the cache's cumulative
        // eviction count.
        let cache_evictions = registry.counter("dp_cache_evictions_total");
        cache_evictions
            .inc_by((self.cache.evictions() as u64).saturating_sub(cache_evictions.get()));
        registry
            .wall_histogram("plan_request_seconds")
            .observe(seconds);
        span.add_field("feasible", outcome.is_some());
        span.finish();
        Ok(PlanResponse {
            name: request.name.clone(),
            outcome,
            seconds,
        })
    }

    /// Answer every request in order against the shared cache. Later
    /// requests reuse all stage-DP work of earlier ones.
    pub fn submit_all(&self, requests: &[PlanRequest]) -> Result<Vec<PlanResponse>, ClusterError> {
        requests
            .iter()
            .map(|request| self.submit(request))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::{rtx_titan_node, GIB};
    use galvatron_core::OptimizerConfig;
    use galvatron_model::BertConfig;

    fn requests() -> Vec<PlanRequest> {
        let topo = rtx_titan_node(8);
        let model = BertConfig {
            layers: 6,
            hidden: 1024,
            heads: 16,
            seq: 256,
            vocab: 30522,
        }
        .build("bert-6");
        [8u64, 12, 8]
            .iter()
            .map(|&gib| PlanRequest {
                name: format!("bert-6@{gib}g"),
                model: model.clone(),
                topology: topo.clone(),
                budget_bytes: gib * GIB,
            })
            .collect()
    }

    fn service() -> PlanService {
        PlanService::new(PlannerConfig {
            optimizer: OptimizerConfig {
                max_batch: 32,
                ..OptimizerConfig::default()
            },
            jobs: 2,
            use_cache: true,
            prune: true,
            ..PlannerConfig::default()
        })
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let service = service();
        let responses = service.submit_all(&requests()).unwrap();
        assert_eq!(responses.len(), 3);
        let first = responses[0].outcome.as_ref().expect("feasible");
        let third = responses[2].outcome.as_ref().expect("feasible");
        // Identical request → identical plan, now answered mostly from
        // cache.
        assert_eq!(first.plan, third.plan);
        assert_eq!(
            first.throughput_samples_per_sec,
            third.throughput_samples_per_sec
        );
        assert!(third.stats.cache_hits > 0);
        assert!(!service.cache.is_empty());
    }

    #[test]
    fn responses_keep_request_order_and_names() {
        let service = service();
        let responses = service.submit_all(&requests()).unwrap();
        let names: Vec<&str> = responses.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["bert-6@8g", "bert-6@12g", "bert-6@8g"]);
    }
}
