//! The multi-request plan service.
//!
//! Production planning rarely asks one question: a capacity study sweeps
//! budgets, a model-selection study sweeps architectures, a bench sweeps
//! both. [`PlanService`] answers a batch of [`PlanRequest`]s, each with a
//! fresh search, and keeps no state between them: the same request always
//! does the same work. Each response carries the extended
//! [`SearchStats`](galvatron_core::SearchStats) with per-candidate timings.
//! In the serving daemon and fleet a byte-bounded response cache answers
//! exact repeats before a planner runs; a caller that uses a
//! [`PlanService`] directly searches again for every repeat.

use crate::{ParallelPlanner, PlannerConfig};
use galvatron_cluster::{ClusterError, ClusterTopology};
use galvatron_core::{DpResult, OptimizeOutcome};
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

/// A planning front-end that answers many requests through one planner and
/// one telemetry handle.
#[derive(Debug)]
pub struct PlanService {
    planner: ParallelPlanner,
    obs: Obs,
}

impl PlanService {
    /// Build a service.
    pub fn new(config: PlannerConfig) -> Self {
        PlanService {
            planner: ParallelPlanner::new(config),
            obs: Obs::noop(),
        }
    }

    /// Attach a telemetry handle, shared with the underlying planner:
    /// requests emit `plan_request` spans and count into
    /// `plan_requests_total`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.planner = self.planner.clone().with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// The underlying planner.
    pub fn planner(&self) -> &ParallelPlanner {
        &self.planner
    }

    /// Always empty. The service once held a stage-DP memoization cache;
    /// it was removed (it hardly ever hit). Kept because the benchmark
    /// still reads its length.
    pub fn cache(&self) -> &[DpResult] {
        &[]
    }

    /// Answer one request with a fresh search.
    pub fn submit(&self, request: &PlanRequest) -> Result<PlanResponse, ClusterError> {
        let started = Instant::now();
        let mut span = self
            .obs
            .span("plan_request")
            .field("request", request.name.as_str());
        let outcome =
            self.planner
                .optimize(&request.model, &request.topology, request.budget_bytes)?;
        let seconds = started.elapsed().as_secs_f64();
        let registry = self.obs.registry();
        registry.counter("plan_requests_total").inc();
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

    /// Answer every request in order.
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
            prune: true,
            ..PlannerConfig::default()
        })
    }

    #[test]
    fn repeated_requests_get_identical_answers() {
        let service = service();
        let responses = service.submit_all(&requests()).unwrap();
        assert_eq!(responses.len(), 3);
        let first = responses[0].outcome.as_ref().expect("feasible");
        let third = responses[2].outcome.as_ref().expect("feasible");
        assert_eq!(first.plan, third.plan);
        assert_eq!(
            first.throughput_samples_per_sec,
            third.throughput_samples_per_sec
        );
        assert!(service.cache().is_empty());
    }

    #[test]
    fn responses_keep_request_order_and_names() {
        let service = service();
        let responses = service.submit_all(&requests()).unwrap();
        let names: Vec<&str> = responses.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["bert-6@8g", "bert-6@12g", "bert-6@8g"]);
    }
}
