//! Heterogeneous-cluster planning: island deployments, dollars and advice.
//!
//! The paper plans for a *homogeneous* cluster and lists heterogeneous
//! environments as future work (§6). This crate closes that gap on top of
//! the per-stage machinery the rest of the stack already grew:
//!
//! * [`ClusterTopology::stage_usable_budgets`] sizes each pipeline stage to
//!   its own island's physical memory, and the capacity-aware layer
//!   allocation in `stage_bound_sets` skews layers toward faster islands —
//!   so Algorithm 1 already *searches* heterogeneous clusters correctly. On
//!   any homogeneous topology those budgets collapse to the legacy single
//!   value and the search is bit-identical to before.
//! * [`HeteroPlanner`] adds the missing *economics*: a dual objective.
//!   [`Objective::Time`] minimizes iteration time on the full cluster
//!   (exactly the classic search). [`Objective::Cost`] maximizes
//!   **throughput per dollar** — it enumerates every island-aligned
//!   contiguous sub-cluster [`Deployment`] (renting fewer islands costs
//!   fewer dollars), plans each, and keeps the deployment with the most
//!   samples per dollar.
//! * [`ClusterAdvisor`] answers the procurement question: *"what is the
//!   cheapest device mix that trains this model in under T hours?"* — a
//!   deterministic sweep over [`DeviceType`] island mixes.
//!
//! Every search runs through the production planner,
//! [`ParallelPlanner`] (arena DP, memoization cache, interned kernels,
//! bound pruning), whose plans are bit-identical to the serial reference
//! [`GalvatronOptimizer`](galvatron_core::GalvatronOptimizer).
//!
//! [`ClusterTopology::stage_usable_budgets`]:
//!     galvatron_cluster::ClusterTopology::stage_usable_budgets

#![warn(missing_docs)]

use galvatron_cluster::{
    island_cluster, mixed_a100_rtx_cluster, ClusterError, ClusterTopology, DeviceType,
    TopologyLevel,
};
use galvatron_core::{OptimizeOutcome, OptimizerConfig};
use galvatron_model::ModelSpec;
use galvatron_obs::Obs;
use galvatron_planner::ParallelPlanner;
use serde::{Deserialize, Serialize};

/// What the hetero planner optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Maximize throughput on the full cluster (minimum iteration time) —
    /// the paper's Algorithm 1, bit-identical to
    /// [`GalvatronOptimizer::optimize`](galvatron_core::GalvatronOptimizer::optimize).
    Time,
    /// Maximize throughput per dollar across island-aligned sub-cluster
    /// deployments. Falls back to [`Objective::Time`] on unpriced clusters
    /// (every device at $0/hour), where dollars cannot rank plans.
    Cost,
}

impl Objective {
    /// Metric/CLI label: `"time"` or `"cost"`.
    pub fn label(self) -> &'static str {
        match self {
            Objective::Time => "time",
            Objective::Cost => "cost",
        }
    }
}

/// One island-aligned contiguous sub-cluster of a parent topology: the unit
/// of rental the cost objective shops over. Stage → device-group layout is
/// contiguous, so only contiguous island ranges preserve the id convention
/// that consecutive ids share the fastest links.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Index of the first island (island 0 owns the lowest device ids).
    pub first_island: usize,
    /// Number of consecutive islands rented.
    pub n_islands: usize,
    /// Human-readable device mix, e.g. `"A100x8+RTX TITANx8"`.
    pub mix: String,
    /// The sub-cluster topology (the full parent when the range covers it).
    pub topology: ClusterTopology,
}

/// Derive the device mix label of a topology from its per-device specs:
/// consecutive runs of identical spec names, e.g. `"A100x8+RTX TITANx8"`.
pub fn topology_mix(topology: &ClusterTopology) -> String {
    let mut runs: Vec<(String, usize)> = Vec::new();
    for d in 0..topology.n_devices() {
        let name = topology.gpu_of(d).expect("device id in range").name.clone();
        match runs.last_mut() {
            Some((last, n)) if *last == name => *n += 1,
            _ => runs.push((name, 1)),
        }
    }
    if runs.is_empty() {
        return "empty".to_string();
    }
    runs.iter()
        .map(|(name, n)| format!("{name}x{n}"))
        .collect::<Vec<_>>()
        .join("+")
}

/// Enumerate the island-aligned contiguous sub-cluster deployments of
/// `topology`, smallest first, lower island ranges first, the full cluster
/// last. The order is deterministic and drives the cost objective's
/// first-wins tie-breaking. Topologies with more than two levels (or a
/// single island) yield only the full-cluster deployment.
pub fn enumerate_deployments(topology: &ClusterTopology) -> Vec<Deployment> {
    let full = Deployment {
        first_island: 0,
        n_islands: 1,
        mix: topology_mix(topology),
        topology: topology.clone(),
    };
    let levels = topology.levels();
    if levels.len() > 2 {
        return vec![full];
    }
    let island = levels[0].group_size;
    let islands = topology.n_devices() / island;
    if islands <= 1 {
        return vec![full];
    }
    let mut out = Vec::new();
    for n_islands in 1..=islands {
        for first in 0..=(islands - n_islands) {
            let sub = sub_cluster(topology, first, n_islands, island);
            out.push(Deployment {
                first_island: first,
                n_islands,
                mix: topology_mix(&sub),
                topology: sub,
            });
        }
    }
    out
}

/// Build the sub-topology of `n_islands` consecutive islands starting at
/// `first`, reusing the parent's link classes level by level.
fn sub_cluster(
    parent: &ClusterTopology,
    first: usize,
    n_islands: usize,
    island: usize,
) -> ClusterTopology {
    let mut levels = vec![TopologyLevel {
        group_size: island,
        link: parent.levels()[0].link,
    }];
    if n_islands > 1 {
        levels.push(TopologyLevel {
            group_size: n_islands * island,
            link: parent.levels()[1].link,
        });
    }
    if parent.is_heterogeneous() {
        let specs = (first * island..(first + n_islands) * island)
            .map(|d| parent.gpu_of(d).expect("device id in range").clone())
            .collect();
        ClusterTopology::heterogeneous(specs, levels).expect("sub-cluster of a valid topology")
    } else {
        ClusterTopology::new(parent.gpu().clone(), n_islands * island, levels)
            .expect("sub-cluster of a valid topology")
    }
}

/// Samples per rented dollar: `throughput · 3600 / $-per-hour`. Unpriced
/// deployments (price zero) are "free" — infinite value — so on them the
/// cost objective degenerates to throughput, which is exactly the sensible
/// fallback.
pub fn samples_per_dollar(throughput_samples_per_sec: f64, price_per_hour: f64) -> f64 {
    if price_per_hour > 0.0 {
        throughput_samples_per_sec * 3600.0 / price_per_hour
    } else if throughput_samples_per_sec > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// One deployment's evaluated economics: the best plan Algorithm 1 finds
/// on it (if anything fits) and its samples-per-dollar value.
#[derive(Debug, Clone)]
pub struct DeploymentEval {
    /// The deployment.
    pub deployment: Deployment,
    /// The best plan on it, `None` when nothing fits.
    pub outcome: Option<OptimizeOutcome>,
    /// Rental price, $/hour.
    pub price_per_hour: f64,
    /// Samples per dollar of the best plan (zero when nothing fits).
    pub samples_per_dollar: f64,
}

/// The memory budget a deployment is actually planned under. The classic
/// homogeneous path treats `budget_bytes` as an experiment parameter that
/// never exceeds physical memory (the paper's 8–20 GB grid on 24 GB
/// cards); a cost-objective shopper compares islands of *different* card
/// sizes under one budget, so a homogeneous deployment's budget is capped
/// at its card's memory — exactly the cap
/// [`ClusterTopology::stage_usable_budgets`] applies per stage on
/// heterogeneous deployments.
fn deployment_budget(topology: &ClusterTopology, budget_bytes: u64) -> u64 {
    if topology.is_heterogeneous() {
        budget_bytes
    } else {
        budget_bytes.min(topology.gpu().memory_bytes)
    }
}

/// A hetero plan: the winning search outcome plus the economics of the
/// deployment it runs on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroOutcome {
    /// The plan, throughput, iteration time and search stats.
    pub outcome: OptimizeOutcome,
    /// The objective that selected it.
    pub objective: Objective,
    /// Device mix of the selected deployment.
    pub mix: String,
    /// First island of the selected deployment.
    pub first_island: usize,
    /// Island count of the selected deployment.
    pub n_islands: usize,
    /// Device count of the selected deployment.
    pub n_devices: usize,
    /// Rental price of the selected deployment, $/hour.
    pub price_per_hour: f64,
    /// Samples per dollar of the selected plan on that deployment.
    pub samples_per_dollar: f64,
}

/// The heterogeneous-cluster planner: Algorithm 1 under a dual objective.
#[derive(Debug, Clone)]
pub struct HeteroPlanner {
    planner: ParallelPlanner,
    obs: Obs,
}

impl HeteroPlanner {
    /// Build a planner over the default parallel front-end (every core,
    /// memoization, interned kernels and pruning on).
    pub fn new(config: OptimizerConfig) -> Self {
        HeteroPlanner {
            planner: ParallelPlanner::with_optimizer(config),
            obs: Obs::noop(),
        }
    }

    /// Attach telemetry: plans land in `hetero_plans_total{objective=..}`,
    /// per-deployment searches in `hetero_candidates_total{mix=..}`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.planner = self.planner.clone().with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Plan `model` on `topology` under `budget_bytes` per device toward
    /// `objective`. Returns `None` when no deployment fits any strategy.
    pub fn plan(
        &self,
        model: &ModelSpec,
        topology: &ClusterTopology,
        budget_bytes: u64,
        objective: Objective,
    ) -> Result<Option<HeteroOutcome>, ClusterError> {
        let registry = self.obs.registry_arc();
        registry
            .counter_with("hetero_plans_total", &[("objective", objective.label())])
            .inc();
        // Unpriced clusters cannot rank plans by dollars; Time also skips
        // the deployment enumeration — the full cluster *is* the search
        // space and the outcome is bit-identical to the classic optimizer.
        let effective = match objective {
            Objective::Cost if topology.price_per_hour() > 0.0 => Objective::Cost,
            _ => Objective::Time,
        };
        if effective == Objective::Time {
            let mix = topology_mix(topology);
            registry
                .counter_with("hetero_candidates_total", &[("mix", &mix)])
                .inc();
            let Some(outcome) = self.planner.optimize(model, topology, budget_bytes)? else {
                return Ok(None);
            };
            let price = topology.price_per_hour();
            let spd = samples_per_dollar(outcome.throughput_samples_per_sec, price);
            return Ok(Some(HeteroOutcome {
                outcome,
                objective,
                mix,
                first_island: 0,
                n_islands: enumerate_deployments(topology)
                    .last()
                    .map_or(1, |d| d.n_islands),
                n_devices: topology.n_devices(),
                price_per_hour: price,
                samples_per_dollar: spd,
            }));
        }

        // Cost objective: shop every island-aligned deployment, keep the
        // most samples per dollar. Strict improvement with the fixed
        // enumeration order makes ties deterministic (first wins).
        let mut best: Option<HeteroOutcome> = None;
        for eval in self.evaluate_deployments(model, topology, budget_bytes)? {
            let Some(outcome) = eval.outcome else {
                continue;
            };
            let improves = best
                .as_ref()
                .is_none_or(|b| eval.samples_per_dollar > b.samples_per_dollar);
            if improves {
                best = Some(HeteroOutcome {
                    outcome,
                    objective,
                    mix: eval.deployment.mix,
                    first_island: eval.deployment.first_island,
                    n_islands: eval.deployment.n_islands,
                    n_devices: eval.deployment.topology.n_devices(),
                    price_per_hour: eval.price_per_hour,
                    samples_per_dollar: eval.samples_per_dollar,
                });
            }
        }
        Ok(best)
    }

    /// Evaluate every island-aligned deployment of `topology`: run the
    /// search on each (homogeneous deployments capped at physical card
    /// memory, heterogeneous ones capped per stage) and price the result.
    /// Returned in [`enumerate_deployments`] order — the cost objective is
    /// the strict-improvement argmax of `samples_per_dollar` over this
    /// list, and the advisor/bench report exactly these rows.
    pub fn evaluate_deployments(
        &self,
        model: &ModelSpec,
        topology: &ClusterTopology,
        budget_bytes: u64,
    ) -> Result<Vec<DeploymentEval>, ClusterError> {
        let registry = self.obs.registry_arc();
        let mut out = Vec::new();
        for deployment in enumerate_deployments(topology) {
            registry
                .counter_with("hetero_candidates_total", &[("mix", &deployment.mix)])
                .inc();
            let budget = deployment_budget(&deployment.topology, budget_bytes);
            let outcome = self.planner.optimize(model, &deployment.topology, budget)?;
            let price = deployment.topology.price_per_hour();
            let spd = outcome.as_ref().map_or(0.0, |o| {
                samples_per_dollar(o.throughput_samples_per_sec, price)
            });
            out.push(DeploymentEval {
                deployment,
                outcome,
                price_per_hour: price,
                samples_per_dollar: spd,
            });
        }
        Ok(out)
    }
}

/// A procurement question for [`ClusterAdvisor::advise`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdvisorQuery {
    /// Per-device memory budget, bytes.
    pub budget_bytes: u64,
    /// Samples the training run must consume (steps × global batch).
    pub target_samples: f64,
    /// Completion deadline, hours.
    pub max_hours: f64,
    /// Devices per island in every candidate mix (power of two, ≥ 2).
    pub per_island: usize,
    /// Largest island count considered per device type.
    pub max_islands_per_type: usize,
}

/// One device mix the advisor evaluated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdvisorCandidate {
    /// Device mix label, e.g. `"A100x8+RTX-TITANx8"`.
    pub mix: String,
    /// Total devices in the mix.
    pub n_devices: usize,
    /// Rental price of the mix, $/hour.
    pub price_per_hour: f64,
    /// Best throughput Algorithm 1 finds on the mix, samples/second
    /// (zero when nothing fits).
    pub throughput_samples_per_sec: f64,
    /// Hours to the sample target at that throughput (infinite when
    /// nothing fits).
    pub hours: f64,
    /// Rental dollars to completion (`hours · price`).
    pub total_cost: f64,
    /// Whether the mix meets the deadline.
    pub meets_deadline: bool,
}

/// The advisor's answer: every candidate mix in sweep order plus the index
/// of the cheapest mix that meets the deadline, if any.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdvisorReport {
    /// Every evaluated mix, in the deterministic sweep order.
    pub candidates: Vec<AdvisorCandidate>,
    /// Index into `candidates` of the recommendation.
    pub recommendation: Option<usize>,
}

impl AdvisorReport {
    /// The recommended candidate, if any mix meets the deadline.
    pub fn recommended(&self) -> Option<&AdvisorCandidate> {
        self.recommendation.map(|i| &self.candidates[i])
    }
}

/// The cluster advisor: sweeps island mixes over the [`DeviceType`]
/// catalog and recommends the cheapest mix that trains the model in time.
#[derive(Debug, Clone)]
pub struct ClusterAdvisor {
    planner: HeteroPlanner,
    obs: Obs,
}

impl ClusterAdvisor {
    /// Build an advisor.
    pub fn new(config: OptimizerConfig) -> Self {
        ClusterAdvisor {
            planner: HeteroPlanner::new(config),
            obs: Obs::noop(),
        }
    }

    /// Attach telemetry: sweep durations land in
    /// `hetero_advisor_sweep_seconds`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.planner = self.planner.clone().with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Sweep every A100/RTX-TITAN island mix up to the query's bounds and
    /// recommend the cheapest-to-completion mix meeting the deadline.
    /// Ties in dollars resolve to the earliest mix in sweep order (fewer
    /// A100 islands first, then fewer RTX islands), so the answer is a
    /// pure deterministic function of the query.
    pub fn advise(
        &self,
        model: &ModelSpec,
        query: &AdvisorQuery,
    ) -> Result<AdvisorReport, ClusterError> {
        let started = std::time::Instant::now();
        let mut candidates: Vec<AdvisorCandidate> = Vec::new();
        let mut recommendation: Option<usize> = None;
        for a100 in 0..=query.max_islands_per_type {
            for rtx in 0..=query.max_islands_per_type {
                if a100 == 0 && rtx == 0 {
                    continue;
                }
                let topology = mix_topology(a100, rtx, query.per_island);
                let mix = galvatron_cluster::mix_label(&[
                    (DeviceType::A100, a100 * query.per_island),
                    (DeviceType::RtxTitan, rtx * query.per_island),
                ]);
                let outcome =
                    self.planner
                        .plan(model, &topology, query.budget_bytes, Objective::Time)?;
                let price = topology.price_per_hour();
                let throughput = outcome
                    .as_ref()
                    .map_or(0.0, |o| o.outcome.throughput_samples_per_sec);
                let hours = if throughput > 0.0 {
                    query.target_samples / throughput / 3600.0
                } else {
                    f64::INFINITY
                };
                let total_cost = hours * price;
                let meets_deadline = hours <= query.max_hours;
                if meets_deadline {
                    let cheaper = recommendation
                        .map(|i: usize| total_cost < candidates[i].total_cost)
                        .unwrap_or(true);
                    if cheaper {
                        recommendation = Some(candidates.len());
                    }
                }
                candidates.push(AdvisorCandidate {
                    mix,
                    n_devices: topology.n_devices(),
                    price_per_hour: price,
                    throughput_samples_per_sec: throughput,
                    hours,
                    total_cost,
                    meets_deadline,
                });
            }
        }
        self.obs
            .registry_arc()
            .wall_histogram("hetero_advisor_sweep_seconds")
            .observe(started.elapsed().as_secs_f64());
        Ok(AdvisorReport {
            candidates,
            recommendation,
        })
    }
}

/// The priced topology of an (A100 islands, RTX islands) mix.
fn mix_topology(a100_islands: usize, rtx_islands: usize, per_island: usize) -> ClusterTopology {
    match (a100_islands, rtx_islands) {
        (0, r) => island_cluster(DeviceType::RtxTitan, r, per_island),
        (a, 0) => island_cluster(DeviceType::A100, a, per_island),
        (a, r) => mixed_a100_rtx_cluster(a, r, per_island),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::{rtx_titan_node, rtx_titan_nodes, GIB};
    use galvatron_core::GalvatronOptimizer;
    use galvatron_model::BertConfig;

    fn small_model() -> ModelSpec {
        BertConfig {
            layers: 4,
            hidden: 1280,
            heads: 20,
            seq: 512,
            vocab: 30522,
        }
        .build("bert-4")
    }

    fn quick_config() -> OptimizerConfig {
        OptimizerConfig {
            max_batch: 16,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn time_objective_is_bit_identical_to_the_classic_optimizer() {
        let model = small_model();
        for topology in [
            rtx_titan_node(8),
            rtx_titan_nodes(2, 8),
            mixed_a100_rtx_cluster(1, 1, 8),
        ] {
            let classic = GalvatronOptimizer::new(quick_config())
                .optimize(&model, &topology, 12 * GIB)
                .unwrap();
            let hetero = HeteroPlanner::new(quick_config())
                .plan(&model, &topology, 12 * GIB, Objective::Time)
                .unwrap();
            match (classic, hetero) {
                (None, None) => {}
                (Some(c), Some(h)) => {
                    assert_eq!(c.plan, h.outcome.plan);
                    assert_eq!(
                        c.throughput_samples_per_sec.to_bits(),
                        h.outcome.throughput_samples_per_sec.to_bits()
                    );
                    assert_eq!(
                        c.iteration_time.to_bits(),
                        h.outcome.iteration_time.to_bits()
                    );
                }
                (c, h) => panic!("feasibility diverged: classic {c:?} hetero {h:?}"),
            }
        }
    }

    #[test]
    fn deployments_enumerate_island_ranges_smallest_first() {
        let topology = mixed_a100_rtx_cluster(1, 1, 8);
        let deployments = enumerate_deployments(&topology);
        let shapes: Vec<(usize, usize, usize)> = deployments
            .iter()
            .map(|d| (d.first_island, d.n_islands, d.topology.n_devices()))
            .collect();
        assert_eq!(shapes, vec![(0, 1, 8), (1, 1, 8), (0, 2, 16)]);
        assert_eq!(deployments[0].mix, "A100x8");
        assert_eq!(deployments[1].mix, "RTX TITANx8");
        assert_eq!(deployments[2].mix, "A100x8+RTX TITANx8");
        // Single-island topologies have exactly one deployment: themselves.
        assert_eq!(enumerate_deployments(&rtx_titan_node(8)).len(), 1);
    }

    #[test]
    fn sub_clusters_validate_and_keep_their_specs() {
        let topology = mixed_a100_rtx_cluster(2, 1, 4);
        for d in enumerate_deployments(&topology) {
            d.topology.validate().unwrap();
            assert_eq!(d.topology.n_devices(), d.n_islands * 4);
            let first_name = &d.topology.gpu_of(0).unwrap().name;
            let parent_name = &topology.gpu_of(d.first_island * 4).unwrap().name;
            assert_eq!(first_name, parent_name);
        }
    }

    #[test]
    fn cost_objective_on_an_unpriced_cluster_matches_time() {
        let model = small_model();
        let topology = rtx_titan_nodes(2, 8); // unpriced testbed preset
        let planner = HeteroPlanner::new(quick_config());
        let time = planner
            .plan(&model, &topology, 12 * GIB, Objective::Time)
            .unwrap()
            .unwrap();
        let cost = planner
            .plan(&model, &topology, 12 * GIB, Objective::Cost)
            .unwrap()
            .unwrap();
        assert_eq!(time.outcome.plan, cost.outcome.plan);
        assert_eq!(cost.objective, Objective::Cost);
        assert!(cost.samples_per_dollar.is_infinite());
    }

    #[test]
    fn cost_objective_picks_the_best_samples_per_dollar_deployment() {
        let model = small_model();
        let topology = mixed_a100_rtx_cluster(1, 1, 8);
        let planner = HeteroPlanner::new(quick_config());
        let best = planner
            .plan(&model, &topology, 12 * GIB, Objective::Cost)
            .unwrap()
            .expect("a small model fits somewhere");
        assert!(best.samples_per_dollar.is_finite() && best.samples_per_dollar > 0.0);
        // Exhaustively recompute: no deployment beats the winner.
        for d in enumerate_deployments(&topology) {
            if let Some(o) = GalvatronOptimizer::new(quick_config())
                .optimize(&model, &d.topology, 12 * GIB)
                .unwrap()
            {
                let spd =
                    samples_per_dollar(o.throughput_samples_per_sec, d.topology.price_per_hour());
                assert!(
                    spd <= best.samples_per_dollar,
                    "{} at {spd} beats reported best {}",
                    d.mix,
                    best.samples_per_dollar
                );
            }
        }
    }

    #[test]
    fn advisor_is_deterministic_and_respects_the_deadline() {
        let model = small_model();
        let query = AdvisorQuery {
            budget_bytes: 12 * GIB,
            target_samples: 1.0e7,
            max_hours: 400.0,
            per_island: 4,
            max_islands_per_type: 1,
        };
        let advisor = ClusterAdvisor::new(quick_config());
        let a = advisor.advise(&model, &query).unwrap();
        let b = advisor.advise(&model, &query).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "the advisor must be a pure function of the query"
        );
        assert_eq!(a.candidates.len(), 3); // A100, RTX, mixed
        let rec = a.recommended().expect("some mix meets a loose deadline");
        assert!(rec.meets_deadline && rec.hours <= query.max_hours);
        for c in &a.candidates {
            if c.meets_deadline {
                assert!(
                    rec.total_cost <= c.total_cost,
                    "{} at ${} undercuts the recommendation (${})",
                    c.mix,
                    c.total_cost,
                    rec.total_cost
                );
            }
        }
    }

    #[test]
    fn hetero_metrics_are_recorded() {
        let registry = std::sync::Arc::new(galvatron_obs::MetricsRegistry::new());
        let obs = Obs::new(
            registry.clone(),
            std::sync::Arc::new(galvatron_obs::NullSink),
        );
        let model = small_model();
        let planner = HeteroPlanner::new(quick_config()).with_obs(obs);
        planner
            .plan(
                &model,
                &mixed_a100_rtx_cluster(1, 1, 8),
                12 * GIB,
                Objective::Cost,
            )
            .unwrap();
        let text = registry.snapshot().to_prometheus();
        assert!(
            text.contains("hetero_plans_total{objective=\"cost\"}"),
            "missing plans counter in:\n{text}"
        );
        assert!(
            text.contains("hetero_candidates_total{mix=\"A100x8+RTX TITANx8\"}"),
            "missing per-mix candidate counter in:\n{text}"
        );
    }
}
