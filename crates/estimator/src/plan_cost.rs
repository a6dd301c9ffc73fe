//! Whole-plan cost estimation: the estimator's top-level API.

use crate::config::EstimatorConfig;
use crate::cost::LayerCost;
use crate::pipeline::gpipe_iteration_time;
use galvatron_cluster::collectives::point_to_point;
use galvatron_cluster::{ClusterError, ClusterTopology, DeviceId};
use galvatron_model::{LayerSpec, ModelSpec};
use galvatron_strategy::layout::transformation_time;
use galvatron_strategy::{IntraStageStrategy, ParallelPlan, StagePlan};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Estimated cost of one pipeline stage for the whole batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// Wall-clock seconds for the batch through this stage (compute + comm
    /// + intra-stage Slice-Gather transformations).
    pub time: f64,
    /// Aggregated component breakdown.
    pub components: LayerCost,
    /// Seconds spent in Slice-Gather transformations.
    pub transformation_time: f64,
    /// The gradient-synchronisation tail: time past the stage's last
    /// backward compute that its DP all-reduces / reduce-scatters need.
    /// Tails of different stages run on different comm streams and do not
    /// pipeline, so plan costs add the largest tail after the bubble term.
    pub sync_tail: f64,
    /// Peak bytes on the stage's most-loaded device.
    pub peak_memory: u64,
}

/// Estimated cost of a full plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanCost {
    /// Estimated iteration (per-batch) seconds.
    pub iteration_time: f64,
    /// Samples per second.
    pub throughput: f64,
    /// Per-stage batch times.
    pub stage_times: Vec<f64>,
    /// Per-stage peak memory bytes.
    pub stage_peak_memory: Vec<u64>,
}

impl PlanCost {
    /// Largest per-device memory across stages.
    pub fn peak_memory(&self) -> u64 {
        self.stage_peak_memory.iter().copied().max().unwrap_or(0)
    }
}

/// Galvatron's cost estimator over a fixed cluster topology: one method per
/// Eq. 1 term — [`CostEstimator::layer_cost`] for `c(l, s)` (in `cost.rs`),
/// [`CostEstimator::layer_memory`] for `O(l, s)` (in `memory.rs`) and
/// [`CostEstimator::transformation_cost`] for `R(l, s_i, s_j)` — composed
/// into stage and plan costs.
///
/// ```
/// use galvatron_cluster::{rtx_titan_node, GIB};
/// use galvatron_estimator::CostEstimator;
/// use galvatron_model::PaperModel;
/// use galvatron_strategy::{IntraStageStrategy, ParallelPlan, Paradigm};
///
/// let model = PaperModel::BertHuge32.spec();
/// let plan = ParallelPlan::uniform(
///     "DDP", model.n_layers(), 8,
///     IntraStageStrategy::pure(Paradigm::Data, 8).unwrap(), 8,
/// );
/// let estimator = CostEstimator::with_defaults(rtx_titan_node(8));
/// let cost = estimator.plan_cost(&model, &plan).unwrap();
/// assert!(cost.iteration_time > 0.0);
/// // Pure DP replicates 672M parameters at 16 B/param of training state.
/// assert!(cost.peak_memory() > 10 * GIB);
/// ```
#[derive(Debug, Clone)]
pub struct CostEstimator {
    // Shared so that cloning an estimator per planner worker thread does not
    // copy the (possibly large) device/link tables.
    topology: Arc<ClusterTopology>,
    config: EstimatorConfig,
}

impl CostEstimator {
    /// Build an estimator for `topology` with `config`. Accepts either an
    /// owned topology or an already-shared `Arc<ClusterTopology>`.
    pub fn new(topology: impl Into<Arc<ClusterTopology>>, config: EstimatorConfig) -> Self {
        CostEstimator {
            topology: topology.into(),
            config,
        }
    }

    /// Convenience: default configuration.
    pub fn with_defaults(topology: impl Into<Arc<ClusterTopology>>) -> Self {
        CostEstimator::new(topology, EstimatorConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// The topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The Slice-Gather cost between two adjacent layers in a stage —
    /// `R(l, s_i, s_j)` of Eq. 1. `prev_layer` supplies the activation size.
    pub fn transformation_cost(
        &self,
        prev_layer: &LayerSpec,
        dtype: galvatron_model::DType,
        prev: &IntraStageStrategy,
        next: &IntraStageStrategy,
        stage_batch: u64,
        base: DeviceId,
    ) -> Result<f64, ClusterError> {
        if prev == next || prev.total_degree() <= 1 {
            return Ok(0.0);
        }
        let group: Vec<DeviceId> = (base..base + prev.total_degree()).collect();
        let link = self.topology.bottleneck_link(&group)?;
        let total_bytes = prev_layer.output_bytes_per_sample(dtype) * stage_batch;
        Ok(transformation_time(prev, next, total_bytes, link))
    }

    /// Cost of one stage for the whole batch, priced at micro-batch
    /// granularity: compute, TP collectives and Slice-Gather transformations
    /// are paid per micro-batch (with their launch overheads), ZeRO-3
    /// parameter gathers once per pass, and gradient synchronisation once
    /// per iteration, overlapping the *whole* backward sweep.
    ///
    /// `act_stash_batch` is the number of samples whose activations are
    /// simultaneously resident on the stage: GPipe keeps the whole batch in
    /// flight; 1F1B caps it at `micro × (P − stage_index)` (see
    /// [`galvatron_strategy::PipelineSchedule::in_flight`]).
    pub fn stage_cost(
        &self,
        model: &ModelSpec,
        stage: &StagePlan,
        global_batch: u64,
        micro_batches: usize,
        act_stash_batch: u64,
    ) -> Result<StageCost, ClusterError> {
        let m = micro_batches.max(1) as u64;
        let micro = (global_batch / m).max(1);
        let mf = m as f64;

        let mut components = LayerCost::zero();
        let mut fwd_compute = 0.0;
        let mut tp_fwd = 0.0;
        let mut bwd_compute = 0.0;
        let mut tp_bwd = 0.0;
        let mut gathers = 0.0;
        let mut sdp_rs = 0.0;
        let mut dp_ar = 0.0;
        let mut transformation = 0.0;
        let mut persistent = 0u64;
        let mut max_transient = 0u64;
        let mut prev: Option<(&LayerSpec, &IntraStageStrategy)> = None;

        for (offset, layer_idx) in (stage.layer_start..stage.layer_end).enumerate() {
            let layer = &model.layers[layer_idx];
            let strategy = &stage.layer_strategies[offset];
            let recompute = stage.recompute_of(offset);
            let micro_cost = self.layer_cost(
                layer,
                model.dtype,
                strategy,
                micro,
                stage.device_base,
                recompute,
            )?;

            fwd_compute += mf * micro_cost.forward_compute;
            tp_fwd += mf * micro_cost.tp_comm_forward;
            bwd_compute += mf * micro_cost.backward_compute;
            tp_bwd += mf * micro_cost.tp_comm_backward;
            // ZeRO-3 gathers and reduce-scatters repeat every micro-batch.
            gathers += mf * micro_cost.sdp_gather;
            sdp_rs += mf * micro_cost.sdp_reduce_scatter;
            dp_ar += micro_cost.dp_allreduce;

            // Aggregate a batch-equivalent component record for reporting.
            let mut scaled = micro_cost;
            scaled.forward_compute *= mf;
            scaled.backward_compute *= mf;
            scaled.tp_comm_forward *= mf;
            scaled.tp_comm_backward *= mf;
            components.accumulate(&scaled);

            // Model state is batch-independent; the activation term uses
            // the schedule's in-flight stash.
            let memory =
                self.layer_memory(layer, model.dtype, strategy, act_stash_batch, recompute);
            persistent += memory.persistent();
            max_transient = max_transient.max(memory.transient);

            if let Some((prev_layer, prev_strategy)) = prev {
                transformation += mf
                    * self.transformation_cost(
                        prev_layer,
                        model.dtype,
                        prev_strategy,
                        strategy,
                        micro,
                        stage.device_base,
                    )?;
            }
            prev = Some((layer, strategy));
        }

        let alpha = self.config.overlap_slowdown;
        let modeled = self.config.model_overlap_slowdown;
        // TP collectives sit inside each micro-batch's dependency chain and
        // share the comm stream in issue order, so they are serial on the
        // critical path (the paper's estimator treats them the same way).
        // ZeRO-3 gathers prefetch against the whole sweep.
        let forward =
            tp_fwd + crate::overlap::overlapped_time(fwd_compute, gathers, alpha, modeled);
        let pipelined_backward =
            tp_bwd + crate::overlap::overlapped_time(bwd_compute, gathers + sdp_rs, alpha, modeled);
        // The DP gradient all-reduce for a layer fires only once its *last*
        // micro-batch finishes, so only ~1/m of the backward sweep can hide
        // it. The stage pays the larger of the fluid overlap bound and that
        // issue-time (tail) bound.
        let window = bwd_compute / mf;
        let combined = tp_bwd
            + crate::overlap::overlapped_time(
                bwd_compute,
                gathers + sdp_rs + dp_ar,
                alpha,
                modeled,
            );
        let tail_bound = (pipelined_backward - window)
            + crate::overlap::overlapped_time(window, dp_ar, alpha, modeled);
        let backward = combined.max(tail_bound);
        let sync_tail = (backward - pipelined_backward).max(0.0);
        let time = forward + transformation + backward;
        Ok(StageCost {
            time,
            components,
            transformation_time: transformation,
            sync_tail,
            // Prefetch keeps up to two layers' gathered parameters resident.
            peak_memory: persistent + 2 * max_transient,
        })
    }

    /// Cost of a full plan (assumed structurally valid; run
    /// [`ParallelPlan::validate`] first).
    pub fn plan_cost(
        &self,
        model: &ModelSpec,
        plan: &ParallelPlan,
    ) -> Result<PlanCost, ClusterError> {
        let batch = plan.global_batch as u64;
        let p_degree = plan.pp_degree();
        let mut stage_times = Vec::with_capacity(plan.stages.len());
        let mut stage_peaks = Vec::with_capacity(plan.stages.len());
        let mut max_tail = 0.0f64;
        for (i, stage) in plan.stages.iter().enumerate() {
            let act_batch =
                plan.schedule
                    .stash_samples(i, p_degree, plan.micro_batches, plan.global_batch);
            let cost = self.stage_cost(model, stage, batch, plan.micro_batches, act_batch)?;
            stage_times.push(cost.time - cost.sync_tail);
            stage_peaks.push(cost.peak_memory);
            max_tail = max_tail.max(cost.sync_tail);
        }
        let p = plan.pp_degree();
        let m = plan.micro_batches;
        let mut iteration_time = gpipe_iteration_time(&stage_times, m) + max_tail;
        if p > 1 {
            if self.config.include_boundary_comm {
                iteration_time += self.boundary_comm_time(model, plan)?;
            } else {
                // The planner's proxy for the excluded boundary transfers
                // and per-micro scheduling costs (§3.3 excludes the real
                // thing "as they are usually quite small"): one hop per
                // boundary on the ripple plus the bottleneck stream.
                iteration_time += self.config.micro_batch_overhead * (m + 2 * (p - 1)) as f64;
            }
        }
        Ok(PlanCost {
            throughput: plan.global_batch as f64 / iteration_time,
            iteration_time,
            stage_times,
            stage_peak_memory: stage_peaks,
        })
    }

    /// Critical-path cost of the PP boundary transfers. Sends at different
    /// boundaries run on different comm-stream pairs concurrently, so the
    /// path sees each boundary once during the first micro-batch's ripple
    /// plus the remaining `m − 1` transfers of the slowest boundary —
    /// per direction (forward activations, backward gradients).
    fn boundary_comm_time(
        &self,
        model: &ModelSpec,
        plan: &ParallelPlan,
    ) -> Result<f64, ClusterError> {
        let micro = plan.micro_batch_size() as u64;
        let mut ripple = 0.0f64;
        let mut slowest = 0.0f64;
        for window in plan.stages.windows(2) {
            let (a, b) = (&window[0], &window[1]);
            let boundary_layer = &model.layers[a.layer_end - 1];
            let link = self
                .topology
                .link_between(a.device_base + a.device_count - 1, b.device_base)?;
            let bytes = boundary_layer.output_bytes_per_sample(model.dtype) * micro;
            let send = point_to_point(bytes, link).time();
            ripple += send;
            slowest = slowest.max(send);
        }
        let m = plan.micro_batches as f64;
        Ok(2.0 * (ripple + (m - 1.0) * slowest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::{rtx_titan_node, GIB};
    use galvatron_model::PaperModel;
    use galvatron_strategy::{Paradigm, StrategyAxis};

    fn strat(axes: &[(Paradigm, usize)]) -> IntraStageStrategy {
        IntraStageStrategy::new(axes.iter().map(|&(p, d)| StrategyAxis::new(p, d)).collect())
            .unwrap()
    }

    fn estimator() -> CostEstimator {
        CostEstimator::with_defaults(rtx_titan_node(8))
    }

    fn uniform_plan(strategy: IntraStageStrategy, batch: usize) -> (ModelSpec, ParallelPlan) {
        let model = PaperModel::VitHuge32.spec();
        let plan = ParallelPlan::uniform("test", model.n_layers(), 8, strategy, batch);
        (model, plan)
    }

    #[test]
    fn plan_cost_produces_positive_throughput() {
        let est = estimator();
        let (model, plan) = uniform_plan(strat(&[(Paradigm::ShardedData, 8)]), 64);
        plan.validate(model.n_layers(), 8).unwrap();
        let cost = est.plan_cost(&model, &plan).unwrap();
        assert!(cost.iteration_time > 0.0);
        assert!(cost.throughput > 0.0);
        assert_eq!(cost.stage_times.len(), 1);
    }

    #[test]
    fn vit_sdp_fits_8g_but_dp_does_not() {
        // Table 1, 8G column: DDP OOMs on ViT-Huge-32 while SDP trains
        // batch 64.
        let est = estimator();
        let (model, dp_plan) = uniform_plan(strat(&[(Paradigm::Data, 8)]), 64);
        let (_, sdp_plan) = uniform_plan(strat(&[(Paradigm::ShardedData, 8)]), 64);
        let usable = est.topology().usable_budget(8 * GIB);
        let fits = |plan| est.plan_cost(&model, plan).unwrap().peak_memory() <= usable;
        assert!(!fits(&dp_plan));
        assert!(fits(&sdp_plan));
    }

    #[test]
    fn pipeline_plans_split_memory() {
        let est = estimator();
        let model = PaperModel::BertHuge32.spec();
        let n = model.n_layers();
        let half = n / 2;
        let pp2 = ParallelPlan {
            origin: "pp2".into(),
            global_batch: 8,
            micro_batches: 2,
            schedule: Default::default(),
            stages: vec![
                StagePlan {
                    layer_start: 0,
                    layer_end: half,
                    device_base: 0,
                    device_count: 4,
                    layer_strategies: vec![strat(&[(Paradigm::Data, 4)]); half],
                    layer_recompute: Vec::new(),
                },
                StagePlan {
                    layer_start: half,
                    layer_end: n,
                    device_base: 4,
                    device_count: 4,
                    layer_strategies: vec![strat(&[(Paradigm::Data, 4)]); n - half],
                    layer_recompute: Vec::new(),
                },
            ],
        };
        pp2.validate(n, 8).unwrap();
        let dp_plan = ParallelPlan::uniform("dp", n, 8, strat(&[(Paradigm::Data, 8)]), 8);
        let pp_cost = est.plan_cost(&model, &pp2).unwrap();
        let dp_cost = est.plan_cost(&model, &dp_plan).unwrap();
        assert!(pp_cost.peak_memory() < dp_cost.peak_memory());
    }

    #[test]
    fn transformations_charge_only_gathers() {
        let est = estimator();
        let model = PaperModel::BertHuge32.spec();
        let layer = &model.layers[5];
        let tp8 = strat(&[(Paradigm::Tensor, 8)]);
        let dp8 = strat(&[(Paradigm::Data, 8)]);
        // TP → DP is the free slice case; DP → TP pays a gather.
        let free = est
            .transformation_cost(layer, model.dtype, &tp8, &dp8, 64, 0)
            .unwrap();
        let paid = est
            .transformation_cost(layer, model.dtype, &dp8, &tp8, 64, 0)
            .unwrap();
        assert_eq!(free, 0.0);
        assert!(paid > 0.0);
    }

    #[test]
    fn boundary_comm_is_opt_in() {
        let model = PaperModel::BertHuge32.spec();
        let n = model.n_layers();
        let half = n / 2;
        let mk_plan = || ParallelPlan {
            origin: "pp2".into(),
            global_batch: 8,
            micro_batches: 2,
            schedule: Default::default(),
            stages: vec![
                StagePlan {
                    layer_start: 0,
                    layer_end: half,
                    device_base: 0,
                    device_count: 4,
                    layer_strategies: vec![strat(&[(Paradigm::Data, 4)]); half],
                    layer_recompute: Vec::new(),
                },
                StagePlan {
                    layer_start: half,
                    layer_end: n,
                    device_base: 4,
                    device_count: 4,
                    layer_strategies: vec![strat(&[(Paradigm::Data, 4)]); n - half],
                    layer_recompute: Vec::new(),
                },
            ],
        };
        let without = estimator().plan_cost(&model, &mk_plan()).unwrap();
        let cfg = EstimatorConfig {
            include_boundary_comm: true,
            ..EstimatorConfig::default()
        };
        let with = CostEstimator::new(rtx_titan_node(8), cfg)
            .plan_cost(&model, &mk_plan())
            .unwrap();
        assert!(with.iteration_time > without.iteration_time);
    }

    #[test]
    fn throughput_is_batch_over_time() {
        let est = estimator();
        let (model, plan) = uniform_plan(strat(&[(Paradigm::ShardedData, 8)]), 32);
        let cost = est.plan_cost(&model, &plan).unwrap();
        assert!((cost.throughput * cost.iteration_time - 32.0).abs() < 1e-9);
    }
}
