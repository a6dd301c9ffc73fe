//! The baseline planners of the paper's evaluation (§5.1).
//!
//! Each baseline differs from Galvatron only in *which plan it runs*; all are
//! evaluated on the same cost model and simulator, isolating the
//! parallelization decision:
//!
//! | paper system          | plan produced here                               |
//! |-----------------------|--------------------------------------------------|
//! | PyTorch DDP (DP)      | pure `DP N`                                      |
//! | Megatron (TP)         | pure `TP N`                                      |
//! | PyTorch GPipe (PP)    | `N`-way pipeline, one device per stage,          |
//! |                       | layer-count-balanced, tuned micro-batches        |
//! | FSDP / ZeRO-3 (SDP)   | pure `SDP N`                                     |
//! | DeepSpeed 3D          | the officially suggested fixed `2-way TP × 2-way |
//! |                       | PP × (N/4)-way DP` combination                   |
//! | Galvatron (DP+TP)     | the automatic search restricted to DP and TP     |
//! |                       | (FlexFlow/OptCNN-style dimension set)            |
//! | Galvatron (DP+PP)     | the automatic search restricted to DP within     |
//! |                       | pipeline stages (PipeDream/DAPPLE-style)         |
//! | Galvatron (ours)      | the full §3 search                               |
//!
//! The three automatic rows run Algorithm 1 through the production
//! [`ParallelPlanner`]. For the fixed strategies the planner sweeps the
//! batch exactly like Algorithm 1 does (§5.2 reports "the maximum
//! throughput of each strategy ... along with the corresponding batch
//! size") and returns the highest-throughput feasible batch.

#![warn(missing_docs)]

use galvatron_cluster::{ClusterError, ClusterTopology};
use galvatron_core::optimizer::batch_candidates;
use galvatron_core::{OptimizeOutcome, OptimizerConfig, PipelinePartitioner, SearchStats};
use galvatron_estimator::{optimal_micro_batches, CostEstimator};
use galvatron_model::ModelSpec;
use galvatron_obs::Obs;
use galvatron_planner::{ParallelPlanner, PlannerConfig};
use galvatron_strategy::{IntraStageStrategy, Paradigm, ParallelPlan, StagePlan, StrategyAxis};
use serde::{Deserialize, Serialize};

/// The evaluated strategies, in Table 1 row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineStrategy {
    /// PyTorch DistributedDataParallel: pure data parallelism.
    PyTorchDdp,
    /// Megatron-LM: pure tensor parallelism.
    MegatronTp,
    /// PyTorch GPipe: pure pipeline parallelism.
    GPipePp,
    /// FairScale FSDP / DeepSpeed ZeRO-3: pure sharded data parallelism.
    FsdpSdp,
    /// DeepSpeed 3D: the expert-designed fixed DP×TP×PP combination.
    DeepSpeed3d,
    /// Galvatron restricted to DP+TP (no pipeline) — the FlexFlow/OptCNN
    /// dimension set.
    GalvatronDpTp,
    /// Galvatron restricted to DP+PP — the PipeDream/DAPPLE dimension set.
    GalvatronDpPp,
    /// Full Galvatron.
    GalvatronFull,
}

impl BaselineStrategy {
    /// All strategies in Table 1 row order.
    pub const ALL: [BaselineStrategy; 8] = [
        BaselineStrategy::PyTorchDdp,
        BaselineStrategy::MegatronTp,
        BaselineStrategy::GPipePp,
        BaselineStrategy::FsdpSdp,
        BaselineStrategy::DeepSpeed3d,
        BaselineStrategy::GalvatronDpTp,
        BaselineStrategy::GalvatronDpPp,
        BaselineStrategy::GalvatronFull,
    ];

    /// The row label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            BaselineStrategy::PyTorchDdp => "PyTorch DDP (DP)",
            BaselineStrategy::MegatronTp => "Megatron (TP)",
            BaselineStrategy::GPipePp => "PyTorch GPipe (PP)",
            BaselineStrategy::FsdpSdp => "FSDP/ZeRO-3 (SDP)",
            BaselineStrategy::DeepSpeed3d => "DeepSpeed 3D",
            BaselineStrategy::GalvatronDpTp => "Galvatron (DP+TP)",
            BaselineStrategy::GalvatronDpPp => "Galvatron (DP+PP)",
            BaselineStrategy::GalvatronFull => "Galvatron (ours)",
        }
    }
}

/// The search configuration an *automatic* strategy row runs with, derived
/// from the shared base configuration: the restricted paradigm set, the
/// pipeline toggle and the row label. Returns `None` for the fixed-shape
/// baselines (DDP/TP/PP/SDP/3D), which do not run Algorithm 1.
pub fn optimizer_config_for(
    strategy: BaselineStrategy,
    base: &OptimizerConfig,
) -> Option<OptimizerConfig> {
    match strategy {
        BaselineStrategy::GalvatronDpTp => Some(OptimizerConfig {
            paradigms: vec![Paradigm::Data, Paradigm::Tensor],
            allow_pipeline: false,
            origin: strategy.label().to_string(),
            ..base.clone()
        }),
        BaselineStrategy::GalvatronDpPp => Some(OptimizerConfig {
            paradigms: vec![Paradigm::Data],
            allow_pipeline: true,
            origin: strategy.label().to_string(),
            ..base.clone()
        }),
        BaselineStrategy::GalvatronFull => Some(OptimizerConfig {
            origin: strategy.label().to_string(),
            ..base.clone()
        }),
        _ => None,
    }
}

/// Plans baselines over a fixed topology.
#[derive(Debug, Clone)]
pub struct BaselinePlanner {
    topology: ClusterTopology,
    config: OptimizerConfig,
    obs: Obs,
}

impl BaselinePlanner {
    /// Build with the optimizer/estimator configuration shared by every row.
    pub fn new(topology: ClusterTopology, config: OptimizerConfig) -> Self {
        BaselinePlanner {
            topology,
            config,
            obs: Obs::noop(),
        }
    }

    /// Attach a telemetry handle: the automatic rows' searches record their
    /// counters and `dp_search` spans into it.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Default configuration.
    pub fn with_defaults(topology: ClusterTopology) -> Self {
        BaselinePlanner::new(topology, OptimizerConfig::default())
    }

    /// The shared optimizer configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Produce the highest-throughput feasible plan for `strategy` under
    /// `budget_bytes`, or `None` when everything OOMs (the paper's "OOM"
    /// cells).
    pub fn plan(
        &self,
        strategy: BaselineStrategy,
        model: &ModelSpec,
        budget_bytes: u64,
    ) -> Result<Option<OptimizeOutcome>, ClusterError> {
        match strategy {
            BaselineStrategy::PyTorchDdp => {
                self.sweep_uniform(model, budget_bytes, Paradigm::Data, strategy.label())
            }
            BaselineStrategy::MegatronTp => {
                self.sweep_uniform(model, budget_bytes, Paradigm::Tensor, strategy.label())
            }
            BaselineStrategy::FsdpSdp => {
                self.sweep_uniform(model, budget_bytes, Paradigm::ShardedData, strategy.label())
            }
            BaselineStrategy::GPipePp => self.sweep_gpipe(model, budget_bytes),
            BaselineStrategy::DeepSpeed3d => self.sweep_deepspeed_3d(model, budget_bytes),
            BaselineStrategy::GalvatronDpTp
            | BaselineStrategy::GalvatronDpPp
            | BaselineStrategy::GalvatronFull => {
                let optimizer = optimizer_config_for(strategy, &self.config)
                    .expect("automatic strategies have a search configuration");
                ParallelPlanner::new(PlannerConfig {
                    optimizer,
                    // Table harnesses parallelise across cells, not within
                    // one search.
                    jobs: 1,
                    ..PlannerConfig::default()
                })
                .with_obs(self.obs.clone())
                .optimize(model, &self.topology, budget_bytes)
            }
        }
    }

    /// Sweep batches for a candidate-plan generator, keeping the best
    /// feasible throughput. Stops at the first batch where the plan OOMs
    /// (memory is monotone in batch for a fixed strategy shape).
    fn sweep<F>(
        &self,
        model: &ModelSpec,
        budget_bytes: u64,
        mut make_plan: F,
    ) -> Result<Option<OptimizeOutcome>, ClusterError>
    where
        F: FnMut(usize, &CostEstimator) -> Result<Option<ParallelPlan>, ClusterError>,
    {
        let estimator = CostEstimator::new(self.topology.clone(), self.config.estimator.clone());
        let usable = self.topology.usable_budget(budget_bytes);
        let mut best: Option<OptimizeOutcome> = None;
        let mut batches_explored = 0usize;
        #[allow(clippy::explicit_counter_loop)] // the count survives `continue`d batches
        for batch in batch_candidates(
            self.config.batch_step,
            self.config.max_batch,
            self.config.sub_step_batches,
        ) {
            batches_explored += 1;
            let Some(plan) = make_plan(batch, &estimator)? else {
                continue;
            };
            debug_assert!(plan
                .validate(model.n_layers(), self.topology.n_devices())
                .is_ok());
            let cost = estimator.plan_cost(model, &plan)?;
            if cost.peak_memory() > usable {
                break;
            }
            let better = best
                .as_ref()
                .is_none_or(|b| cost.throughput > b.throughput_samples_per_sec);
            if better {
                best = Some(OptimizeOutcome {
                    throughput_samples_per_sec: cost.throughput,
                    iteration_time: cost.iteration_time,
                    plan,
                    stats: SearchStats {
                        batches_explored,
                        ..SearchStats::default()
                    },
                });
            }
        }
        Ok(best)
    }

    fn sweep_uniform(
        &self,
        model: &ModelSpec,
        budget_bytes: u64,
        paradigm: Paradigm,
        label: &str,
    ) -> Result<Option<OptimizeOutcome>, ClusterError> {
        let n = self.topology.n_devices();
        let strategy =
            IntraStageStrategy::pure(paradigm, n).expect("cluster sizes are powers of two");
        let n_layers = model.n_layers();
        let label = label.to_string();
        self.sweep(model, budget_bytes, move |batch, _| {
            if paradigm != Paradigm::Tensor && batch % n != 0 {
                // Data splits need whole samples per replica.
                return Ok(None);
            }
            Ok(Some(ParallelPlan::uniform(
                label.clone(),
                n_layers,
                n,
                strategy.clone(),
                batch,
            )))
        })
    }

    fn sweep_gpipe(
        &self,
        model: &ModelSpec,
        budget_bytes: u64,
    ) -> Result<Option<OptimizeOutcome>, ClusterError> {
        let n = self.topology.n_devices();
        if model.n_layers() < n {
            return Ok(None);
        }
        // torch GPipe balances by layer count.
        let bounds = PipelinePartitioner::ByLayerCount.partition(model, n);
        let label = BaselineStrategy::GPipePp.label().to_string();
        self.sweep(model, budget_bytes, move |batch, estimator| {
            let stages: Vec<StagePlan> = bounds
                .iter()
                .enumerate()
                .map(|(i, &(start, end))| StagePlan {
                    layer_start: start,
                    layer_end: end,
                    device_base: i,
                    device_count: 1,
                    layer_strategies: vec![IntraStageStrategy::single_device(); end - start],
                    layer_recompute: Vec::new(),
                })
                .collect();
            // Tune micro-batches against per-stage costs (the paper
            // "manually tune[s] the number of micro-batches", §5.1).
            let mut stage_costs = Vec::with_capacity(stages.len());
            for stage in &stages {
                stage_costs.push(estimator.stage_cost(model, stage, batch as u64, 1)?.time);
            }
            let (micro_batches, _) = optimal_micro_batches(
                &stage_costs,
                batch,
                1,
                estimator.config().micro_batch_overhead,
            );
            Ok(Some(ParallelPlan {
                origin: label.clone(),
                global_batch: batch,
                micro_batches,
                schedule: Default::default(),
                stages,
            }))
        })
    }

    fn sweep_deepspeed_3d(
        &self,
        model: &ModelSpec,
        budget_bytes: u64,
    ) -> Result<Option<OptimizeOutcome>, ClusterError> {
        let n = self.topology.n_devices();
        if n < 8 {
            return Ok(None);
        }
        // On 8 GPUs: the officially suggested 2-way DP/TP/PP combination
        // (§5.2). On larger clusters the paper "manually search[es] for the
        // optimal DeepSpeed 3D parallelism configurations" (§5.6); we sweep
        // the (tp, pp) grid and keep the best.
        let shapes: Vec<(usize, usize)> = if n <= 8 {
            vec![(2, 2)]
        } else {
            let mut shapes = Vec::new();
            for tp in [2usize, 4, 8] {
                for pp in [2usize, 4, 8] {
                    if tp * pp <= n && pp <= model.n_layers() {
                        shapes.push((tp, pp));
                    }
                }
            }
            shapes
        };
        let mut best: Option<OptimizeOutcome> = None;
        for (tp, pp) in shapes {
            if let Some(outcome) = self.sweep_deepspeed_shape(model, budget_bytes, tp, pp)? {
                let better = best.as_ref().is_none_or(|b| {
                    outcome.throughput_samples_per_sec > b.throughput_samples_per_sec
                });
                if better {
                    best = Some(outcome);
                }
            }
        }
        Ok(best)
    }

    fn sweep_deepspeed_shape(
        &self,
        model: &ModelSpec,
        budget_bytes: u64,
        tp: usize,
        pp: usize,
    ) -> Result<Option<OptimizeOutcome>, ClusterError> {
        let n = self.topology.n_devices();
        let dp = n / (tp * pp);
        let group = n / pp;
        let stage_strategy = if dp > 1 {
            IntraStageStrategy::new(vec![
                StrategyAxis::new(Paradigm::Data, dp),
                StrategyAxis::new(Paradigm::Tensor, tp),
            ])
            .expect("valid DeepSpeed 3D axes")
        } else {
            IntraStageStrategy::pure(Paradigm::Tensor, tp).expect("valid TP axis")
        };
        let bounds = PipelinePartitioner::ByLayerCount.partition(model, pp);
        let label = BaselineStrategy::DeepSpeed3d.label().to_string();
        self.sweep(model, budget_bytes, move |batch, estimator| {
            if batch % dp != 0 {
                return Ok(None);
            }
            let stages: Vec<StagePlan> = bounds
                .iter()
                .enumerate()
                .map(|(i, &(start, end))| StagePlan {
                    layer_start: start,
                    layer_end: end,
                    device_base: i * group,
                    device_count: group,
                    layer_strategies: vec![stage_strategy.clone(); end - start],
                    layer_recompute: Vec::new(),
                })
                .collect();
            let mut stage_costs = Vec::with_capacity(stages.len());
            for stage in &stages {
                stage_costs.push(estimator.stage_cost(model, stage, batch as u64, 1)?.time);
            }
            let (micro_batches, _) = optimal_micro_batches(
                &stage_costs,
                batch,
                dp,
                estimator.config().micro_batch_overhead,
            );
            Ok(Some(ParallelPlan {
                origin: label.clone(),
                global_batch: batch,
                micro_batches,
                schedule: Default::default(),
                stages,
            }))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::{rtx_titan_node, GIB};
    use galvatron_model::PaperModel;

    fn planner() -> BaselinePlanner {
        BaselinePlanner::new(
            rtx_titan_node(8),
            OptimizerConfig {
                max_batch: 128,
                ..OptimizerConfig::default()
            },
        )
    }

    #[test]
    fn ddp_ooms_on_bert_at_12g_but_fits_at_16g() {
        // Table 1: PyTorch DDP on BERT-Huge-32 is OOM at 8/12 GB and runs
        // at 16 GB.
        let p = planner();
        let model = PaperModel::BertHuge32.spec();
        assert!(p
            .plan(BaselineStrategy::PyTorchDdp, &model, 12 * GIB)
            .unwrap()
            .is_none());
        let out = p
            .plan(BaselineStrategy::PyTorchDdp, &model, 16 * GIB)
            .unwrap()
            .expect("fits at 16 GiB");
        assert_eq!(out.plan.pp_degree(), 1);
        assert_eq!(out.plan.strategy_of(0).unwrap().dp(), 8);
    }

    #[test]
    fn every_strategy_produces_a_valid_plan_when_feasible() {
        let p = planner();
        let model = PaperModel::VitHuge32.spec();
        for strategy in BaselineStrategy::ALL {
            if let Some(out) = p.plan(strategy, &model, 16 * GIB).unwrap() {
                out.plan.validate(model.n_layers(), 8).unwrap();
                assert!(out.throughput_samples_per_sec > 0.0, "{}", strategy.label());
            } else {
                panic!("{} should fit ViT at 16 GiB", strategy.label());
            }
        }
    }

    #[test]
    fn deepspeed_3d_uses_the_suggested_shape() {
        let p = planner();
        let model = PaperModel::VitHuge32.spec();
        let out = p
            .plan(BaselineStrategy::DeepSpeed3d, &model, 16 * GIB)
            .unwrap()
            .expect("feasible");
        assert_eq!(out.plan.pp_degree(), 2);
        let s = out.plan.strategy_of(0).unwrap();
        assert_eq!(s.dp(), 2);
        assert_eq!(s.tp(), 2);
        assert_eq!(s.total_degree(), 4);
    }

    #[test]
    fn gpipe_uses_one_device_per_stage() {
        let p = planner();
        let model = PaperModel::VitHuge32.spec();
        let out = p
            .plan(BaselineStrategy::GPipePp, &model, 8 * GIB)
            .unwrap()
            .expect("Table 1 shows GPipe running ViT at 8 GB");
        assert_eq!(out.plan.pp_degree(), 8);
        assert!(out.plan.micro_batches > 1);
        for stage in &out.plan.stages {
            assert_eq!(stage.device_count, 1);
        }
    }

    #[test]
    fn galvatron_dominates_every_baseline_in_estimated_throughput() {
        // The paper's headline: "Galvatron always achieves superior system
        // throughput compared to previous work" — here in estimator terms,
        // where it holds exactly because every baseline plan shape lies
        // inside (or near) Galvatron's search space.
        let p = planner();
        let model = PaperModel::SwinHuge32.spec();
        for budget in [8 * GIB, 16 * GIB] {
            let full = p
                .plan(BaselineStrategy::GalvatronFull, &model, budget)
                .unwrap()
                .expect("feasible");
            for strategy in [
                BaselineStrategy::PyTorchDdp,
                BaselineStrategy::MegatronTp,
                BaselineStrategy::FsdpSdp,
                BaselineStrategy::GalvatronDpTp,
                BaselineStrategy::GalvatronDpPp,
            ] {
                if let Some(out) = p.plan(strategy, &model, budget).unwrap() {
                    assert!(
                        full.throughput_samples_per_sec >= out.throughput_samples_per_sec - 1e-9,
                        "{} beat Galvatron at {budget}",
                        strategy.label()
                    );
                }
            }
        }
    }

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(BaselineStrategy::FsdpSdp.label(), "FSDP/ZeRO-3 (SDP)");
        assert_eq!(BaselineStrategy::GalvatronFull.label(), "Galvatron (ours)");
        assert_eq!(BaselineStrategy::ALL.len(), 8);
    }
}
