//! Full parallelization plans: PP stage partition + per-layer strategies.

use crate::hybrid::IntraStageStrategy;
use galvatron_cluster::DeviceId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One pipeline stage of a plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePlan {
    /// First model-layer index of the stage (inclusive).
    pub layer_start: usize,
    /// One past the last layer index (exclusive).
    pub layer_end: usize,
    /// First device id of the stage's contiguous group.
    pub device_base: DeviceId,
    /// Devices in the stage group.
    pub device_count: usize,
    /// One strategy per layer in `layer_start..layer_end`.
    pub layer_strategies: Vec<IntraStageStrategy>,
    /// Per-layer activation-recomputation decisions (the fifth DP
    /// dimension): `true` means the layer stashes only its boundary input
    /// and replays the forward during backward. Empty means "all stash" —
    /// the pre-recompute default — so plans that never recompute serialize
    /// byte-identically to the old schema.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub layer_recompute: Vec<bool>,
}

impl StagePlan {
    /// Layers in the stage.
    pub fn n_layers(&self) -> usize {
        self.layer_end - self.layer_start
    }

    /// The strategy of global layer `layer`, if it belongs to this stage.
    pub fn strategy_of(&self, layer: usize) -> Option<&IntraStageStrategy> {
        if layer >= self.layer_start && layer < self.layer_end {
            self.layer_strategies.get(layer - self.layer_start)
        } else {
            None
        }
    }

    /// Whether the layer at in-stage `offset` recomputes its activations.
    /// An empty decision vector means every layer stashes.
    pub fn recompute_of(&self, offset: usize) -> bool {
        self.layer_recompute.get(offset).copied().unwrap_or(false)
    }

    /// Whether any layer of this stage recomputes.
    pub fn any_recompute(&self) -> bool {
        self.layer_recompute.iter().any(|&r| r)
    }
}

/// Errors validating a plan against a model and cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Stages do not tile `0..n_layers` contiguously.
    LayerCoverage {
        /// Where the discontinuity was found.
        at_layer: usize,
    },
    /// Device groups do not tile `0..n_devices` equally.
    DeviceCoverage,
    /// A stage's strategy list length mismatches its layer range.
    StrategyCount {
        /// The offending stage index.
        stage: usize,
    },
    /// A stage's recompute list is neither empty nor one entry per layer.
    RecomputeCount {
        /// The offending stage index.
        stage: usize,
    },
    /// A strategy spans a different device count than its stage group.
    StrategySpan {
        /// The offending stage index.
        stage: usize,
        /// The offending in-stage layer offset.
        layer: usize,
    },
    /// The global batch is not divisible by the micro-batch count times
    /// every layer's data-parallel degree.
    BatchDivisibility,
    /// Zero micro-batches or zero batch.
    Degenerate,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::LayerCoverage { at_layer } => {
                write!(
                    f,
                    "stages do not cover layers contiguously at layer {at_layer}"
                )
            }
            PlanError::DeviceCoverage => write!(f, "stage device groups do not tile the cluster"),
            PlanError::StrategyCount { stage } => {
                write!(f, "stage {stage} has a strategy-count mismatch")
            }
            PlanError::RecomputeCount { stage } => {
                write!(f, "stage {stage} has a recompute-count mismatch")
            }
            PlanError::StrategySpan { stage, layer } => write!(
                f,
                "stage {stage} layer {layer}: strategy spans a different device count"
            ),
            PlanError::BatchDivisibility => {
                write!(f, "batch not divisible by micro-batches × data degree")
            }
            PlanError::Degenerate => write!(f, "plan has zero batch or zero micro-batches"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The pipeline execution schedule.
///
/// The paper evaluates GPipe and "leave[s] the rest (e.g., PipeDream) as
/// future work" (§3.1.1); both are implemented here. They share the same
/// bubble fraction, but 1F1B bounds the activation stash per stage to the
/// number of in-flight micro-batches (`P − stage_index`) instead of all `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PipelineSchedule {
    /// GPipe: the full forward sweep flushes before any backward; every
    /// micro-batch's activations are live simultaneously.
    #[default]
    GPipe,
    /// PipeDream-flush / 1F1B: after a warm-up of `P − s` forwards, stage
    /// `s` alternates one backward with one forward, capping in-flight
    /// activations at the warm-up depth.
    OneFOneB,
}

impl PipelineSchedule {
    /// Micro-batches whose activation stashes are simultaneously live on
    /// pipeline stage `stage_index` of `pp_degree` stages running
    /// `micro_batches` micro-batches.
    pub fn in_flight(self, stage_index: usize, pp_degree: usize, micro_batches: usize) -> usize {
        match self {
            PipelineSchedule::GPipe => micro_batches,
            PipelineSchedule::OneFOneB => micro_batches.min(pp_degree - stage_index),
        }
    }

    /// Samples whose activations stage `stage_index` stashes at once: its
    /// [`in_flight`](Self::in_flight) micro-batches of
    /// `global_batch / micro_batches` samples each, capped at the whole
    /// batch.
    pub fn stash_samples(
        self,
        stage_index: usize,
        pp_degree: usize,
        micro_batches: usize,
        global_batch: usize,
    ) -> u64 {
        let micro = (global_batch / micro_batches) as u64;
        let in_flight = self.in_flight(stage_index, pp_degree, micro_batches) as u64;
        (micro * in_flight).min(global_batch as u64)
    }
}

/// A complete parallelization plan for a model on a cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelPlan {
    /// Human-readable origin ("Galvatron", "PyTorch DDP (DP)", ...).
    pub origin: String,
    /// Global (per-iteration) batch size in samples.
    pub global_batch: usize,
    /// Micro-batch count (1 when there is a single stage).
    pub micro_batches: usize,
    /// The pipeline execution schedule (ignored when there is one stage).
    #[serde(default)]
    pub schedule: PipelineSchedule,
    /// The pipeline stages, in model order.
    pub stages: Vec<StagePlan>,
}

impl ParallelPlan {
    /// Pipeline-parallel degree.
    pub fn pp_degree(&self) -> usize {
        self.stages.len()
    }

    /// Samples per micro-batch.
    pub fn micro_batch_size(&self) -> usize {
        self.global_batch / self.micro_batches
    }

    /// A single-stage plan applying one strategy to every layer — the shape
    /// every pure-DP/SDP/TP baseline produces.
    pub fn uniform(
        origin: impl Into<String>,
        n_layers: usize,
        n_devices: usize,
        strategy: IntraStageStrategy,
        global_batch: usize,
    ) -> Self {
        debug_assert_eq!(strategy.total_degree(), n_devices);
        ParallelPlan {
            origin: origin.into(),
            global_batch,
            micro_batches: 1,
            schedule: PipelineSchedule::default(),
            stages: vec![StagePlan {
                layer_start: 0,
                layer_end: n_layers,
                device_base: 0,
                device_count: n_devices,
                layer_strategies: vec![strategy; n_layers],
                layer_recompute: Vec::new(),
            }],
        }
    }

    /// The strategy assigned to global layer `layer`.
    pub fn strategy_of(&self, layer: usize) -> Option<&IntraStageStrategy> {
        self.stages.iter().find_map(|s| s.strategy_of(layer))
    }

    /// The stage containing global layer `layer`.
    pub fn stage_of(&self, layer: usize) -> Option<(usize, &StagePlan)> {
        self.stages
            .iter()
            .enumerate()
            .find(|(_, s)| layer >= s.layer_start && layer < s.layer_end)
    }

    /// Validate structural invariants against a model of `n_layers` layers
    /// on `n_devices` devices.
    pub fn validate(&self, n_layers: usize, n_devices: usize) -> Result<(), PlanError> {
        if self.global_batch == 0 || self.micro_batches == 0 {
            return Err(PlanError::Degenerate);
        }
        // Contiguous layer coverage.
        let mut next_layer = 0usize;
        for stage in &self.stages {
            if stage.layer_start != next_layer || stage.layer_end < stage.layer_start {
                return Err(PlanError::LayerCoverage {
                    at_layer: stage.layer_start,
                });
            }
            next_layer = stage.layer_end;
        }
        if next_layer != n_layers {
            return Err(PlanError::LayerCoverage {
                at_layer: next_layer,
            });
        }
        // Equal contiguous device groups (Takeaway #2).
        let per_stage = n_devices / self.stages.len();
        if per_stage * self.stages.len() != n_devices {
            return Err(PlanError::DeviceCoverage);
        }
        for (i, stage) in self.stages.iter().enumerate() {
            if stage.device_base != i * per_stage || stage.device_count != per_stage {
                return Err(PlanError::DeviceCoverage);
            }
            if stage.layer_strategies.len() != stage.n_layers() {
                return Err(PlanError::StrategyCount { stage: i });
            }
            if !stage.layer_recompute.is_empty() && stage.layer_recompute.len() != stage.n_layers()
            {
                return Err(PlanError::RecomputeCount { stage: i });
            }
            for (j, strat) in stage.layer_strategies.iter().enumerate() {
                if strat.total_degree() != per_stage {
                    return Err(PlanError::StrategySpan { stage: i, layer: j });
                }
            }
        }
        // Batch divisibility: every layer's data split must divide the
        // micro-batch.
        if !self.global_batch.is_multiple_of(self.micro_batches) {
            return Err(PlanError::BatchDivisibility);
        }
        let micro = self.global_batch / self.micro_batches;
        for stage in &self.stages {
            for strat in &stage.layer_strategies {
                if !micro.is_multiple_of(strat.data_degree()) {
                    return Err(PlanError::BatchDivisibility);
                }
            }
        }
        Ok(())
    }

    /// A Figure-5-style textual rendering: consecutive layers sharing a
    /// strategy are folded into `strategy ×N` runs, per stage.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} | batch {} | {}-way PP | {} micro-batches{}\n",
            self.origin,
            self.global_batch,
            self.pp_degree(),
            self.micro_batches,
            if self.pp_degree() > 1 && self.schedule == PipelineSchedule::OneFOneB {
                " | 1F1B"
            } else {
                ""
            }
        ));
        for (i, stage) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "  stage {i} [devices {}..{}] layers {}..{}:",
                stage.device_base,
                stage.device_base + stage.device_count,
                stage.layer_start,
                stage.layer_end
            ));
            let mut runs: Vec<(String, usize)> = Vec::new();
            for (j, s) in stage.layer_strategies.iter().enumerate() {
                let mut label = s.label();
                if stage.recompute_of(j) {
                    label.push_str("+ckpt");
                }
                match runs.last_mut() {
                    Some((last, count)) if *last == label => *count += 1,
                    _ => runs.push((label, 1)),
                }
            }
            for (label, count) in runs {
                out.push_str(&format!(" {label}×{count}"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for ParallelPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::{Paradigm, StrategyAxis};

    fn strat(axes: &[(Paradigm, usize)]) -> IntraStageStrategy {
        IntraStageStrategy::new(axes.iter().map(|&(p, d)| StrategyAxis::new(p, d)).collect())
            .unwrap()
    }

    fn two_stage_plan() -> ParallelPlan {
        ParallelPlan {
            origin: "test".into(),
            global_batch: 16,
            micro_batches: 4,
            schedule: PipelineSchedule::default(),
            stages: vec![
                StagePlan {
                    layer_start: 0,
                    layer_end: 3,
                    device_base: 0,
                    device_count: 4,
                    layer_strategies: vec![strat(&[(Paradigm::Data, 4)]); 3],
                    layer_recompute: Vec::new(),
                },
                StagePlan {
                    layer_start: 3,
                    layer_end: 6,
                    device_base: 4,
                    device_count: 4,
                    layer_strategies: vec![
                        strat(&[(Paradigm::Data, 2), (Paradigm::Tensor, 2)]),
                        strat(&[(Paradigm::Data, 2), (Paradigm::Tensor, 2)]),
                        strat(&[(Paradigm::Tensor, 4)]),
                    ],
                    layer_recompute: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn valid_plan_passes_validation() {
        let plan = two_stage_plan();
        assert_eq!(plan.pp_degree(), 2);
        assert_eq!(plan.micro_batch_size(), 4);
        plan.validate(6, 8).unwrap();
    }

    #[test]
    fn strategy_lookup_spans_stages() {
        let plan = two_stage_plan();
        assert_eq!(plan.strategy_of(0).unwrap().label(), "DP4");
        assert_eq!(plan.strategy_of(5).unwrap().label(), "TP4");
        assert!(plan.strategy_of(6).is_none());
        assert_eq!(plan.stage_of(4).unwrap().0, 1);
    }

    #[test]
    fn uniform_plan_is_valid() {
        let plan = ParallelPlan::uniform("DDP", 10, 8, strat(&[(Paradigm::Data, 8)]), 32);
        plan.validate(10, 8).unwrap();
        assert_eq!(plan.pp_degree(), 1);
    }

    #[test]
    fn gaps_and_overlaps_are_rejected() {
        let mut plan = two_stage_plan();
        plan.stages[1].layer_start = 4; // gap at layer 3
        assert!(matches!(
            plan.validate(6, 8),
            Err(PlanError::LayerCoverage { at_layer: 4 })
        ));
        let mut plan = two_stage_plan();
        plan.stages[1].layer_end = 5; // missing layer 5
        assert!(matches!(
            plan.validate(6, 8),
            Err(PlanError::LayerCoverage { at_layer: 5 })
        ));
        // Strategy-count mismatch must also adjust the list; drop one.
        let mut plan = two_stage_plan();
        plan.stages[1].layer_strategies.pop();
        assert!(matches!(
            plan.validate(6, 8),
            Err(PlanError::StrategyCount { stage: 1 })
        ));
    }

    #[test]
    fn device_tiling_is_enforced() {
        let mut plan = two_stage_plan();
        plan.stages[1].device_base = 3;
        assert_eq!(plan.validate(6, 8), Err(PlanError::DeviceCoverage));
        let plan2 = two_stage_plan();
        // Wrong cluster size: groups would not tile 12 devices.
        assert_eq!(plan2.validate(6, 12), Err(PlanError::DeviceCoverage));
    }

    #[test]
    fn batch_divisibility_is_enforced() {
        let mut plan = two_stage_plan();
        plan.global_batch = 12; // 12 % 4 micro-batches = 0, micro = 3, but DP4 needs 4 | 3
        assert_eq!(plan.validate(6, 8), Err(PlanError::BatchDivisibility));
        let mut plan = two_stage_plan();
        plan.micro_batches = 3;
        assert_eq!(plan.validate(6, 8), Err(PlanError::BatchDivisibility));
    }

    #[test]
    fn summary_folds_runs() {
        let plan = two_stage_plan();
        let s = plan.summary();
        assert!(s.contains("DP4×3"), "{s}");
        assert!(s.contains("DP2-TP2×2"), "{s}");
        assert!(s.contains("TP4×1"), "{s}");
    }
}
