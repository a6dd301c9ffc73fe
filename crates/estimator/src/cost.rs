//! Per-layer time cost under a hybrid strategy — the `c(l, s)` of Eq. 1.
//!
//! Components are kept separate by *scaling behaviour* so whole-plan
//! estimation can price micro-batched pipelines exactly:
//!
//! * compute and TP all-reduces scale with the samples processed — a stage
//!   running `m` micro-batches pays them `m` times at micro payload;
//! * ZeRO-3 parameter all-gathers and gradient reduce-scatters repeat every
//!   micro-batch (FSDP frees unsharded parameters after each module pass);
//! * the DP gradient all-reduce happens once per iteration and overlaps the
//!   last micro-batch's backward compute.

use crate::config::EstimatorConfig;
use crate::overlap::overlapped_time;
use crate::plan_cost::CostEstimator;
use galvatron_cluster::collectives::{all_gather, all_reduce, reduce_scatter};
use galvatron_cluster::{ClusterError, DeviceId};
use galvatron_model::{DType, LayerSpec};
use galvatron_strategy::{IntraStageStrategy, Paradigm};
use serde::{Deserialize, Serialize};

/// The time components of one layer's forward + backward under a strategy,
/// for the batch size the cost was computed at.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Forward compute seconds (scales with samples).
    pub forward_compute: f64,
    /// Backward compute seconds (2× forward, §3.4; 3× with recompute).
    pub backward_compute: f64,
    /// Blocking TP activation all-reduces in forward (scales with samples).
    pub tp_comm_forward: f64,
    /// Blocking TP all-reduces in backward (scales with samples).
    pub tp_comm_backward: f64,
    /// One pass's ZeRO-3 parameter all-gather (batch-independent; paid once
    /// in forward and once in backward).
    pub sdp_gather: f64,
    /// One pass's ZeRO-3 gradient reduce-scatter (batch-independent; paid
    /// once per backward pass, i.e. per micro-batch in a pipeline).
    pub sdp_reduce_scatter: f64,
    /// The DP gradient all-reduce (batch-independent, once per iteration,
    /// overlapping backward compute).
    pub dp_allreduce: f64,
    /// Fixed kernel-launch overheads already folded into the compute terms.
    pub overhead: f64,
}

impl LayerCost {
    /// A zero cost (identity for accumulation).
    pub fn zero() -> Self {
        LayerCost {
            forward_compute: 0.0,
            backward_compute: 0.0,
            tp_comm_forward: 0.0,
            tp_comm_backward: 0.0,
            sdp_gather: 0.0,
            sdp_reduce_scatter: 0.0,
            dp_allreduce: 0.0,
            overhead: 0.0,
        }
    }

    /// Wall-clock total under `config`'s overlap model for a layer inside a
    /// stage running `micro_batches` micro-batches (`1` is the Eq. 1 DP
    /// granularity): the compute and TP terms were computed at micro payload
    /// and repeat `m` times, and so do the ZeRO-3 gathers and
    /// reduce-scatters; only the DP all-reduce stays per-iteration.
    ///
    /// TP all-reduces sit inside the layer's dependency chain and cannot be
    /// hidden; ZeRO-3 gathers are prefetched against forward/backward
    /// compute and gradient synchronisation overlaps backward compute —
    /// with both sides slowed by α while co-resident (§3.4).
    pub fn total(&self, config: &EstimatorConfig, micro_batches: usize) -> f64 {
        let m = micro_batches.max(1) as f64;
        let alpha = config.overlap_slowdown;
        let modeled = config.model_overlap_slowdown;
        let forward = m * self.tp_comm_forward
            + overlapped_time(
                m * self.forward_compute,
                m * self.sdp_gather,
                alpha,
                modeled,
            );
        let backward = m * self.tp_comm_backward
            + overlapped_time(
                m * self.backward_compute,
                m * (self.sdp_gather + self.sdp_reduce_scatter) + self.dp_allreduce,
                alpha,
                modeled,
            );
        forward + backward + self.overhead
    }

    /// Component-wise accumulation.
    pub fn accumulate(&mut self, other: &LayerCost) {
        self.forward_compute += other.forward_compute;
        self.backward_compute += other.backward_compute;
        self.tp_comm_forward += other.tp_comm_forward;
        self.tp_comm_backward += other.tp_comm_backward;
        self.sdp_gather += other.sdp_gather;
        self.sdp_reduce_scatter += other.sdp_reduce_scatter;
        self.dp_allreduce += other.dp_allreduce;
        self.overhead += other.overhead;
    }
}

impl CostEstimator {
    /// Per-layer time cost — `c(l, s)` of Eq. 1 — of `layer` under
    /// `strategy` for `samples_batch` samples flowing through the stage,
    /// when the strategy runs on the contiguous device group starting at
    /// `base`. `recompute = true` prices activation checkpointing for this
    /// layer (the fifth DP dimension): the backward pass replays the forward,
    /// 3× forward compute instead of 2×, the 4/3 total ratio the simulator
    /// pins.
    pub fn layer_cost(
        &self,
        layer: &LayerSpec,
        dtype: DType,
        strategy: &IntraStageStrategy,
        samples_batch: u64,
        base: DeviceId,
        recompute: bool,
    ) -> Result<LayerCost, ClusterError> {
        let config = self.config();
        let topology = self.topology();
        let dp = strategy.dp();
        let sdp = strategy.sdp();
        let tp = strategy.tp();
        let data = strategy.data_degree() as u64;
        let samples = (samples_batch as f64 / data as f64).ceil();

        // --- compute ------------------------------------------------------
        // Lock-step groups run at the slowest member's pace (heterogeneous
        // clusters, §6 future work).
        let flops = layer.forward_flops_per_sample() * samples / tp as f64;
        let rate = topology.group_sustained_flops(base, strategy.total_degree().max(1))?;
        let forward_compute = flops / rate + config.kernel_overhead;
        let backward_factor = if recompute { 3.0 } else { 2.0 };
        let backward_compute = backward_factor * flops / rate + config.kernel_overhead;

        // --- communication -------------------------------------------------
        let mut tp_comm = 0.0;
        if tp > 1 && layer.tp_allreduces_per_pass() > 0 {
            let link = strategy
                .paradigm_link(topology, Paradigm::Tensor, base)?
                .expect("tp > 1 implies a tensor axis");
            let payload = (layer.output_bytes_per_sample(dtype) as f64 * samples).round() as u64;
            let per_pass = layer.tp_allreduces_per_pass() as f64;
            tp_comm = per_pass * all_reduce(tp, payload, link).time() + config.comm_overhead;
        }

        let param_bytes_tp = layer.param_bytes(dtype).div_ceil(tp as u64);
        let mut sdp_gather = 0.0;
        let mut sdp_rs = 0.0;
        let mut dp_ar = 0.0;
        if sdp > 1 {
            let link = strategy
                .paradigm_link(topology, Paradigm::ShardedData, base)?
                .expect("sdp > 1 implies a sharded-data axis");
            // Two all-gathers (forward, backward) + one reduce-scatter
            // (§3.1.1: "the communication cost of SDP is 1.5× larger than
            // DP").
            sdp_gather = all_gather(sdp, param_bytes_tp, link).time() + config.comm_overhead;
            sdp_rs = reduce_scatter(sdp, param_bytes_tp, link).time() + config.comm_overhead;
        }
        if dp > 1 {
            let link = strategy
                .paradigm_link(topology, Paradigm::Data, base)?
                .expect("dp > 1 implies a data axis");
            let payload = param_bytes_tp.div_ceil(sdp as u64);
            dp_ar = all_reduce(dp, payload, link).time() + config.comm_overhead;
        }

        Ok(LayerCost {
            forward_compute,
            backward_compute,
            tp_comm_forward: tp_comm,
            tp_comm_backward: tp_comm,
            sdp_gather,
            sdp_reduce_scatter: sdp_rs,
            dp_allreduce: dp_ar,
            overhead: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::rtx_titan_node;
    use galvatron_model::LayerKind;
    use galvatron_strategy::StrategyAxis;
    use proptest::prelude::*;

    fn bert_layer() -> LayerSpec {
        LayerSpec::new(
            "enc",
            LayerKind::Encoder {
                seq: 512,
                hidden: 1280,
                heads: 20,
                ffn: 5120,
                window: None,
                attn_dropout: true,
                gated_ffn: false,
            },
        )
    }

    fn strat(axes: &[(Paradigm, usize)]) -> IntraStageStrategy {
        IntraStageStrategy::new(axes.iter().map(|&(p, d)| StrategyAxis::new(p, d)).collect())
            .unwrap()
    }

    fn cost_with(strategy: &IntraStageStrategy, batch: u64, recompute: bool) -> LayerCost {
        CostEstimator::with_defaults(rtx_titan_node(8))
            .layer_cost(&bert_layer(), DType::F32, strategy, batch, 0, recompute)
            .unwrap()
    }

    fn cost_of(strategy: &IntraStageStrategy, batch: u64) -> LayerCost {
        cost_with(strategy, batch, false)
    }

    /// Sum of all communication components.
    fn total_comm(c: &LayerCost) -> f64 {
        c.tp_comm_forward
            + c.tp_comm_backward
            + 2.0 * c.sdp_gather
            + c.sdp_reduce_scatter
            + c.dp_allreduce
    }

    #[test]
    fn backward_compute_is_twice_forward() {
        let c = cost_of(&strat(&[(Paradigm::Data, 8)]), 64);
        let cfg = EstimatorConfig::default();
        let fwd_pure = c.forward_compute - cfg.kernel_overhead;
        let bwd_pure = c.backward_compute - cfg.kernel_overhead;
        assert!((bwd_pure / fwd_pure - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dp_comm_is_overlappable_and_tp_comm_is_blocking() {
        let dp = cost_of(&strat(&[(Paradigm::Data, 8)]), 64);
        assert!(dp.dp_allreduce > 0.0);
        assert_eq!(dp.tp_comm_forward + dp.sdp_gather, 0.0);
        assert_eq!(dp.tp_comm_backward + dp.sdp_gather, 0.0);

        let tp = cost_of(&strat(&[(Paradigm::Tensor, 8)]), 64);
        assert!(tp.tp_comm_forward + tp.sdp_gather > 0.0);
        assert!(tp.tp_comm_backward + tp.sdp_gather > 0.0);
        assert_eq!(tp.dp_allreduce + tp.sdp_reduce_scatter, 0.0);
    }

    #[test]
    fn sdp_comm_is_1_5x_dp_comm() {
        let dp = cost_of(&strat(&[(Paradigm::Data, 8)]), 64);
        let sdp = cost_of(&strat(&[(Paradigm::ShardedData, 8)]), 64);
        // Compare β-dominated volumes; launch overheads are ~µs here.
        let ratio = total_comm(&sdp) / total_comm(&dp);
        assert!((ratio - 1.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn tp_divides_compute() {
        let serial = cost_of(&strat(&[(Paradigm::Data, 8)]), 64);
        let tp = cost_of(&strat(&[(Paradigm::Tensor, 8)]), 64);
        // DP8 at batch 64: 8 samples/device; TP8: 64 samples over 8-way
        // sharded compute → same FLOPs per device.
        assert!(
            (serial.forward_compute - tp.forward_compute).abs() < 0.01 * serial.forward_compute
        );
    }

    #[test]
    fn overlap_modeling_increases_total_only_when_comm_overlaps() {
        let cfg_with = EstimatorConfig::default();
        let cfg_without = EstimatorConfig::without_overlap_modeling();
        let dp = cost_of(&strat(&[(Paradigm::Data, 8)]), 64);
        assert!(dp.total(&cfg_with, 1) > dp.total(&cfg_without, 1));
        let tp = cost_of(&strat(&[(Paradigm::Tensor, 8)]), 64);
        assert_eq!(tp.total(&cfg_with, 1), tp.total(&cfg_without, 1));
    }

    #[test]
    fn recompute_inflates_backward() {
        let c = cost_with(&strat(&[(Paradigm::Data, 8)]), 64, true);
        let base = cost_of(&strat(&[(Paradigm::Data, 8)]), 64);
        assert!(c.backward_compute > base.backward_compute);
        assert_eq!(c.forward_compute, base.forward_compute);
    }

    #[test]
    fn accumulate_is_componentwise() {
        let a = cost_of(&strat(&[(Paradigm::Data, 8)]), 64);
        let mut sum = LayerCost::zero();
        sum.accumulate(&a);
        sum.accumulate(&a);
        assert!((sum.forward_compute - 2.0 * a.forward_compute).abs() < 1e-15);
        assert!((sum.dp_allreduce - 2.0 * a.dp_allreduce).abs() < 1e-15);
    }

    #[test]
    fn batch_independent_parts_do_not_scale() {
        let s = strat(&[(Paradigm::ShardedData, 8)]);
        let a = cost_of(&s, 16);
        let b = cost_of(&s, 128);
        assert_eq!(a.sdp_gather, b.sdp_gather);
        assert_eq!(a.sdp_reduce_scatter, b.sdp_reduce_scatter);
        assert!(b.forward_compute > a.forward_compute);
    }

    proptest! {
        #[test]
        fn costs_scale_with_batch(b in prop::sample::select(vec![8u64, 16, 32, 64, 128])) {
            let s = strat(&[(Paradigm::Data, 4), (Paradigm::Tensor, 2)]);
            let small = cost_of(&s, b);
            let large = cost_of(&s, b * 2);
            prop_assert!(large.forward_compute > small.forward_compute);
            // Gradient sync volume does not grow with batch.
            prop_assert!((large.dp_allreduce - small.dp_allreduce).abs() < 1e-12);
        }

        #[test]
        fn every_8gpu_candidate_has_finite_positive_cost(b in 8u64..65) {
            let cfg = EstimatorConfig::default();
            for s in galvatron_strategy::DecisionTreeBuilder::new(8).strategies().iter() {
                let c = cost_of(s, b);
                let t = c.total(&cfg, 1);
                prop_assert!(t.is_finite() && t > 0.0, "{s}: {t}");
            }
        }
    }
}
