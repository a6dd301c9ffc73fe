//! Per-device memory accounting under a hybrid strategy.
//!
//! Figure 1's bookkeeping, quantified. For a layer with parameter bytes `P`
//! (at model dtype), Adam optimizer state, and per-sample activation stash
//! `A(tp)` (see `galvatron-model`), under a strategy with degrees
//! `(dp, sdp, tp)` and a stage batch `B`:
//!
//! * parameters: `P / (tp·sdp)` — TP shards them structurally, ZeRO-3
//!   shards the remainder;
//! * gradients: same as parameters;
//! * optimizer state: `8 bytes/param / (tp·sdp)`;
//! * activations: `A(tp) · B / (dp·sdp)` — DP and SDP both split the batch,
//!   TP shrinks only the shardable fraction ("TP has some additional
//!   replications of the activations", §3.1.1);
//! * SDP transient: during (back)propagation of a layer its full TP-shard of
//!   parameters must be materialised (`P/tp`), so one un-sharded layer's
//!   parameters exist at a time.

use crate::plan_cost::CostEstimator;
use galvatron_model::{DType, LayerSpec};
use galvatron_strategy::IntraStageStrategy;
use serde::{Deserialize, Serialize};

/// Memory footprint of one layer on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerMemory {
    /// Parameter bytes resident per device.
    pub params: u64,
    /// Gradient bytes resident per device.
    pub grads: u64,
    /// Optimizer-state bytes resident per device.
    pub optimizer: u64,
    /// Stashed activation bytes per device for the stage batch.
    pub activations: u64,
    /// Transient peak extra (ZeRO-3 parameter gathering).
    pub transient: u64,
}

impl LayerMemory {
    /// Persistent bytes (everything that lives for the whole iteration).
    pub fn persistent(&self) -> u64 {
        self.params + self.grads + self.optimizer + self.activations
    }

    /// Peak bytes while this layer is the one executing.
    pub fn peak(&self) -> u64 {
        self.persistent() + self.transient
    }
}

impl CostEstimator {
    /// Per-layer memory — `O(l, s)` of Eq. 1 — of `layer` under `strategy`
    /// with `stage_batch` samples' activations stashed on the stage.
    /// `recompute = true` stashes only the layer-boundary input for this
    /// layer; everything else is replayed during backward.
    pub fn layer_memory(
        &self,
        layer: &LayerSpec,
        dtype: DType,
        strategy: &IntraStageStrategy,
        stage_batch: u64,
        recompute: bool,
    ) -> LayerMemory {
        let tp = strategy.tp() as u64;
        let sdp = strategy.sdp() as u64;
        let data = strategy.data_degree() as u64;

        let param_bytes = layer.param_bytes(dtype);
        let shard = tp * sdp;
        let params = param_bytes.div_ceil(shard);
        let grads = params;
        let optimizer =
            (layer.param_count() * self.config().optimizer_bytes_per_param).div_ceil(shard);

        let samples_per_device = stage_batch.div_ceil(data);
        let activations = if recompute {
            // Only layer-boundary inputs are kept; everything else is
            // recomputed during backward.
            layer.output_bytes_per_sample(dtype) * samples_per_device
        } else {
            layer.activation_bytes_tp(dtype, tp) * samples_per_device
        };

        let transient = if sdp > 1 { param_bytes.div_ceil(tp) } else { 0 };

        LayerMemory {
            params,
            grads,
            optimizer,
            activations,
            transient,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::{rtx_titan_node, GIB};
    use galvatron_model::{LayerKind, PaperModel};
    use galvatron_strategy::{Paradigm, StrategyAxis};
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

    fn estimator() -> CostEstimator {
        CostEstimator::with_defaults(rtx_titan_node(8))
    }

    fn strat(axes: &[(Paradigm, usize)]) -> IntraStageStrategy {
        IntraStageStrategy::new(axes.iter().map(|&(p, d)| StrategyAxis::new(p, d)).collect())
            .unwrap()
    }

    #[test]
    fn dp_replicates_state_and_splits_activations() {
        let model = estimator();
        let layer = bert_layer();
        let m = model.layer_memory(
            &layer,
            DType::F32,
            &strat(&[(Paradigm::Data, 8)]),
            64,
            false,
        );
        assert_eq!(m.params, layer.param_bytes(DType::F32));
        assert_eq!(m.optimizer, layer.param_count() * 8);
        assert_eq!(
            m.activations,
            layer.activation_bytes_per_sample(DType::F32) * 8 // 64 / 8
        );
        assert_eq!(m.transient, 0);
    }

    #[test]
    fn sdp_shards_all_state_but_pays_a_transient() {
        let model = estimator();
        let layer = bert_layer();
        let dp = model.layer_memory(
            &layer,
            DType::F32,
            &strat(&[(Paradigm::Data, 8)]),
            64,
            false,
        );
        let sdp = model.layer_memory(
            &layer,
            DType::F32,
            &strat(&[(Paradigm::ShardedData, 8)]),
            64,
            false,
        );
        assert_eq!(sdp.params, dp.params.div_ceil(8));
        assert_eq!(sdp.optimizer, dp.optimizer.div_ceil(8));
        assert_eq!(sdp.activations, dp.activations); // same data split
        assert_eq!(sdp.transient, layer.param_bytes(DType::F32));
        assert!(sdp.peak() < dp.peak());
    }

    #[test]
    fn tp_cannot_shrink_replicated_activations() {
        let model = estimator();
        let layer = bert_layer();
        let tp = model.layer_memory(
            &layer,
            DType::F32,
            &strat(&[(Paradigm::Tensor, 8)]),
            64,
            false,
        );
        let (repl, _) = layer.activation_split_bytes(DType::F32);
        // Full batch on every device (no data split), replicated floor holds.
        assert!(tp.activations >= repl * 64);
        assert_eq!(tp.params, layer.param_bytes(DType::F32).div_ceil(8));
    }

    #[test]
    fn recompute_keeps_only_boundaries() {
        let layer = bert_layer();
        let s = strat(&[(Paradigm::Data, 8)]);
        let m = estimator().layer_memory(&layer, DType::F32, &s, 64, true);
        assert_eq!(m.activations, layer.output_bytes_per_sample(DType::F32) * 8);
    }

    #[test]
    fn whole_model_dp_footprint_matches_hand_calculation() {
        // BERT-Huge-32 under pure DP: 16 bytes/param state + activations.
        let spec = PaperModel::BertHuge32.spec();
        let model = estimator();
        let s = strat(&[(Paradigm::Data, 8)]);
        let total: u64 = spec
            .layers
            .iter()
            .map(|l| model.layer_memory(l, spec.dtype, &s, 8, false).persistent())
            .sum();
        let expected_state = spec.total_param_count() * 16;
        let expected_act = spec.activation_bytes_per_sample(); // 8 / 8 = 1 sample/device
        let diff = total as i64 - (expected_state + expected_act) as i64;
        assert!(diff.unsigned_abs() < GIB / 100, "diff {diff}");
        // And it exceeds every Table 1 budget — DDP OOMs at batch 8 under
        // 12 GiB, as the paper reports.
        assert!(total > 12 * GIB);
    }

    proptest! {
        #[test]
        fn memory_is_monotone_in_batch(b in 1u64..256) {
            let model = estimator();
            let layer = bert_layer();
            let s = strat(&[(Paradigm::Data, 4), (Paradigm::Tensor, 2)]);
            let small = model.layer_memory(&layer, DType::F32, &s, b, false);
            let large = model.layer_memory(&layer, DType::F32, &s, b * 2, false);
            prop_assert!(large.persistent() >= small.persistent());
            prop_assert_eq!(large.params, small.params);
        }

        #[test]
        fn sharding_more_never_costs_more_state(k in 1usize..4) {
            let model = estimator();
            let layer = bert_layer();
            let small = model.layer_memory(
                &layer, DType::F32,
                &strat(&[(Paradigm::Tensor, 1 << (k + 1))]), 64, false);
            let big = model.layer_memory(
                &layer, DType::F32,
                &strat(&[(Paradigm::Tensor, 1 << k)]).clone(), 64, false);
            prop_assert!(small.params <= big.params);
            prop_assert!(small.optimizer <= big.optimizer);
        }
    }
}
