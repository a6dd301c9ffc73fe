//! Plan introspection: *why* does the chosen plan look the way it does?
//!
//! [`explain_plan`] re-prices a [`ParallelPlan`] layer by layer with the
//! same estimator conventions the Eq. 1 DP used to choose it — per-layer
//! costs at micro-batch payload scaled by the micro-batch count,
//! transformation costs `R` at the whole stage batch, memory at the
//! schedule's activation-stash window — and, for every layer, reports the
//! best *alternative* strategy from the stage's runnable set together with
//! its margin. A positive margin says "the runner-up is this many seconds
//! slower"; a **negative** margin is possible and meaningful: the DP picks
//! the time-optimal assignment *under the memory budget*, so a layer can
//! carry a locally slower strategy because the faster one did not fit next
//! to the rest of the stage.
//!
//! The per-layer `total_seconds` reproduces the DP's `c(l, s)` term
//! bit-for-bit (same calls, same order), which the telemetry tests pin to
//! 1e-9 against a direct estimator recomputation.

use crate::candidate::runnable_set;
use crate::optimizer::OptimizerConfig;
use galvatron_cluster::ClusterError;
use galvatron_estimator::CostEstimator;
use galvatron_model::ModelSpec;
use galvatron_strategy::{DecisionTreeBuilder, IntraStageStrategy, ParallelPlan};
use serde::Serialize;

/// `skip_serializing_if` predicate: omit `recompute` when false so
/// stash-only explanations serialize exactly as they did pre-BMW.
fn is_false(b: &bool) -> bool {
    !*b
}

/// One layer's share of the plan, with the decision margin.
#[derive(Debug, Clone, Serialize)]
pub struct LayerExplanation {
    /// Model-wide layer index.
    pub layer: usize,
    /// The layer's display name ("embed", "enc.3", ...).
    pub name: String,
    /// Chosen strategy, rendered (e.g. `dp2·tp4` forms).
    pub strategy: String,
    /// Whether the plan recomputes this layer's activations during backward
    /// (the fifth DP dimension). When set, `total_seconds` and the memory
    /// columns are priced with the recompute kernels the DP used.
    #[serde(skip_serializing_if = "is_false")]
    pub recompute: bool,
    /// The DP's `c(l, s)`: wall-clock seconds for this layer across the
    /// stage's micro-batches, overlap model applied.
    pub total_seconds: f64,
    /// Un-overlapped compute seconds: `m · (forward + backward)`.
    pub compute_seconds: f64,
    /// Un-overlapped communication seconds:
    /// `m · (tp_fwd + tp_bwd + 2·gather + reduce_scatter) + dp_allreduce`.
    /// Overlap means `total ≤ compute + comm + overhead` in general.
    pub comm_seconds: f64,
    /// Fixed kernel-launch overhead seconds.
    pub overhead_seconds: f64,
    /// The `R(l, S_prev, S_l)` transformation cost paid entering this
    /// layer, seconds (0 for the first layer of a stage).
    pub transform_seconds: f64,
    /// Persistent bytes per device (params + grads + optimizer +
    /// activation stash).
    pub persistent_bytes: u64,
    /// Transient peak extra bytes (ZeRO-3 gather).
    pub transient_bytes: u64,
    /// The best alternative strategy in the stage's runnable set, holding
    /// the neighbouring layers' choices fixed. `None` when the set has no
    /// alternative.
    pub runner_up: Option<String>,
    /// `chain(runner_up) − chain(chosen)` seconds, where `chain(s) =
    /// c(l,s) + R(prev→s) + R(s→next)`. Negative when the chosen strategy
    /// was memory-forced (see module docs).
    pub runner_up_margin_seconds: Option<f64>,
}

/// One pipeline stage's layers plus stage-level identity.
#[derive(Debug, Clone, Serialize)]
pub struct StageExplanation {
    /// Stage index.
    pub stage: usize,
    /// First device of the stage group.
    pub device_base: usize,
    /// Devices in the stage group.
    pub device_count: usize,
    /// First layer (inclusive).
    pub layer_start: usize,
    /// One past the last layer.
    pub layer_end: usize,
    /// Σ per-layer totals + Σ transformation costs — the DP objective for
    /// this stage's chosen assignment.
    pub stage_seconds: f64,
    /// The per-layer breakdown.
    pub layers: Vec<LayerExplanation>,
}

/// A full plan explanation (serializable; render with
/// [`PlanExplanation::render`]).
#[derive(Debug, Clone, Serialize)]
pub struct PlanExplanation {
    /// The plan's origin label.
    pub origin: String,
    /// Global batch size, samples.
    pub global_batch: usize,
    /// Micro-batch count.
    pub micro_batches: usize,
    /// Estimated iteration seconds (whole-plan estimator, incl. bubbles
    /// and boundary transfers — not the sum of stage DP objectives).
    pub iteration_seconds: f64,
    /// Estimated samples/second.
    pub throughput_samples_per_sec: f64,
    /// Estimated peak bytes on the busiest device.
    pub peak_memory_bytes: u64,
    /// Per-stage breakdowns.
    pub stages: Vec<StageExplanation>,
}

/// Explain `plan` under the strategy space `config` describes. The
/// decision trees and runnable-set filtering reproduce what the search saw,
/// so runner-up margins are meaningful alternatives, not arbitrary ones.
pub fn explain_plan(
    estimator: &CostEstimator,
    model: &ModelSpec,
    plan: &ParallelPlan,
    config: &OptimizerConfig,
) -> Result<PlanExplanation, ClusterError> {
    let batch = plan.global_batch as u64;
    let m = plan.micro_batches.max(1);
    // The DP prices layers at micro payload; mirror its clamping exactly.
    let micro_u64 = (batch / m as u64).max(1);
    let micro = plan.global_batch / m;
    let pp = plan.stages.len();
    let cost = estimator.plan_cost(model, plan)?;

    let mut stages = Vec::with_capacity(pp);
    for (si, stage) in plan.stages.iter().enumerate() {
        let full_set = DecisionTreeBuilder::new(stage.device_count)
            .with_paradigms(&config.paradigms)
            .with_takeaway3(config.takeaway3)
            .strategies();
        let set = runnable_set(&full_set, micro);
        let act_stash = plan.schedule.stash_samples(si, pp, m, plan.global_batch);
        let base = stage.device_base;

        // c(l, s) + R over the chain, per the DP's conventions. Alternatives
        // are priced under the chosen layer's recompute plane, so runner-up
        // margins compare strategies, not checkpointing decisions.
        let layer_total =
            |l: usize, s: &IntraStageStrategy, rc: bool| -> Result<f64, ClusterError> {
                let c =
                    estimator.layer_cost(&model.layers[l], model.dtype, s, micro_u64, base, rc)?;
                Ok(c.total(estimator.config(), m))
            };
        let transform = |l: usize,
                         prev: &IntraStageStrategy,
                         next: &IntraStageStrategy|
         -> Result<f64, ClusterError> {
            estimator.transformation_cost(&model.layers[l], model.dtype, prev, next, batch, base)
        };

        let mut layers = Vec::with_capacity(stage.layer_end - stage.layer_start);
        let mut stage_seconds = 0.0;
        for (off, chosen) in stage.layer_strategies.iter().enumerate() {
            let l = stage.layer_start + off;
            let layer = &model.layers[l];
            let rc = stage.recompute_of(off);
            let c = estimator.layer_cost(layer, model.dtype, chosen, micro_u64, base, rc)?;
            let total = c.total(estimator.config(), m);
            let mf = m as f64;
            let mem = estimator.layer_memory(layer, model.dtype, chosen, act_stash, rc);
            let prev = (off > 0).then(|| &stage.layer_strategies[off - 1]);
            let next = stage.layer_strategies.get(off + 1);
            let transform_seconds = match prev {
                Some(p) => transform(l - 1, p, chosen)?,
                None => 0.0,
            };
            stage_seconds += total + transform_seconds;

            // chain(s) = c(l,s) + R(prev→s) + R(s→next): the terms of the
            // DP objective that depend on this layer's choice alone.
            let chain = |s: &IntraStageStrategy| -> Result<f64, ClusterError> {
                let mut t = layer_total(l, s, rc)?;
                if let Some(p) = prev {
                    t += transform(l - 1, p, s)?;
                }
                if let Some(nx) = next {
                    t += transform(l, s, nx)?;
                }
                Ok(t)
            };
            let chosen_chain = chain(chosen)?;
            let mut runner_up: Option<(&IntraStageStrategy, f64)> = None;
            for alt in set.iter().filter(|a| *a != chosen) {
                let t = chain(alt)?;
                if runner_up.is_none_or(|(_, best)| t < best) {
                    runner_up = Some((alt, t));
                }
            }

            layers.push(LayerExplanation {
                layer: l,
                name: layer.name.clone(),
                strategy: chosen.to_string(),
                recompute: rc,
                total_seconds: total,
                compute_seconds: mf * (c.forward_compute + c.backward_compute),
                comm_seconds: mf
                    * (c.tp_comm_forward
                        + c.tp_comm_backward
                        + 2.0 * c.sdp_gather
                        + c.sdp_reduce_scatter)
                    + c.dp_allreduce,
                overhead_seconds: c.overhead,
                transform_seconds,
                persistent_bytes: mem.persistent(),
                transient_bytes: mem.transient,
                runner_up: runner_up.map(|(s, _)| s.to_string()),
                runner_up_margin_seconds: runner_up.map(|(_, t)| t - chosen_chain),
            });
        }
        stages.push(StageExplanation {
            stage: si,
            device_base: stage.device_base,
            device_count: stage.device_count,
            layer_start: stage.layer_start,
            layer_end: stage.layer_end,
            stage_seconds,
            layers,
        });
    }

    Ok(PlanExplanation {
        origin: plan.origin.clone(),
        global_batch: plan.global_batch,
        micro_batches: plan.micro_batches,
        iteration_seconds: cost.iteration_time,
        throughput_samples_per_sec: cost.throughput,
        peak_memory_bytes: cost.peak_memory(),
        stages,
    })
}

impl PlanExplanation {
    /// Render the explanation as a fixed-width per-layer table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} | batch {} | {} stage(s) | {} micro-batch(es)\n",
            self.origin,
            self.global_batch,
            self.stages.len(),
            self.micro_batches
        ));
        out.push_str(&format!(
            "estimated: {:.2} samples/s | iteration {:.4} s | peak {:.2} GiB\n",
            self.throughput_samples_per_sec,
            self.iteration_seconds,
            self.peak_memory_bytes as f64 / (1u64 << 30) as f64,
        ));
        for stage in &self.stages {
            out.push_str(&format!(
                "\nstage {} | devices {}..{} | layers {}..{} | {:.4} s\n",
                stage.stage,
                stage.device_base,
                stage.device_base + stage.device_count,
                stage.layer_start,
                stage.layer_end,
                stage.stage_seconds,
            ));
            out.push_str(&format!(
                "  {:<5} {:<10} {:<22} {:>10} {:>10} {:>9} {:>9} {:>9}  {}\n",
                "layer",
                "name",
                "strategy",
                "total ms",
                "compute",
                "comm",
                "xform",
                "mem MiB",
                "runner-up (margin ms)",
            ));
            for l in &stage.layers {
                let runner = match (&l.runner_up, l.runner_up_margin_seconds) {
                    (Some(s), Some(margin)) => format!("{s} ({:+.3})", margin * 1e3),
                    _ => "-".to_string(),
                };
                let strategy = if l.recompute {
                    format!("{}+ckpt", l.strategy)
                } else {
                    l.strategy.clone()
                };
                out.push_str(&format!(
                    "  {:<5} {:<10} {:<22} {:>10.3} {:>10.3} {:>9.3} {:>9.3} {:>9.1}  {}\n",
                    l.layer,
                    l.name,
                    strategy,
                    l.total_seconds * 1e3,
                    l.compute_seconds * 1e3,
                    l.comm_seconds * 1e3,
                    l.transform_seconds * 1e3,
                    l.persistent_bytes as f64 / (1u64 << 20) as f64,
                    runner,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::GalvatronOptimizer;
    use galvatron_cluster::{rtx_titan_node, GIB};
    use galvatron_estimator::CostEstimator;
    use galvatron_model::BertConfig;

    fn bert(layers: usize) -> ModelSpec {
        BertConfig {
            layers,
            hidden: 1280,
            heads: 20,
            seq: 512,
            vocab: 30522,
        }
        .build("bert")
    }

    fn explain_best(
        model: &ModelSpec,
        budget: u64,
    ) -> (PlanExplanation, ParallelPlan, OptimizerConfig) {
        let topo = rtx_titan_node(8);
        let config = OptimizerConfig {
            max_batch: 32,
            ..OptimizerConfig::default()
        };
        let out = GalvatronOptimizer::new(config.clone())
            .optimize(model, &topo, budget)
            .unwrap()
            .expect("feasible");
        let estimator = CostEstimator::new(topo, config.estimator.clone());
        let explanation = explain_plan(&estimator, model, &out.plan, &config).unwrap();
        (explanation, out.plan, config)
    }

    #[test]
    fn explains_every_layer_of_the_chosen_plan() {
        let model = bert(4);
        let (ex, plan, _) = explain_best(&model, 16 * GIB);
        let n: usize = ex.stages.iter().map(|s| s.layers.len()).sum();
        assert_eq!(n, model.n_layers());
        assert_eq!(ex.stages.len(), plan.stages.len());
        for stage in &ex.stages {
            for l in &stage.layers {
                assert!(l.total_seconds > 0.0 && l.total_seconds.is_finite());
                assert!(l.compute_seconds > 0.0);
                assert!(l.persistent_bytes > 0);
            }
            // First layer of a stage pays no transformation cost.
            assert_eq!(stage.layers[0].transform_seconds, 0.0);
        }
    }

    #[test]
    fn chosen_strategy_beats_or_memory_dominates_the_runner_up() {
        // The DP minimises Σ c + R under the budget: without memory
        // pressure the chosen chain must be locally optimal, so margins
        // are non-negative.
        let model = bert(4);
        let (ex, _, _) = explain_best(&model, 20 * GIB);
        let mut alternatives = 0;
        for l in ex.stages.iter().flat_map(|s| &s.layers) {
            if let Some(margin) = l.runner_up_margin_seconds {
                alternatives += 1;
                assert!(
                    margin >= -1e-9,
                    "layer {} ({}) margin {margin} under a loose budget",
                    l.layer,
                    l.strategy
                );
            }
        }
        assert!(alternatives > 0, "runnable sets must offer alternatives");
    }

    #[test]
    fn render_lists_every_layer_and_the_headline() {
        let model = bert(4);
        let (ex, _, _) = explain_best(&model, 16 * GIB);
        let text = ex.render();
        assert!(text.contains("samples/s"));
        for l in ex.stages.iter().flat_map(|s| &s.layers) {
            assert!(text.contains(&l.name), "missing layer {}", l.name);
        }
    }

    #[test]
    fn recompute_layers_are_marked_and_priced() {
        let model = bert(4);
        let (_, plan, config) = explain_best(&model, 16 * GIB);
        let topo = rtx_titan_node(8);
        let estimator = CostEstimator::new(topo, config.estimator.clone());

        let base = explain_plan(&estimator, &model, &plan, &config).unwrap();
        let mut ckpt_plan = plan.clone();
        for stage in &mut ckpt_plan.stages {
            stage.layer_recompute = vec![true; stage.n_layers()];
        }
        let ckpt = explain_plan(&estimator, &model, &ckpt_plan, &config).unwrap();

        for (b, c) in base
            .stages
            .iter()
            .flat_map(|s| &s.layers)
            .zip(ckpt.stages.iter().flat_map(|s| &s.layers))
        {
            assert!(!b.recompute && c.recompute);
            // Replayed forward makes the layer strictly slower and strictly
            // lighter than its stash twin.
            assert!(c.total_seconds > b.total_seconds);
            assert!(c.persistent_bytes < b.persistent_bytes);
        }
        assert!(ckpt.render().contains("+ckpt"));
        assert!(!base.render().contains("+ckpt"));
        // Stash-only JSON is unchanged from the pre-recompute schema.
        let json = serde_json::to_string(&base).unwrap();
        assert!(!json.contains("\"recompute\""));
        let json = serde_json::to_string(&ckpt).unwrap();
        assert!(json.contains("\"recompute\":true"));
    }

    #[test]
    fn explanation_serializes() {
        let model = bert(2);
        let (ex, _, _) = explain_best(&model, 16 * GIB);
        let json = serde_json::to_string(&ex).unwrap();
        assert!(json.contains("\"runner_up\""));
        assert!(json.contains("\"stage_seconds\""));
    }
}
