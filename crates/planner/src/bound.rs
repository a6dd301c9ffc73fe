//! A cheap, sound throughput upper bound for a sweep candidate.
//!
//! The estimator's stage time is at least the stage's forward + backward
//! compute: every other component (TP/ZeRO collectives, Slice-Gather
//! transformations, launch overheads, the overlap-slowdown α ≥ 1) only adds
//! time. Compute itself is bounded below by a perfect-speedup model — all
//! `group` devices of a stage splitting the work with zero communication at
//! the *fastest* member's rate — and backward costs at least 2× forward
//! (§3.4; 3× with recompute), so
//!
//! ```text
//! stage_time_i ≥ 3 · batch · stage_flops_i / (group · max_rate_i)
//! ```
//!
//! Feeding these per-stage lower bounds through the GPipe bubble formula
//! (monotone in each stage time) bounds the iteration time below, hence the
//! throughput above. A candidate whose bound is *strictly* below the best
//! throughput found so far can never win Algorithm 1's strict-improvement
//! comparison, so skipping it cannot change the selected plan.

use galvatron_cluster::ClusterTopology;
use galvatron_core::CandidateSpec;
use galvatron_estimator::gpipe_iteration_time;
use galvatron_model::ModelSpec;

/// Samples/second this candidate cannot exceed under the cost model.
/// Returns `+inf` (never prunes) on any degenerate input.
pub fn throughput_upper_bound(
    model: &ModelSpec,
    topology: &ClusterTopology,
    spec: &CandidateSpec,
) -> f64 {
    let n = topology.n_devices();
    if spec.pp == 0 || n == 0 || !n.is_multiple_of(spec.pp) || spec.bounds.is_empty() {
        return f64::INFINITY;
    }
    let group = n / spec.pp;
    let mut stage_lower_bounds = Vec::with_capacity(spec.bounds.len());
    for (i, &(start, end)) in spec.bounds.iter().enumerate() {
        if end > model.n_layers() || start > end {
            return f64::INFINITY;
        }
        let flops: f64 = model.layers[start..end]
            .iter()
            .map(|l| l.forward_flops_per_sample())
            .sum();
        let mut rate = 0.0f64;
        for device in i * group..(i + 1) * group {
            match topology.gpu_of(device) {
                Ok(spec) => rate = rate.max(spec.sustained_flops),
                Err(_) => return f64::INFINITY,
            }
        }
        if !(rate.is_finite() && rate > 0.0) {
            return f64::INFINITY;
        }
        stage_lower_bounds.push(3.0 * spec.batch as f64 * flops / (group as f64 * rate));
    }
    let iteration_lower_bound =
        gpipe_iteration_time(&stage_lower_bounds, spec.micro_batches.max(1));
    if iteration_lower_bound > 0.0 {
        spec.batch as f64 / iteration_lower_bound
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::rtx_titan_node;
    use galvatron_core::reference::DirectStageDp;
    use galvatron_core::{evaluate_candidate, strategy_sets, CandidateResult, OptimizerConfig};
    use galvatron_estimator::{CostEstimator, EstimatorConfig};
    use galvatron_model::{BertConfig, PaperModel};

    #[test]
    fn bound_dominates_the_estimator_throughput() {
        // Soundness: for every evaluated candidate, the bound is at least
        // the estimated throughput.
        let topo = rtx_titan_node(8);
        let config = OptimizerConfig::default();
        let estimator = CostEstimator::new(
            topo.clone(),
            EstimatorConfig {
                include_boundary_comm: true,
                ..EstimatorConfig::default()
            },
        );
        let model = PaperModel::BertHuge32.spec();
        let sets = strategy_sets(&config, &model, 8);
        for &(pp, ref set) in &sets {
            let bounds = galvatron_core::stage_bound_sets(&config, &model, &topo, pp);
            let stage_budgets = topo.stage_usable_budgets(16 * galvatron_cluster::GIB, pp);
            for micro_batches in galvatron_core::micro_batch_candidates(16, pp) {
                let spec = CandidateSpec {
                    batch: 16,
                    pp,
                    bounds: bounds[0].clone(),
                    micro_batches,
                };
                let out = evaluate_candidate(
                    &estimator,
                    &model,
                    &config,
                    set,
                    &spec,
                    &stage_budgets,
                    &DirectStageDp,
                )
                .unwrap();
                if let CandidateResult::Evaluated { throughput, .. } = out.result {
                    let ub = throughput_upper_bound(&model, &topo, &spec);
                    assert!(
                        ub >= throughput,
                        "pp {pp} m {micro_batches}: bound {ub} < estimate {throughput}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_specs_never_prune() {
        let topo = rtx_titan_node(8);
        let model = BertConfig {
            layers: 4,
            hidden: 1280,
            heads: 20,
            seq: 512,
            vocab: 30522,
        }
        .build("bert-4");
        let spec = CandidateSpec {
            batch: 8,
            pp: 3, // does not divide 8
            bounds: vec![(0, 2)],
            micro_batches: 1,
        };
        assert_eq!(throughput_upper_bound(&model, &topo, &spec), f64::INFINITY);
    }
}
