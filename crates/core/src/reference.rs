//! The reference Eq. 1 solver: simple, obviously faithful to the
//! recurrence in [`crate::dp`], and kept untouched as the oracle every other
//! path is differenced against.
//!
//! Production planning never runs it: the planner answers every query with
//! the bit-identical [`ArenaStageDp`](crate::arena::ArenaStageDp). Only the
//! serial baseline ([`GalvatronOptimizer`](crate::GalvatronOptimizer)), the
//! oracle and fuzz suites and the `fig4` binary call [`solve`] or
//! [`DirectStageDp`].

use crate::dp::{DirectCosts, DpResult, StageCostProvider, StageDp, StageDpQuery};
use galvatron_cluster::ClusterError;
use galvatron_estimator::CostEstimator;
use galvatron_model::ModelSpec;

/// Run Eq. 1 for one query with kernels from `provider` ([`DirectCosts`]
/// outside of tests).
///
/// Decisions range over the enlarged space `(strategy, recompute)`, indexed
/// `d = plane·|S| + s` with the stash plane first, so under the solver's
/// first-wins strict-`<` tie-breaking an all-stash assignment wins whenever
/// recompute does not strictly improve the objective; with
/// [`RecomputeMode::Off`](crate::RecomputeMode::Off) the decision space
/// degenerates to the per-strategy scan of the pre-recompute solver. The
/// transformation kernel `R` depends only on the strategy components
/// (recomputation changes what a layer stashes, not how activations are
/// laid out across devices), so the `R` table stays `|S|²` and decisions
/// index it through their strategy part.
///
/// Returns `Ok(None)` when no assignment fits the budget (the paper's `∞`).
pub fn solve(
    estimator: &CostEstimator,
    model: &ModelSpec,
    q: &StageDpQuery<'_>,
    provider: &dyn StageCostProvider,
) -> Result<Option<DpResult>, ClusterError> {
    let StageDpQuery {
        layer_start,
        layer_end,
        base_device,
        set,
        stage_batch,
        usable_budget,
        granularity,
        micro_batches,
        act_stash_batch,
        recompute,
    } = *q;
    let layer_range = layer_start..layer_end;
    assert!(granularity > 0);
    let planes = recompute.planes();
    let layers: Vec<usize> = layer_range.collect();
    let n_layers = layers.len();
    let n_strats = set.len();
    let n_dec = n_strats * planes.len();
    if n_layers == 0 || n_strats == 0 {
        return Ok(Some(DpResult {
            cost: 0.0,
            strategies: Vec::new(),
            recompute: Vec::new(),
            memory_bytes: 0,
        }));
    }

    // Per-layer, per-decision cost and quantized memory; plus the transient
    // reserve (see module docs).
    let mut cost = vec![vec![0.0f64; n_dec]; n_layers];
    let mut mem_units = vec![vec![0u32; n_dec]; n_layers];
    let mut reserve = 0u64;
    let micro = (stage_batch / micro_batches.max(1) as u64).max(1);
    for (li, &l) in layers.iter().enumerate() {
        for (plane, &rc) in planes.iter().enumerate() {
            for (si, s) in set.iter().enumerate() {
                let di = plane * n_strats + si;
                let c = provider.layer_cost_rc(estimator, model, l, s, micro, base_device, rc)?;
                cost[li][di] = c.total(estimator.config(), micro_batches);
                let m = provider.layer_memory_rc(estimator, model, l, s, act_stash_batch, rc);
                mem_units[li][di] =
                    u32::try_from(m.persistent().div_ceil(granularity)).unwrap_or(u32::MAX);
                reserve = reserve.max(m.transient);
            }
        }
    }
    // ZeRO-3 prefetch keeps up to two layers' unsharded parameters resident.
    let budget_units = usable_budget.saturating_sub(2 * reserve) / granularity;
    let e_max = usize::try_from(budget_units)
        .unwrap_or(usize::MAX)
        .min(1 << 22);

    // Transformation costs between consecutive layers: r[li][s_prev][s_next].
    // Strategy-indexed: decisions map through `d % n_strats`.
    let mut r = vec![vec![vec![0.0f64; n_strats]; n_strats]; n_layers];
    for (li, &l) in layers.iter().enumerate().skip(1) {
        for (pi, p) in set.iter().enumerate() {
            for (si, s) in set.iter().enumerate() {
                r[li][pi][si] = provider.transformation(
                    estimator,
                    model,
                    l - 1,
                    p,
                    s,
                    stage_batch,
                    base_device,
                )?;
            }
        }
    }

    // dp[e][d]: min time of the processed prefix using at most `e` memory
    // units, last layer on decision `d`. Backpointers for reconstruction.
    const INF: f64 = f64::INFINITY;
    let width = e_max + 1;
    let mut dp = vec![INF; width * n_dec];
    let mut choice: Vec<u8> = vec![u8::MAX; n_layers * width * n_dec];
    assert!(
        n_dec <= u8::MAX as usize,
        "decision space exceeds u8 backpointers ({n_dec} decisions)"
    );

    // Layer 0.
    for di in 0..n_dec {
        let need = mem_units[0][di] as usize;
        if need <= e_max {
            for e in need..=e_max {
                let v = cost[0][di];
                if v < dp[e * n_dec + di] {
                    dp[e * n_dec + di] = v;
                }
            }
        }
    }

    let mut next = vec![INF; width * n_dec];
    for li in 1..n_layers {
        next.iter_mut().for_each(|v| *v = INF);
        for di in 0..n_dec {
            let need = mem_units[li][di] as usize;
            if need > e_max {
                continue;
            }
            let rrow = &r[li][..];
            let si = di % n_strats;
            for e in need..=e_max {
                let rem = e - need;
                let mut best = INF;
                let mut best_prev = u8::MAX;
                for pd in 0..n_dec {
                    let prior = dp[rem * n_dec + pd];
                    if prior.is_finite() {
                        let total = prior + rrow[pd % n_strats][si];
                        if total < best {
                            best = total;
                            best_prev = pd as u8;
                        }
                    }
                }
                if best.is_finite() {
                    let v = best + cost[li][di];
                    let slot = e * n_dec + di;
                    if v < next[slot] {
                        next[slot] = v;
                        choice[(li * width + e) * n_dec + di] = best_prev;
                    }
                }
            }
        }
        std::mem::swap(&mut dp, &mut next);
    }

    // Pick the best terminal state.
    let mut best = INF;
    let mut best_d = usize::MAX;
    for di in 0..n_dec {
        let v = dp[e_max * n_dec + di];
        if v < best {
            best = v;
            best_d = di;
        }
    }
    if !best.is_finite() {
        return Ok(None);
    }

    // Reconstruct: walk back choosing, at each layer, the recorded parent at
    // the smallest `e` achieving the optimum. Because dp uses "at most e"
    // semantics, the terminal state at e_max is reachable along a path whose
    // per-layer memory draws sum to ≤ e_max; recompute the draw as we go.
    let mut strategies_rev = Vec::with_capacity(n_layers);
    let mut recompute_rev = Vec::with_capacity(n_layers);
    let mut mem_total_units = 0u64;
    let mut di = best_d;
    let mut e = e_max;
    for li in (0..n_layers).rev() {
        strategies_rev.push(set.strategies()[di % n_strats].clone());
        recompute_rev.push(planes[di / n_strats]);
        mem_total_units += mem_units[li][di] as u64;
        if li == 0 {
            break;
        }
        let need = mem_units[li][di] as usize;
        let parent = choice[(li * width + e) * n_dec + di];
        debug_assert_ne!(parent, u8::MAX, "backpointer missing");
        e -= need;
        di = parent as usize;
    }
    strategies_rev.reverse();
    recompute_rev.reverse();
    if recompute_rev.iter().all(|&rc| !rc) {
        recompute_rev = Vec::new();
    }

    Ok(Some(DpResult {
        cost: best,
        strategies: strategies_rev,
        recompute: recompute_rev,
        memory_bytes: mem_total_units * granularity + 2 * reserve,
    }))
}

/// The reference [`StageDp`]: every query runs [`solve`] with
/// [`DirectCosts`] kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectStageDp;

impl StageDp for DirectStageDp {
    fn solve(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        q: &StageDpQuery<'_>,
    ) -> Result<Option<DpResult>, ClusterError> {
        solve(estimator, model, q, &DirectCosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::{rtx_titan_node, GIB, MIB};
    use galvatron_estimator::EstimatorConfig;
    use galvatron_model::{BertConfig, PaperModel};
    use galvatron_strategy::DecisionTreeBuilder;

    fn estimator() -> CostEstimator {
        CostEstimator::new(rtx_titan_node(8), EstimatorConfig::default())
    }

    fn tiny_bert(layers: usize) -> ModelSpec {
        BertConfig {
            layers,
            hidden: 1280,
            heads: 20,
            seq: 512,
            vocab: 30522,
        }
        .build("tiny")
    }

    fn direct(est: &CostEstimator, model: &ModelSpec, q: &StageDpQuery<'_>) -> Option<DpResult> {
        solve(est, model, q, &DirectCosts).unwrap()
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let est = estimator();
        let model = tiny_bert(4);
        let set = DecisionTreeBuilder::new(8).strategies();
        let q = StageDpQuery::new(0..model.n_layers(), &set, 8, 64 * MIB, 32 * MIB);
        assert!(direct(&est, &model, &q).is_none());
    }

    #[test]
    fn generous_budget_finds_a_plan() {
        let est = estimator();
        let model = tiny_bert(4);
        let set = DecisionTreeBuilder::new(8).strategies();
        let q = StageDpQuery::new(0..model.n_layers(), &set, 8, 20 * GIB, 32 * MIB);
        let out = direct(&est, &model, &q).expect("feasible");
        assert_eq!(out.strategies.len(), model.n_layers());
        assert!(out.cost > 0.0 && out.cost.is_finite());
        assert!(out.memory_bytes <= 20 * GIB);
        for s in &out.strategies {
            assert_eq!(s.total_degree(), 8);
        }
    }

    #[test]
    fn tighter_budgets_never_run_faster() {
        let est = estimator();
        let model = tiny_bert(6);
        let set = DecisionTreeBuilder::new(8).strategies();
        let mut prev_cost = f64::INFINITY;
        for budget in [4 * GIB, 8 * GIB, 16 * GIB, 23 * GIB] {
            let q = StageDpQuery::new(0..model.n_layers(), &set, 16, budget, 32 * MIB);
            if let Some(out) = direct(&est, &model, &q) {
                assert!(
                    out.cost <= prev_cost + 1e-12,
                    "budget {budget}: {} > {prev_cost}",
                    out.cost
                );
                prev_cost = out.cost;
            }
        }
        assert!(prev_cost.is_finite(), "largest budget must be feasible");
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        // Exhaustive check of the optimal-substructure implementation: every
        // assignment of 3 layers × |S| strategies, same quantized
        // accounting.
        let est = estimator();
        let model = tiny_bert(1); // embed + enc + head = 3 layers
        let set = DecisionTreeBuilder::new(4).strategies();
        let batch = 8u64;
        let granularity = 64 * MIB;
        for budget in [2 * GIB, 4 * GIB, 8 * GIB, 16 * GIB] {
            let q = StageDpQuery::new(0..model.n_layers(), &set, batch, budget, granularity);
            let dp_out = direct(&est, &model, &q);

            // Brute force with identical quantization and reserve.
            let mut reserve = 0u64;
            for l in &model.layers {
                for s in set.iter() {
                    reserve =
                        reserve.max(est.layer_memory(l, model.dtype, s, batch, false).transient);
                }
            }
            let budget_units = budget.saturating_sub(2 * reserve) / granularity;
            let mut best: Option<f64> = None;
            let n = set.len();
            let l_count = model.n_layers();
            let mut assignment = vec![0usize; l_count];
            loop {
                // Evaluate.
                let mut mem_units = 0u64;
                let mut time = 0.0;
                let mut ok = true;
                for (li, &si) in assignment.iter().enumerate() {
                    let layer = &model.layers[li];
                    let s = &set.strategies()[si];
                    let m = est.layer_memory(layer, model.dtype, s, batch, false);
                    mem_units += m.persistent().div_ceil(granularity);
                    let c = est
                        .layer_cost(layer, model.dtype, s, batch, 0, false)
                        .unwrap();
                    time += c.total(est.config(), 1);
                    if li > 0 {
                        time += est
                            .transformation_cost(
                                &model.layers[li - 1],
                                model.dtype,
                                &set.strategies()[assignment[li - 1]],
                                s,
                                batch,
                                0,
                            )
                            .unwrap();
                    }
                    if mem_units > budget_units {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    best = Some(best.map_or(time, |b: f64| b.min(time)));
                }
                // Next assignment.
                let mut i = 0;
                loop {
                    if i == l_count {
                        break;
                    }
                    assignment[i] += 1;
                    if assignment[i] < n {
                        break;
                    }
                    assignment[i] = 0;
                    i += 1;
                }
                if i == l_count {
                    break;
                }
            }

            match (dp_out, best) {
                (Some(dp), Some(bf)) => {
                    assert!(
                        (dp.cost - bf).abs() < 1e-9 * bf.max(1.0),
                        "budget {budget}: dp {} vs brute force {bf}",
                        dp.cost
                    );
                }
                (None, None) => {}
                (dp, bf) => panic!("feasibility mismatch at {budget}: dp={dp:?} bf={bf:?}"),
            }
        }
    }

    #[test]
    fn swin_prefers_dp_shallow_and_tp_deep_under_pressure() {
        // §5.5 / Figure 5: Swin's shallow layers (big activations, few
        // params) prefer data parallel; deep layers (many params) prefer
        // tensor/sharded parallel when memory is tight.
        let est = estimator();
        let model = PaperModel::SwinHuge32.spec();
        let set = DecisionTreeBuilder::new(8).strategies();
        let usable = est.topology().usable_budget(8 * GIB);
        let q = StageDpQuery::new(0..model.n_layers(), &set, 32, usable, 32 * MIB);
        let out = direct(&est, &model, &q).expect("8 GiB is feasible for Swin at batch 32");
        let first_enc = model
            .layers
            .iter()
            .position(|l| l.is_transformer_layer())
            .unwrap();
        let last_enc = model.n_layers()
            - 1
            - model
                .layers
                .iter()
                .rev()
                .position(|l| l.is_transformer_layer())
                .unwrap();
        let shallow = &out.strategies[first_enc];
        let deep = &out.strategies[last_enc];
        assert!(
            shallow.data_degree() >= deep.data_degree(),
            "shallow {shallow} vs deep {deep}"
        );
        assert!(
            deep.tp() >= shallow.tp(),
            "shallow {shallow} vs deep {deep}"
        );
    }
}
