//! The exhaustive-oracle conformance suite.
//!
//! Eq. 1's solver is the planner's foundation: every plan the optimizer and
//! the parallel planner emit is built from its per-stage answers. This
//! suite checks the solver against an oracle that cannot be wrong:
//! brute-force enumeration of every per-layer strategy assignment on tiny
//! instances (≤12 devices, ≤6 layers), with the *same* quantized memory
//! accounting the DP uses. Each seeded random workload asserts that
//!
//! * the reference solver (`reference::solve`),
//! * the arena path (`dp_search_arena` — the cold hot path, including its
//!   dominance prefilter and reachable-memory windows),
//! * the parallel-worker path (`ArenaStageDp` through per-thread arenas,
//!   exactly what the planner sweep's workers run), and
//! * the reference solver behind the `StageDp` trait (`DirectStageDp`)
//!
//! all agree bit-for-bit with each other and match the brute-force optimum,
//! including on infeasible instances (everyone must say `None`).
//!
//! Four seeded families cover the instance space:
//!
//! * **base** — the original 220 draws on a power-of-two PCIe node;
//! * **npo2** — non-power-of-two device counts (6- and 12-GPU clusters
//!   built from power-of-two islands);
//! * **mixed** — priced heterogeneous A100+RTX island clusters;
//! * **degenerate** — 1-layer stage ranges, 1-GPU groups,
//!   single-strategy sets, and granularities coarser than the budget.

use galvatron_cluster::{
    island_cluster, mixed_a100_rtx_cluster, rtx_titan_node, ClusterTopology, DeviceType, MIB,
};
use galvatron_core::reference::{self, DirectStageDp};
use galvatron_core::{
    dp_search_arena, ArenaStageDp, DirectCosts, DpArena, DpResult, RecomputeMode, StageDp,
    StageDpQuery,
};
use galvatron_estimator::{CostEstimator, EstimatorConfig};
use galvatron_model::{BertConfig, ModelSpec};
use galvatron_strategy::{DecisionTreeBuilder, StrategySet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// One randomly drawn tiny workload.
struct Instance {
    estimator: CostEstimator,
    model: ModelSpec,
    layer_range: Range<usize>,
    set: StrategySet,
    stage_batch: u64,
    micro_batches: usize,
    act_stash_batch: u64,
    usable_budget: u64,
    granularity: u64,
    recompute: RecomputeMode,
}

fn tiny_model(rng: &mut StdRng, seed: u64) -> ModelSpec {
    let heads = [4u64, 8][rng.gen_range(0usize..2)];
    BertConfig {
        layers: rng.gen_range(1..=4),
        hidden: heads * 64,
        heads,
        seq: [64u64, 128][rng.gen_range(0usize..2)],
        vocab: 30522,
    }
    .build(&format!("oracle-{seed}"))
}

/// A random non-empty subset of the decision-tree candidates keeps the
/// tie-break structure varied across instances.
fn random_subset(rng: &mut StdRng, group: usize) -> StrategySet {
    let full = DecisionTreeBuilder::new(group).strategies();
    let mut kept: Vec<_> = full
        .iter()
        .filter(|_| rng.gen_range(0..4) > 0)
        .cloned()
        .collect();
    if kept.is_empty() {
        kept = full.strategies().to_vec();
    }
    StrategySet::new(group, kept)
}

/// Family **base**: the original draw on a 4-GPU power-of-two PCIe node.
fn draw_base(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    // ≤4 devices: group sizes 2 or 4 on a 4-GPU PCIe node.
    let group = [2usize, 4][rng.gen_range(0usize..2)];
    let estimator = CostEstimator::new(rtx_titan_node(4), EstimatorConfig::default());
    let model = tiny_model(&mut rng, seed);
    let set = random_subset(&mut rng, group);

    let stage_batch = (group as u64) << rng.gen_range(0..=2);
    // Keep the micro-batch at least the group size so every candidate's
    // data split divides it.
    let micro_batches = if stage_batch >= 2 * group as u64 && rng.gen_range(0..2) == 1 {
        2
    } else {
        1
    };
    let act_stash_batch = stage_batch;
    // A bimodal draw straddles the feasibility boundary for these shapes:
    // the low mode (16 MiB .. 0.5 GiB) is mostly hopeless, the high mode
    // (up to ~4.3 GiB) mostly comfortable.
    let usable_budget = if rng.gen_range(0u32..2) == 0 {
        rng.gen_range(1u64..=32) * 16 * MIB
    } else {
        rng.gen_range(1u64..=68) * 64 * MIB
    };
    let granularity = [16 * MIB, 64 * MIB][rng.gen_range(0usize..2)];
    let n_layers = model.n_layers();
    Instance {
        estimator,
        model,
        layer_range: 0..n_layers,
        set,
        stage_batch,
        micro_batches,
        act_stash_batch,
        usable_budget,
        granularity,
        recompute: RecomputeMode::Off,
    }
}

/// Family **npo2**: clusters whose device count is *not* a power of two
/// (built from power-of-two islands, per Takeaway #2 the groups themselves
/// stay powers of two).
fn draw_npo2(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let (topology, group): (ClusterTopology, usize) = match rng.gen_range(0u32..3) {
        // 6 GPUs: 3 PCIe islands of 2.
        0 => (island_cluster(DeviceType::RtxTitan, 3, 2), 2),
        // 12 GPUs: 3 islands of 4.
        1 => (
            island_cluster(DeviceType::RtxTitan, 3, 4),
            [2, 4][rng.gen_range(0usize..2)],
        ),
        // 12 GPUs: 6 islands of 2, groups span island boundaries.
        _ => (
            island_cluster(DeviceType::A100, 6, 2),
            [2, 4][rng.gen_range(0usize..2)],
        ),
    };
    let estimator = CostEstimator::new(topology, EstimatorConfig::default());
    let model = tiny_model(&mut rng, seed);
    let set = random_subset(&mut rng, group);
    let stage_batch = (group as u64) << rng.gen_range(0u32..=2);
    let micro_batches = if stage_batch >= 2 * group as u64 && rng.gen_range(0..2) == 1 {
        2
    } else {
        1
    };
    let usable_budget = if rng.gen_range(0u32..2) == 0 {
        rng.gen_range(1u64..=32) * 16 * MIB
    } else {
        rng.gen_range(1u64..=68) * 64 * MIB
    };
    let granularity = [16 * MIB, 64 * MIB][rng.gen_range(0usize..2)];
    let n_layers = model.n_layers();
    Instance {
        estimator,
        model,
        layer_range: 0..n_layers,
        set,
        stage_batch,
        micro_batches,
        act_stash_batch: stage_batch,
        usable_budget,
        granularity,
        recompute: RecomputeMode::Off,
    }
}

/// Family **mixed**: priced heterogeneous A100+RTX island clusters (the
/// galvatron-hetero topologies), including non-power-of-two totals.
fn draw_mixed(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let (topology, group): (ClusterTopology, usize) = match rng.gen_range(0u32..3) {
        // 4 GPUs: one A100 pair + one RTX pair.
        0 => (mixed_a100_rtx_cluster(1, 1, 2), 2),
        // 6 GPUs: one A100 island + two RTX islands.
        1 => (mixed_a100_rtx_cluster(1, 2, 2), 2),
        // 12 GPUs: two A100 islands + one RTX island of 4.
        _ => (
            mixed_a100_rtx_cluster(2, 1, 4),
            [2, 4][rng.gen_range(0usize..2)],
        ),
    };
    let estimator = CostEstimator::new(topology, EstimatorConfig::default());
    let model = tiny_model(&mut rng, seed);
    let set = random_subset(&mut rng, group);
    let stage_batch = (group as u64) << rng.gen_range(0..=2);
    let micro_batches = if stage_batch >= 2 * group as u64 && rng.gen_range(0..2) == 1 {
        2
    } else {
        1
    };
    let usable_budget = if rng.gen_range(0u32..2) == 0 {
        rng.gen_range(1u64..=32) * 16 * MIB
    } else {
        rng.gen_range(1u64..=68) * 64 * MIB
    };
    let granularity = [16 * MIB, 64 * MIB][rng.gen_range(0usize..2)];
    // Mixed clusters price links by position: start some stages off the
    // first island to exercise base-device-dependent kernels.
    let n_layers = model.n_layers();
    Instance {
        estimator,
        model,
        layer_range: 0..n_layers,
        set,
        stage_batch,
        micro_batches,
        act_stash_batch: stage_batch,
        usable_budget,
        granularity,
        recompute: RecomputeMode::Off,
    }
}

/// Family **degenerate**: the edges — 1-layer stage ranges, the 1-GPU
/// group (a single serial strategy), single-strategy sets, and
/// granularities coarser than the whole budget.
fn draw_degenerate(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let estimator = CostEstimator::new(rtx_titan_node(2), EstimatorConfig::default());
    let model = tiny_model(&mut rng, seed);
    let n_layers = model.n_layers();
    let variant = rng.gen_range(0u32..4);
    // 1-GPU group in half the variants; a single kept strategy in another.
    let (group, set) = match variant {
        0 | 1 => (1usize, DecisionTreeBuilder::new(1).strategies()),
        2 => {
            let full = DecisionTreeBuilder::new(2).strategies();
            let pick = rng.gen_range(0..full.len());
            (
                2usize,
                StrategySet::new(2, vec![full.strategies()[pick].clone()]),
            )
        }
        _ => (2usize, random_subset(&mut rng, 2)),
    };
    // 1-layer ranges in half the variants (anywhere in the model).
    let layer_range = if variant % 2 == 0 {
        let start = rng.gen_range(0..n_layers);
        start..start + 1
    } else {
        0..n_layers
    };
    let stage_batch = (group as u64) << rng.gen_range(0..=1);
    let usable_budget = rng.gen_range(1u64..=40) * 32 * MIB;
    // Sometimes coarser than the budget itself: e_max collapses to 0.
    let granularity = [16 * MIB, 2048 * MIB][rng.gen_range(0usize..2)];
    Instance {
        estimator,
        model,
        layer_range,
        set,
        stage_batch,
        micro_batches: 1,
        act_stash_batch: stage_batch,
        usable_budget,
        granularity,
        recompute: RecomputeMode::Off,
    }
}

/// Family **recompute**: the BMW fifth dimension — base-style draws with
/// the recompute planes forced `On` or left to the DP (`Auto`), on
/// deliberately tight budgets so checkpointing is frequently the only
/// feasible (or the strictly cheaper) choice. Brute force enumerates the
/// full `(strategy × plane)^layers` decision space.
fn draw_recompute(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let group = [2usize, 4][rng.gen_range(0usize..2)];
    let estimator = CostEstimator::new(rtx_titan_node(4), EstimatorConfig::default());
    let model = tiny_model(&mut rng, seed);
    let set = random_subset(&mut rng, group);
    let stage_batch = (group as u64) << rng.gen_range(0..=2);
    let micro_batches = if stage_batch >= 2 * group as u64 && rng.gen_range(0..2) == 1 {
        2
    } else {
        1
    };
    // Skew low: the interesting instances sit on the feasibility boundary
    // where the stash plane alone does not fit.
    let usable_budget = if rng.gen_range(0u32..3) == 0 {
        rng.gen_range(1u64..=68) * 64 * MIB
    } else {
        rng.gen_range(1u64..=32) * 16 * MIB
    };
    let granularity = [16 * MIB, 64 * MIB][rng.gen_range(0usize..2)];
    let recompute = [RecomputeMode::On, RecomputeMode::Auto][rng.gen_range(0usize..2)];
    let n_layers = model.n_layers();
    Instance {
        estimator,
        model,
        layer_range: 0..n_layers,
        set,
        stage_batch,
        micro_batches,
        act_stash_batch: stage_batch,
        usable_budget,
        granularity,
        recompute,
    }
}

/// Brute force: the true optimum over every per-layer assignment, with the
/// DP's exact quantized accounting (per-layer `div_ceil` memory units, the
/// 2× transient reserve, the `e_max` clamp).
fn brute_force(inst: &Instance) -> Option<f64> {
    let est = &inst.estimator;
    let model = &inst.model;
    let layers: Vec<usize> = inst.layer_range.clone().collect();
    let n_layers = layers.len();
    let n_strats = inst.set.len();
    let planes = inst.recompute.planes();
    // A decision is a `(strategy, recompute-plane)` pair, plane-major like
    // the solver's own indexing; with recompute off this is the historical
    // strategy enumeration.
    let n = n_strats * planes.len();
    let micro = (inst.stage_batch / inst.micro_batches as u64).max(1);

    let mut cost = vec![vec![0.0f64; n]; n_layers];
    let mut units = vec![vec![0u64; n]; n_layers];
    let mut reserve = 0u64;
    for (li, &l) in layers.iter().enumerate() {
        let layer = &model.layers[l];
        for (plane, &rc) in planes.iter().enumerate() {
            for (si, s) in inst.set.iter().enumerate() {
                let di = plane * n_strats + si;
                let c = est
                    .layer_cost_with_recompute(layer, model.dtype, s, micro, 0, rc)
                    .unwrap();
                cost[li][di] = c.total_with_micro_batches(est.config(), inst.micro_batches);
                let m = est.layer_memory_with_recompute(
                    layer,
                    model.dtype,
                    s,
                    inst.act_stash_batch,
                    rc,
                );
                units[li][di] = m.persistent().div_ceil(inst.granularity);
                reserve = reserve.max(m.transient);
            }
        }
    }
    let e_max = (inst.usable_budget.saturating_sub(2 * reserve) / inst.granularity).min(1 << 22);
    // R depends only on the strategy parts of the adjacent decisions.
    let mut r = vec![vec![vec![0.0f64; n_strats]; n_strats]; n_layers];
    for (li, r_li) in r.iter_mut().enumerate().skip(1) {
        for (pi, p) in inst.set.iter().enumerate() {
            for (si, s) in inst.set.iter().enumerate() {
                r_li[pi][si] = est
                    .transformation_cost(
                        &model.layers[layers[li - 1]],
                        model.dtype,
                        p,
                        s,
                        inst.stage_batch,
                        0,
                    )
                    .unwrap();
            }
        }
    }

    let mut best: Option<f64> = None;
    let mut assignment = vec![0usize; n_layers];
    loop {
        let mut mem = 0u64;
        let mut time = 0.0f64;
        for (li, &di) in assignment.iter().enumerate() {
            mem += units[li][di];
            time += cost[li][di];
            if li > 0 {
                time += r[li][assignment[li - 1] % n_strats][di % n_strats];
            }
        }
        if mem <= e_max {
            best = Some(best.map_or(time, |b| b.min(time)));
        }
        // Odometer increment.
        let mut i = 0;
        while i < n_layers {
            assignment[i] += 1;
            if assignment[i] < n {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
        if i == n_layers {
            break;
        }
    }
    best
}

fn query<'a>(inst: &'a Instance) -> StageDpQuery<'a> {
    StageDpQuery {
        layer_start: inst.layer_range.start,
        layer_end: inst.layer_range.end,
        base_device: 0,
        set: &inst.set,
        stage_batch: inst.stage_batch,
        usable_budget: inst.usable_budget,
        granularity: inst.granularity,
        micro_batches: inst.micro_batches,
        act_stash_batch: inst.act_stash_batch,
        recompute: inst.recompute,
    }
}

fn assert_same_result(a: &Option<DpResult>, b: &Option<DpResult>, what: &str, seed: u64) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(
                a.cost.to_bits(),
                b.cost.to_bits(),
                "seed {seed}: {what} cost diverged ({} vs {})",
                a.cost,
                b.cost
            );
            assert_eq!(
                a.strategies, b.strategies,
                "seed {seed}: {what} strategies diverged"
            );
            assert_eq!(
                a.memory_bytes, b.memory_bytes,
                "seed {seed}: {what} memory diverged"
            );
            assert_eq!(
                a.recompute, b.recompute,
                "seed {seed}: {what} recompute planes diverged"
            );
        }
        _ => panic!(
            "seed {seed}: {what} feasibility diverged ({} vs {})",
            a.is_some(),
            b.is_some()
        ),
    }
}

/// Every `(family_offset, count)` block of seeds in the suite.
const FAMILIES: [(&str, u64, u64); 5] = [
    ("base", 0, 220),
    ("npo2", 1_000, 90),
    ("mixed", 2_000, 60),
    ("degenerate", 3_000, 40),
    ("recompute", 4_000, 80),
];

fn draw(seed: u64) -> Instance {
    match seed {
        0..=999 => draw_base(seed),
        1_000..=1_999 => draw_npo2(seed),
        2_000..=2_999 => draw_mixed(seed),
        3_000..=3_999 => draw_degenerate(seed),
        _ => draw_recompute(seed),
    }
}

#[test]
fn every_dp_path_matches_brute_force_on_410_seeded_instances() {
    let mut total = 0usize;
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    // Long-lived arenas across all instances — exactly the plan-service
    // situation, and the harshest test of scratch reuse: arena rows written
    // for one instance must never leak into another.
    let mut arena = DpArena::new();
    let arena_dp = ArenaStageDp::new(&DirectCosts);

    for &(_family, offset, count) in &FAMILIES {
        for seed in offset..offset + count {
            total += 1;
            let inst = draw(seed);
            let q = query(&inst);

            let serial = reference::solve(&inst.estimator, &inst.model, &q, &DirectCosts).unwrap();

            // Arena path: the cold hot path with dominance prefilter and
            // reachable-memory windows, on a shared (reused) arena.
            let arena_result = dp_search_arena(
                &inst.estimator,
                &inst.model,
                inst.layer_range.clone(),
                0,
                &inst.set,
                inst.stage_batch,
                inst.usable_budget,
                inst.granularity,
                inst.micro_batches,
                inst.act_stash_batch,
                inst.recompute,
                &DirectCosts,
                &mut arena,
            )
            .unwrap();
            assert_same_result(&serial, &arena_result, "arena", seed);

            // Parallel-worker path: `ArenaStageDp` through the
            // thread-local arena, the exact solver the planner sweep's
            // workers run.
            let worker = arena_dp.solve(&inst.estimator, &inst.model, &q).unwrap();
            assert_same_result(&serial, &worker, "parallel worker", seed);

            // The explicit solver, for completeness of the trait plumbing.
            let direct = DirectStageDp
                .solve(&inst.estimator, &inst.model, &q)
                .unwrap();
            assert_same_result(&serial, &direct, "DirectStageDp", seed);

            // And the oracle itself.
            let oracle = brute_force(&inst);
            match (&serial, oracle) {
                (Some(dp), Some(bf)) => {
                    feasible += 1;
                    assert!(
                        (dp.cost - bf).abs() <= 1e-9 * bf.max(1.0),
                        "seed {seed}: dp {} vs brute force {bf}",
                        dp.cost
                    );
                }
                (None, None) => infeasible += 1,
                (dp, bf) => panic!(
                    "seed {seed}: feasibility diverged (dp {}, oracle {})",
                    dp.is_some(),
                    bf.is_some()
                ),
            }
        }
    }

    assert!(total >= 400, "oracle wall shrank: {total} instances");
    // The draw must exercise both sides of the memory boundary, or the
    // suite silently stops testing half the contract.
    assert!(
        feasible >= 80 && infeasible >= 80,
        "skewed instance draw: {feasible} feasible, {infeasible} infeasible"
    );
    assert!(arena.solves() > 0, "arena path never exercised");
    assert_eq!(
        arena_dp.solves(),
        total,
        "parallel worker path must run every instance"
    );
}

/// Thread-local arenas must not interact: the same query solved
/// concurrently from many threads, against the serial answer.
#[test]
fn parallel_thread_arenas_agree_with_serial() {
    let insts: Vec<Instance> = (0..16).map(|i| draw(i * 7)).collect();
    let serials: Vec<Option<DpResult>> = insts
        .iter()
        .map(|inst| {
            reference::solve(&inst.estimator, &inst.model, &query(inst), &DirectCosts).unwrap()
        })
        .collect();
    let dp = ArenaStageDp::new(&DirectCosts);
    std::thread::scope(|scope| {
        for chunk in insts.chunks(4).zip(serials.chunks(4)) {
            let (insts, serials) = chunk;
            let dp = &dp;
            scope.spawn(move || {
                for (i, inst) in insts.iter().enumerate() {
                    let got = dp
                        .solve(&inst.estimator, &inst.model, &query(inst))
                        .unwrap();
                    assert_same_result(&serials[i], &got, "threaded arena", i as u64);
                }
            });
        }
    });
    assert_eq!(dp.solves(), 16);
}
