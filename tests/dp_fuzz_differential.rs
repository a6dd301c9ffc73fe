//! Differential fuzzing of the arena DP against the reference solver.
//!
//! Property-based companion to the seeded `dp_oracle` wall: arbitrary
//! `(model, topology, budget)` instances are drawn from generators spanning
//! flat, non-power-of-two island, and priced mixed clusters, and every case
//! asserts
//!
//! * **plan-byte identity** — `dp_search_arena` returns the same `DpResult`
//!   as the reference `reference::solve`, compared at the bit
//!   level (`f64::to_bits` for cost, exact strategy sequence, exact
//!   memory bytes), and
//! * **dominance safety** — the dominated-strategy prefilter never removes
//!   a strategy the reference optimum uses (the dominance lemma of
//!   `galvatron_core::arena`, checked empirically).
//!
//! A deterministic deep-stage lane (`deep_stages_match_reference`) runs the
//! same bit-identity check on real-size models — GPT2-XL-1.5B and
//! BERT-Huge-48, whole and split into memory-balanced pipeline stages —
//! where memory windows span hundreds of rows and the arena's row-delta
//! min-plus does most of its folding, and asserts that the fold actually
//! skipped work there.
//!
//! The vendored proptest stub has no shrinking, so this harness carries its
//! own: a failing draw is greedily minimized (fewer layers, fewer
//! strategies, smaller budget, simpler topology) while it keeps failing,
//! and the panic reports the *minimal* counterexample. Set
//! `PROPTEST_CASES` to raise the per-property case count (the nightly
//! `scripts/oracle_stress.sh` lane runs 2048).

use galvatron_cluster::{
    island_cluster, mixed_a100_rtx_cluster, rtx_titan_node, ClusterError, DeviceType, GIB, MIB,
};
use galvatron_core::{
    dominance_masks, dp_search_arena, partition_memory_balanced, reference, DirectCosts, DpArena,
    DpResult, RecomputeMode, StageDpQuery,
};
use galvatron_estimator::{CostEstimator, EstimatorConfig};
use galvatron_model::{BertConfig, GptConfig, ModelSpec, PaperModel};
use galvatron_strategy::{DecisionTreeBuilder, PipelineSchedule, StrategySet};
use proptest::prelude::*;

/// One fuzzed instance, compact enough to shrink field-by-field.
#[derive(Debug, Clone)]
struct Case {
    /// 0 = flat 4-GPU PCIe, 1 = 3×2 RTX islands (6 GPUs), 2 = priced
    /// mixed A100+RTX (4 GPUs).
    topo: u8,
    /// Device-group size as a power of two: 1, 2 or 4.
    group_log2: u8,
    /// Encoder count (total layers = encoders + 2).
    encoders: u8,
    /// Bit 0: heads 4 vs 8; bit 1: seq 64 vs 128.
    shape: u8,
    /// Strategy-subset mask over the decision-tree set (empty → full set).
    keep_mask: u32,
    /// Bits 0–1: stage-batch shift; bit 2: 2 micro-batches; bit 3: 64 MiB
    /// granularity; bit 4: solve a 1-layer range; bits 5–7: its position.
    knobs: u32,
    /// Usable budget in 16 MiB units.
    budget_16m: u64,
    /// Recompute planes: 0 = off, 1 = on, 2 = auto (per-layer choice).
    recompute: u8,
}

fn recompute_mode(case: &Case) -> RecomputeMode {
    match case.recompute % 3 {
        0 => RecomputeMode::Off,
        1 => RecomputeMode::On,
        _ => RecomputeMode::Auto,
    }
}

fn build(case: &Case) -> (CostEstimator, ModelSpec, StrategySet, Params) {
    let topology = match case.topo {
        0 => rtx_titan_node(4),
        1 => island_cluster(DeviceType::RtxTitan, 3, 2),
        _ => mixed_a100_rtx_cluster(1, 1, 2),
    };
    let estimator = CostEstimator::new(topology, EstimatorConfig::default());
    let heads = [4u64, 8][(case.shape & 1) as usize];
    let model = BertConfig {
        layers: case.encoders.max(1) as usize,
        hidden: heads * 64,
        heads,
        seq: [64u64, 128][((case.shape >> 1) & 1) as usize],
        vocab: 30522,
    }
    .build("fuzz");
    let group = 1usize << case.group_log2.min(2);
    let full = DecisionTreeBuilder::new(group).strategies();
    let kept: Vec<_> = full
        .iter()
        .enumerate()
        .filter(|(i, _)| case.keep_mask & (1 << (i % 32)) != 0)
        .map(|(_, s)| s.clone())
        .collect();
    let set = if kept.is_empty() {
        full
    } else {
        StrategySet::new(group, kept)
    };
    let n_layers = model.n_layers();
    let layer_range = if case.knobs & (1 << 4) != 0 {
        let pos = ((case.knobs >> 5) & 0b111) as usize % n_layers;
        pos..pos + 1
    } else {
        0..n_layers
    };
    let stage_batch = (group as u64) << (case.knobs & 0b11);
    let micro_batches = if case.knobs & (1 << 2) != 0 && stage_batch >= 2 * group as u64 {
        2
    } else {
        1
    };
    let params = Params {
        layer_range,
        stage_batch,
        micro_batches,
        act_stash_batch: stage_batch,
        usable_budget: case.budget_16m.clamp(1, 280) * 16 * MIB,
        granularity: if case.knobs & (1 << 3) != 0 {
            64 * MIB
        } else {
            16 * MIB
        },
    };
    (estimator, model, set, params)
}

#[derive(Debug, Clone)]
struct Params {
    layer_range: std::ops::Range<usize>,
    stage_batch: u64,
    micro_batches: usize,
    act_stash_batch: u64,
    usable_budget: u64,
    granularity: u64,
}

/// `dp_search_arena` over `q`'s fields, on `arena`.
fn arena_solve(
    est: &CostEstimator,
    model: &ModelSpec,
    q: &StageDpQuery<'_>,
    arena: &mut DpArena,
) -> Result<Option<DpResult>, ClusterError> {
    dp_search_arena(
        est,
        model,
        q.layers(),
        q.base_device,
        q.set,
        q.stage_batch,
        q.usable_budget,
        q.granularity,
        q.micro_batches,
        q.act_stash_batch,
        q.recompute,
        &DirectCosts,
        arena,
    )
}

/// `Ok(())` when the arena answer equals the reference bit for bit: cost
/// bits, strategy sequence, recompute planes and memory bytes.
fn bit_identical(reference: &Option<DpResult>, fast: &Option<DpResult>) -> Result<(), String> {
    match (reference, fast) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            if a.cost.to_bits() != b.cost.to_bits() {
                return Err(format!("cost bits diverged: {} vs {}", a.cost, b.cost));
            }
            if a.strategies != b.strategies {
                return Err(format!(
                    "strategy bytes diverged: {:?} vs {:?}",
                    a.strategies, b.strategies
                ));
            }
            if a.memory_bytes != b.memory_bytes {
                return Err(format!(
                    "memory bytes diverged: {} vs {}",
                    a.memory_bytes, b.memory_bytes
                ));
            }
            if a.recompute != b.recompute {
                return Err(format!(
                    "recompute planes diverged: {:?} vs {:?}",
                    a.recompute, b.recompute
                ));
            }
        }
        (a, b) => {
            return Err(format!(
                "feasibility diverged: reference {}, arena {}",
                a.is_some(),
                b.is_some()
            ))
        }
    }
    Ok(())
}

/// The differential property. `Ok(())` when the arena path is bit-identical
/// to the reference and the dominance filter is safe; `Err(reason)` with a
/// human-readable divergence description otherwise.
fn check(case: &Case) -> Result<(), String> {
    let (est, model, set, p) = build(case);
    let mode = recompute_mode(case);
    let q = StageDpQuery {
        micro_batches: p.micro_batches,
        act_stash_batch: p.act_stash_batch,
        recompute: mode,
        ..StageDpQuery::new(
            p.layer_range.clone(),
            &set,
            p.stage_batch,
            p.usable_budget,
            p.granularity,
        )
    };
    let reference = reference::solve(&est, &model, &q, &DirectCosts)
        .map_err(|e| format!("reference errored: {e:?}"))?;
    let fast = arena_solve(&est, &model, &q, &mut DpArena::new())
        .map_err(|e| format!("arena errored: {e:?}"))?;

    bit_identical(&reference, &fast)?;

    // Dominance safety: no strategy on the reference optimum may be
    // removed by the prefilter.
    if let Some(reference) = &reference {
        let masks = dominance_masks(&est, &model, &q, &DirectCosts)
            .map_err(|e| format!("dominance_masks errored: {e:?}"))?;
        let planes = mode.planes();
        let n_strats = set.len();
        for (li, chosen) in reference.strategies.iter().enumerate() {
            let si = set
                .strategies()
                .iter()
                .position(|s| s == chosen)
                .expect("optimum strategy is in the set");
            let rc = reference.recompute.get(li).copied().unwrap_or(false);
            let plane = planes
                .iter()
                .position(|&p| p == rc)
                .expect("optimum plane is scanned");
            let di = plane * n_strats + si;
            if masks.get(li).is_some_and(|m| m[di]) {
                return Err(format!(
                    "dominance filter removed the optimal decision {chosen:?} \
                     (recompute {rc}) at layer {li}"
                ));
            }
        }
    }
    Ok(())
}

/// All single-step simplifications of a case, most aggressive first.
fn shrink_candidates(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    if case.encoders > 1 {
        out.push(Case {
            encoders: 1,
            ..case.clone()
        });
        out.push(Case {
            encoders: case.encoders - 1,
            ..case.clone()
        });
    }
    if case.topo != 0 {
        out.push(Case {
            topo: 0,
            ..case.clone()
        });
    }
    if case.group_log2 > 0 {
        out.push(Case {
            group_log2: case.group_log2 - 1,
            ..case.clone()
        });
    }
    // Drop one kept strategy at a time (never shrinking to the implicit
    // full set, which would grow the instance).
    for bit in 0..32 {
        let cleared = case.keep_mask & !(1u32 << bit);
        if cleared != case.keep_mask && cleared != 0 {
            out.push(Case {
                keep_mask: cleared,
                ..case.clone()
            });
        }
    }
    if case.budget_16m > 1 {
        out.push(Case {
            budget_16m: case.budget_16m / 2,
            ..case.clone()
        });
    }
    for simpler_knobs in [
        case.knobs & !0b11,
        case.knobs & !(1 << 2),
        case.knobs & !(1 << 3),
    ] {
        if simpler_knobs != case.knobs {
            out.push(Case {
                knobs: simpler_knobs,
                ..case.clone()
            });
        }
    }
    if case.shape != 0 {
        out.push(Case {
            shape: 0,
            ..case.clone()
        });
    }
    if !case.recompute.is_multiple_of(3) {
        out.push(Case {
            recompute: 0,
            ..case.clone()
        });
    }
    out
}

/// Greedy shrink: repeatedly take the first single-step simplification
/// that still fails, until none does. The result is 1-minimal — no single
/// simplification preserves the failure.
fn shrink(mut case: Case) -> (Case, String) {
    let mut reason = check(&case).expect_err("shrink starts from a failing case");
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&case) {
            if let Err(e) = check(&cand) {
                case = cand;
                reason = e;
                improved = true;
                break;
            }
        }
        if !improved {
            return (case, reason);
        }
    }
}

fn assert_holds(case: &Case) {
    if check(case).is_err() {
        let (minimal, reason) = shrink(case.clone());
        panic!("minimal counterexample {minimal:?}: {reason}");
    }
}

/// Per-property case count: `PROPTEST_CASES` when set (the vendored stub
/// does not read the environment itself), else a CI-friendly default.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96)
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (0u8..3, 0u8..3, 1u8..5, 0u8..3),
        0u8..4,
        any::<u32>(),
        any::<u32>(),
        1u64..281,
    )
        .prop_map(
            |((topo, group_log2, encoders, recompute), shape, keep_mask, knobs, budget_16m)| Case {
                topo,
                group_log2,
                encoders,
                shape,
                keep_mask,
                knobs,
                budget_16m,
                recompute,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Arena DP ≡ reference, byte for byte, on arbitrary instances.
    #[test]
    fn arena_plan_bytes_match_serial(case in case_strategy()) {
        assert_holds(&case);
    }

    /// The dominated-strategy prefilter never removes a strategy that the
    /// reference optimum uses (checked inside the same differential body
    /// so a violation shrinks like any other divergence).
    #[test]
    fn dominance_filter_never_removes_an_optimal_strategy(case in case_strategy()) {
        assert_holds(&case);
    }
}

/// The shrinker itself must terminate and produce a failing case when
/// handed one. Exercised with a synthetic failure predicate so the test
/// does not depend on a real solver bug existing.
#[test]
fn shrinker_reaches_a_one_minimal_case() {
    let case = Case {
        topo: 2,
        group_log2: 2,
        encoders: 4,
        shape: 3,
        keep_mask: 0xdead_beef,
        knobs: 0b1111,
        budget_16m: 200,
        recompute: 2,
    };
    // All single-step simplifications of a passing case must also pass
    // (sanity: shrink_candidates only simplifies).
    assert!(check(&case).is_ok());
    for cand in shrink_candidates(&case) {
        assert!(check(&cand).is_ok(), "simplification broke a passing case");
    }
    assert!(shrink_candidates(&case).len() > 4);
}

/// Deep-stage lane: real-size models whose memory windows span hundreds of
/// rows, where the arena's row-delta min-plus folds only the predecessors
/// whose dp value fell since the row before. GPT2-XL-1.5B and BERT-Huge-48
/// on an 8-GPU RTX node, each as one whole-model stage on all 8 GPUs and as
/// the 2- and 4-stage memory-balanced splits on groups of 4 and 2, over
/// both stash-only and per-layer recompute, four budgets and three
/// micro-batch counts. Every solve must equal the reference bit for bit,
/// and every recompute-`Auto` solve must fold strictly fewer min-plus pairs
/// than the dense per-row scan — so the lane cannot pass without the fold
/// running.
#[test]
fn deep_stages_match_reference() {
    let estimator = CostEstimator::new(rtx_titan_node(8), EstimatorConfig::default());
    let mut arena = DpArena::new();
    let mut auto_solves = 0usize;
    for model in [
        GptConfig::gpt2_1_5b().build("GPT2-XL-1.5B"),
        PaperModel::BertHuge48.spec(),
    ] {
        for (stages, group) in [(1usize, 8usize), (2, 4), (4, 2)] {
            let set = DecisionTreeBuilder::new(group).strategies();
            let split = partition_memory_balanced(&model, stages, PipelineSchedule::GPipe, None);
            let modes = [RecomputeMode::Off, RecomputeMode::Auto];
            let shapes = split.iter().enumerate().flat_map(|(k, &layers)| {
                modes.into_iter().flat_map(move |mode| {
                    [6u64, 8, 10, 12].into_iter().flat_map(move |gib| {
                        [1usize, 2, 4].map(move |micro| (k, layers, mode, gib, micro))
                    })
                })
            });
            for (k, (start, end), recompute, gib, micro_batches) in shapes {
                let q = StageDpQuery {
                    base_device: k * group,
                    micro_batches,
                    recompute,
                    ..StageDpQuery::new(start..end, &set, 16, gib * GIB, 16 * MIB)
                };
                let what = format!(
                    "{} stage {k} of {stages} [{start}, {end}), {recompute:?}, \
                     {gib} GiB, {micro_batches} micro-batches",
                    model.name
                );
                let reference =
                    reference::solve(&estimator, &model, &q, &DirectCosts).expect("well-formed");
                let before = (arena.minplus_pairs(), arena.minplus_pairs_dense());
                let fast = arena_solve(&estimator, &model, &q, &mut arena).expect("well-formed");
                if let Err(reason) = bit_identical(&reference, &fast) {
                    panic!("{what}: {reason}");
                }
                if recompute == RecomputeMode::Auto {
                    let pairs = arena.minplus_pairs() - before.0;
                    let dense = arena.minplus_pairs_dense() - before.1;
                    assert!(
                        pairs < dense,
                        "{what}: row-delta folded {pairs} of {dense} dense pairs"
                    );
                    auto_solves += 1;
                }
            }
        }
    }
    assert_eq!(auto_solves, 2 * (1 + 2 + 4) * 4 * 3);
}
