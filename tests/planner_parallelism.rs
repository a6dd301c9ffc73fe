//! The parallel planning engine must be an *exact* drop-in for the serial
//! Algorithm-1 sweep: identical plan, throughput and iteration time for
//! every zoo model × memory budget on the 8-GPU testbed, regardless of the
//! worker count or pruning, and a plan service must do the same work for a
//! repeated request. Its feasibility screen must also be exact: no
//! candidate it dispatches may come back infeasible.

use galvatron::prelude::*;
use galvatron_baselines::optimizer_config_for;
use galvatron_bmw::{BmwPlanner, VARIANTS};
use galvatron_core::{
    GalvatronOptimizer, OptimizeOutcome, OptimizerConfig, PipelinePartitioner, RecomputeMode,
    SearchStats,
};
use galvatron_planner::{ParallelPlanner, PlanRequest, PlanService, PlannerConfig};
use proptest::prelude::*;

fn config() -> OptimizerConfig {
    // max_batch 32 keeps the full matrix fast while still exercising the
    // 8-consecutive-infeasible early stop on the tight budgets.
    OptimizerConfig {
        max_batch: 32,
        ..OptimizerConfig::default()
    }
}

fn planner(jobs: usize, prune: bool) -> ParallelPlanner {
    ParallelPlanner::new(PlannerConfig {
        optimizer: config(),
        jobs,
        prune,
        ..PlannerConfig::default()
    })
}

/// Byte-identical outcome comparison: plan equality plus bit-level float
/// equality on throughput and iteration time.
fn assert_same(a: &Option<OptimizeOutcome>, b: &Option<OptimizeOutcome>, what: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.plan, b.plan, "{what}: plan diverged");
            assert_eq!(
                a.throughput_samples_per_sec.to_bits(),
                b.throughput_samples_per_sec.to_bits(),
                "{what}: throughput diverged ({} vs {})",
                a.throughput_samples_per_sec,
                b.throughput_samples_per_sec
            );
            assert_eq!(
                a.iteration_time.to_bits(),
                b.iteration_time.to_bits(),
                "{what}: iteration time diverged"
            );
        }
        (a, b) => panic!(
            "{what}: feasibility diverged (serial {}, parallel {})",
            a.is_some(),
            b.is_some()
        ),
    }
}

#[test]
fn parallel_matches_serial_across_the_zoo() {
    let topology = TestbedPreset::RtxTitan8.topology();
    let serial = GalvatronOptimizer::new(config());
    let parallel = planner(4, true);
    for model in PaperModel::ALL {
        let spec = model.spec();
        for budget_gb in [8u64, 12, 16, 20] {
            let budget = budget_gb * GIB;
            let reference = serial.optimize(&spec, &topology, budget).unwrap();
            let candidate = parallel.optimize(&spec, &topology, budget).unwrap();
            assert_same(
                &reference,
                &candidate,
                &format!("{} @ {budget_gb}G", model.name()),
            );
        }
    }

    // The production callers that plan through the parallel planner with
    // their own search configurations: the three automatic baseline rows
    // and the four BMW knob corners, on a sub-grid that keeps the serial
    // reference cheap.
    let baselines = BaselinePlanner::new(topology.clone(), config());
    let bmw = BmwPlanner::new(config());
    for (model, budget_gb) in MOVED_CALLER_POINTS {
        let spec = model.spec();
        let budget = budget_gb * GIB;
        let what = |row: &str| format!("{row}: {} @ {budget_gb}G", model.name());
        for strategy in BaselineStrategy::ALL {
            let Some(optimizer) = optimizer_config_for(strategy, &config()) else {
                continue;
            };
            let reference = GalvatronOptimizer::new(optimizer)
                .optimize(&spec, &topology, budget)
                .unwrap();
            let candidate = baselines.plan(strategy, &spec, budget).unwrap();
            assert_same(&reference, &candidate, &what(strategy.label()));
        }
        for variant in VARIANTS {
            let reference = GalvatronOptimizer::new(bmw.variant_config(variant))
                .optimize(&spec, &topology, budget)
                .unwrap();
            let candidate = bmw
                .optimize_variant(variant, &spec, &topology, budget)
                .unwrap()
                .outcome;
            assert_same(&reference, &candidate, &what(variant.name()));
        }
    }
}

/// The `(model, budget GiB)` points the moved callers are checked on: each
/// model family once, plus the 6 GiB point where BMW unlocks BERT-Huge-48.
/// The serial reference costs ~10 s here, a seventh of the full zoo grid.
const MOVED_CALLER_POINTS: [(PaperModel, u64); 6] = [
    (PaperModel::BertHuge32, 6),
    (PaperModel::BertHuge32, 12),
    (PaperModel::BertHuge48, 6),
    (PaperModel::VitXHuge, 6),
    (PaperModel::T5Large32, 8),
    (PaperModel::SwinHuge32, 8),
];

#[test]
fn outcome_is_invariant_in_the_worker_count() {
    let topology = TestbedPreset::RtxTitan8.topology();
    let model = PaperModel::BertHuge32.spec();
    let reference = planner(1, false)
        .optimize(&model, &topology, 16 * GIB)
        .unwrap();
    for jobs in [1usize, 2, 4, 8] {
        for prune in [false, true] {
            let candidate = planner(jobs, prune)
                .optimize(&model, &topology, 16 * GIB)
                .unwrap();
            assert_same(
                &reference,
                &candidate,
                &format!("jobs={jobs} prune={prune}"),
            );
        }
    }
}

#[test]
fn dispatched_candidates_never_come_back_infeasible() {
    // Phase A screens every stage of every candidate with the exact
    // `dp_feasible` check before dispatching it, so every candidate that
    // issues a DP query must come back as an evaluated plan: one
    // `candidate_seconds` entry per candidate plan, and every stage query
    // of every dispatched candidate reaches the arena solver. Covered with
    // both recompute modes and the memory-balanced partitioner.
    let topology = TestbedPreset::RtxTitan8.topology();
    let configs = [
        (RecomputeMode::Off, PipelinePartitioner::ByFlops),
        (RecomputeMode::Auto, PipelinePartitioner::ByFlops),
        (RecomputeMode::Auto, PipelinePartitioner::MemoryBalanced),
    ];
    let mut searches = 0usize;
    for (recompute, partitioner) in configs {
        let planner = ParallelPlanner::new(PlannerConfig {
            optimizer: OptimizerConfig {
                recompute,
                partitioner,
                max_batch: 16,
                ..OptimizerConfig::default()
            },
            jobs: 2,
            prune: true,
            ..PlannerConfig::default()
        });
        for model in PaperModel::ALL {
            let spec = model.spec();
            for budget_gb in [8u64, 12, 16, 20] {
                let what = format!(
                    "{} @ {budget_gb}G, {recompute}, {partitioner:?}",
                    model.name()
                );
                let Some(outcome) = planner.optimize(&spec, &topology, budget_gb * GIB).unwrap()
                else {
                    continue;
                };
                let stats = &outcome.stats;
                assert_eq!(
                    stats.candidate_seconds.len(),
                    stats.candidate_plans,
                    "{what}: a dispatched candidate came back infeasible"
                );
                assert_eq!(
                    stats.arena_solves, stats.dp_invocations,
                    "{what}: every dispatched stage query must reach the arena"
                );
                searches += 1;
            }
        }
    }
    assert!(searches > 0, "the grid must plan something");
}

#[test]
fn plan_service_keeps_no_state_between_requests() {
    // One worker, so pruning is deterministic and the second answer must
    // repeat the first one's work counter for counter: nothing the first
    // request computed is reused.
    let service = PlanService::new(PlannerConfig {
        optimizer: config(),
        jobs: 1,
        ..PlannerConfig::default()
    });
    let request = PlanRequest {
        name: "vit-huge-32@12g".to_string(),
        model: PaperModel::VitHuge32.spec(),
        topology: TestbedPreset::RtxTitan8.topology(),
        budget_bytes: 12 * GIB,
    };
    let first = service.submit(&request).unwrap().outcome;
    let second = service.submit(&request).unwrap().outcome;
    assert_same(&first, &second, "first vs second request");
    let (first, second) = (
        &first.expect("12 GiB is feasible for ViT-Huge-32").stats,
        &second.expect("12 GiB is feasible for ViT-Huge-32").stats,
    );
    let work = |s: &SearchStats| {
        (
            s.arena_solves,
            s.dp_invocations,
            s.pruned_candidates,
            s.visit_order_digest,
        )
    };
    assert!(first.arena_solves > 0);
    assert_eq!(
        work(first),
        work(second),
        "(arena solves, DP invocations, pruned, visit order)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// Any (model, budget, jobs) combination selects exactly the plan the
    /// serial optimizer selects.
    #[test]
    fn random_worker_counts_select_the_serial_plan(
        model_idx in 0usize..4,
        budget_gb in prop_oneof![Just(8u64), Just(12), Just(16), Just(20)],
        jobs in 1usize..=8,
    ) {
        // The four Table-1 "huge-32/48" shapes keep each case quick.
        let model = [
            PaperModel::BertHuge32,
            PaperModel::VitHuge32,
            PaperModel::SwinHuge32,
            PaperModel::T5Large32,
        ][model_idx]
            .spec();
        let topology = TestbedPreset::RtxTitan8.topology();
        let budget = budget_gb * GIB;

        let reference = GalvatronOptimizer::new(config())
            .optimize(&model, &topology, budget)
            .unwrap();
        let candidate = planner(jobs, true).optimize(&model, &topology, budget).unwrap();
        assert_same(&reference, &candidate, &format!("jobs={jobs}, {budget_gb}G"));
    }
}
