//! The hetero-path conformance suite: 120 seeded random instances.
//!
//! The per-stage-budget generalization threads every search — the serial
//! reference, the incremental and fully cached parallel sweeps and the
//! hetero planner's Time objective — through
//! [`ClusterTopology::stage_usable_budgets`]. This suite draws seeded
//! random homogeneous instances and asserts all four paths agree
//! **bit-for-bit**: serialized plan bytes equal, throughput and
//! iteration-time `f64` bit patterns equal, feasibility identical. A second
//! pass pins the mixed-cluster paths to each other the same way —
//! heterogeneity must not make any path diverge from the serial reference.
//!
//! [`ClusterTopology::stage_usable_budgets`]:
//!     galvatron_cluster::ClusterTopology::stage_usable_budgets

use galvatron_cluster::{
    mixed_a100_rtx_cluster, rtx_titan_node, rtx_titan_nodes, ClusterTopology, GIB, MIB,
};
use galvatron_core::{GalvatronOptimizer, IncrementalEngine, OptimizeOutcome, OptimizerConfig};
use galvatron_hetero::{HeteroPlanner, Objective};
use galvatron_model::{BertConfig, ModelSpec};
use galvatron_planner::{DpCache, ParallelPlanner, PlannerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Instance {
    topology: ClusterTopology,
    model: ModelSpec,
    budget: u64,
    config: OptimizerConfig,
}

fn draw_instance(seed: u64, mixed: bool) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let topology = if mixed {
        let per_island = [2usize, 4][rng.gen_range(0usize..2)];
        mixed_a100_rtx_cluster(1, 1, per_island)
    } else {
        match rng.gen_range(0usize..4) {
            0 => rtx_titan_node(2),
            1 => rtx_titan_node(4),
            2 => rtx_titan_node(8),
            _ => rtx_titan_nodes(2, 4),
        }
    };
    let heads = [8u64, 16][rng.gen_range(0usize..2)];
    let model = BertConfig {
        layers: rng.gen_range(2..=4),
        hidden: heads * 64,
        heads,
        seq: [128u64, 256][rng.gen_range(0usize..2)],
        vocab: 30522,
    }
    .build(&format!("hetero-oracle-{seed}"));
    // Bimodal budgets: tight ones exercise infeasibility and the
    // 8-consecutive-infeasible early stop, roomy ones real searches.
    let budget = if rng.gen_range(0..3) == 0 {
        rng.gen_range(600u64..1200) * MIB
    } else {
        rng.gen_range(2u64..=12) * GIB
    };
    let config = OptimizerConfig {
        max_batch: [8usize, 16][rng.gen_range(0usize..2)],
        ..OptimizerConfig::default()
    };
    Instance {
        topology,
        model,
        budget,
        config,
    }
}

/// Bit-level outcome equality: serialized plan bytes plus f64 bit patterns.
fn assert_bit_identical(a: &Option<OptimizeOutcome>, b: &Option<OptimizeOutcome>, what: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(
                serde_json::to_string(&a.plan).unwrap().into_bytes(),
                serde_json::to_string(&b.plan).unwrap().into_bytes(),
                "{what}: plan bytes diverged"
            );
            assert_eq!(
                a.throughput_samples_per_sec.to_bits(),
                b.throughput_samples_per_sec.to_bits(),
                "{what}: throughput bits diverged ({} vs {})",
                a.throughput_samples_per_sec,
                b.throughput_samples_per_sec
            );
            assert_eq!(
                a.iteration_time.to_bits(),
                b.iteration_time.to_bits(),
                "{what}: iteration-time bits diverged"
            );
        }
        (a, b) => panic!(
            "{what}: feasibility diverged (reference {}, candidate {})",
            a.is_some(),
            b.is_some()
        ),
    }
}

fn all_paths_agree(instance: &Instance, what: &str) {
    let serial = GalvatronOptimizer::new(instance.config.clone())
        .optimize(&instance.model, &instance.topology, instance.budget)
        .expect("valid instance");

    let planner = ParallelPlanner::new(PlannerConfig {
        optimizer: instance.config.clone(),
        jobs: 4,
        use_cache: true,
        prune: true,
        incremental: true,
        cache_max_entries: None,
        intern_max_entries: None,
    });
    let engine = IncrementalEngine::new();
    let incremental = planner
        .optimize_with_reuse(
            &instance.model,
            &instance.topology,
            instance.budget,
            None,
            Some(&engine),
        )
        .expect("valid instance");
    assert_bit_identical(&serial, &incremental, &format!("{what}: incremental"));
    // Replay against the warm engine: interned kernels must not drift.
    let replay = planner
        .optimize_with_reuse(
            &instance.model,
            &instance.topology,
            instance.budget,
            None,
            Some(&engine),
        )
        .expect("valid instance");
    assert_bit_identical(&serial, &replay, &format!("{what}: warm replay"));

    let cache = DpCache::new();
    let parallel = planner
        .optimize_with_reuse(
            &instance.model,
            &instance.topology,
            instance.budget,
            Some(&cache),
            Some(&engine),
        )
        .expect("valid instance");
    assert_bit_identical(&serial, &parallel, &format!("{what}: parallel sweep"));

    let hetero = HeteroPlanner::new(instance.config.clone())
        .plan(
            &instance.model,
            &instance.topology,
            instance.budget,
            Objective::Time,
        )
        .expect("valid instance")
        .map(|h| h.outcome);
    assert_bit_identical(&serial, &hetero, &format!("{what}: hetero time objective"));
}

/// 100 seeded homogeneous instances: every search path, including the
/// hetero planner's Time objective, is bit-identical to the serial
/// reference.
#[test]
fn homogeneous_instances_are_bit_identical_across_every_path() {
    for seed in 0..100u64 {
        let instance = draw_instance(seed, false);
        all_paths_agree(&instance, &format!("seed {seed}"));
    }
}

/// 20 seeded mixed-cluster instances: the per-stage-budget machinery keeps
/// serial, incremental and parallel paths bit-identical on heterogeneous
/// topologies too.
#[test]
fn mixed_instances_are_bit_identical_across_every_path() {
    for seed in 1000..1020u64 {
        let instance = draw_instance(seed, true);
        all_paths_agree(&instance, &format!("mixed seed {seed}"));
    }
}
