//! Property suite for the hetero planner.
//!
//! Two contracts: (1) on *any homogeneous* topology the hetero path is a
//! bit-identical wrapper around the classic serial optimizer — same
//! plan bytes, same throughput and iteration-time bit patterns; (2) on
//! mixed-island clusters no plan ever assigns a pipeline stage more peak
//! memory than its island's device type physically provides.

use galvatron_cluster::{
    island_cluster, mixed_a100_rtx_cluster, rtx_titan_node, rtx_titan_nodes, ClusterTopology,
    DeviceType, GIB,
};
use galvatron_core::{GalvatronOptimizer, OptimizerConfig};
use galvatron_estimator::CostEstimator;
use galvatron_hetero::{HeteroPlanner, Objective};
use galvatron_model::{BertConfig, ModelSpec};
use proptest::prelude::*;

fn config() -> OptimizerConfig {
    OptimizerConfig {
        max_batch: 16,
        ..OptimizerConfig::default()
    }
}

fn model(layers: usize) -> ModelSpec {
    BertConfig {
        layers,
        hidden: 1280,
        heads: 20,
        seq: 512,
        vocab: 30522,
    }
    .build("bert-prop")
}

fn homogeneous_topology(idx: usize) -> ClusterTopology {
    match idx {
        0 => rtx_titan_node(4),
        1 => rtx_titan_node(8),
        2 => rtx_titan_nodes(2, 4),
        3 => rtx_titan_nodes(2, 8),
        4 => island_cluster(DeviceType::A100, 1, 8),
        _ => island_cluster(DeviceType::RtxTitan, 2, 4),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, ..ProptestConfig::default()
    })]

    /// Homogeneous bit-identity: the hetero Time objective must be an
    /// exact pass-through to the serial `optimize` — serialized plan
    /// bytes and f64 bit patterns equal — on priced and unpriced
    /// homogeneous topologies alike.
    #[test]
    fn hetero_time_path_is_bit_identical_on_homogeneous_topologies(
        topo_idx in 0usize..6,
        layers in prop_oneof![Just(2usize), Just(3), Just(4)],
        budget_gb in prop_oneof![Just(6u64), Just(8), Just(12), Just(16)],
    ) {
        let topology = homogeneous_topology(topo_idx);
        prop_assert!(!topology.is_heterogeneous());
        let spec = model(layers);
        let classic = GalvatronOptimizer::new(config())
            .optimize(&spec, &topology, budget_gb * GIB)
            .unwrap();
        let hetero = HeteroPlanner::new(config())
            .plan(&spec, &topology, budget_gb * GIB, Objective::Time)
            .unwrap();
        match (classic, hetero) {
            (None, None) => {}
            (Some(c), Some(h)) => {
                let classic_bytes = serde_json::to_string(&c.plan).unwrap().into_bytes();
                let hetero_bytes = serde_json::to_string(&h.outcome.plan).unwrap().into_bytes();
                prop_assert_eq!(classic_bytes, hetero_bytes, "plan bytes diverged");
                prop_assert_eq!(
                    c.throughput_samples_per_sec.to_bits(),
                    h.outcome.throughput_samples_per_sec.to_bits(),
                    "throughput bits diverged"
                );
                prop_assert_eq!(
                    c.iteration_time.to_bits(),
                    h.outcome.iteration_time.to_bits(),
                    "iteration-time bits diverged"
                );
            }
            (c, h) => prop_assert!(false, "feasibility diverged: classic {:?} hetero {:?}",
                c.map(|o| o.throughput_samples_per_sec),
                h.map(|o| o.outcome.throughput_samples_per_sec)),
        }
    }

    /// Island memory safety: on mixed clusters, every stage of every
    /// objective's winning plan fits inside min(budget, island memory)
    /// minus framework overhead for the island it is placed on.
    #[test]
    fn hetero_stages_never_exceed_their_islands_memory(
        per_island in prop_oneof![Just(4usize), Just(8)],
        layers in prop_oneof![Just(3usize), Just(4)],
        budget_gb in prop_oneof![Just(12u64), Just(16), Just(24), Just(32)],
        objective in prop_oneof![Just(Objective::Time), Just(Objective::Cost)],
    ) {
        let topology = mixed_a100_rtx_cluster(1, 1, per_island);
        let spec = model(layers);
        let planner = HeteroPlanner::new(config());
        if let Some(h) = planner.plan(&spec, &topology, budget_gb * GIB, objective).unwrap() {
            // Rebuild the deployment the plan landed on and recompute its
            // per-stage cost on that topology.
            let deployed = galvatron_hetero::enumerate_deployments(&topology)
                .into_iter()
                .find(|d| d.first_island == h.first_island && d.n_islands == h.n_islands)
                .expect("reported deployment exists");
            let estimator = CostEstimator::new(deployed.topology.clone(), config().estimator);
            let cost = estimator.plan_cost(&spec, &h.outcome.plan).unwrap();
            let pp = h.outcome.plan.stages.len();
            let group = deployed.topology.n_devices() / pp;
            for (i, &peak) in cost.stage_peak_memory.iter().enumerate() {
                for device in i * group..(i + 1) * group {
                    let gpu = deployed.topology.gpu_of(device).unwrap();
                    let island_budget = (budget_gb * GIB)
                        .min(gpu.memory_bytes)
                        .saturating_sub(gpu.framework_overhead_bytes);
                    prop_assert!(
                        peak <= island_budget,
                        "stage {} peak {} exceeds device {}'s budget {} ({}, {} GiB card)",
                        i,
                        peak,
                        device,
                        island_budget,
                        gpu.name,
                        gpu.memory_bytes / GIB
                    );
                }
            }
        }
    }
}
