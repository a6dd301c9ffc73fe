//! Heterogeneous clusters — the paper's §6 future work ("more challenging
//! scenarios, e.g., heterogeneous environments"), implemented: per-device
//! GPU specs, slowest-member group pacing, and capacity-aware pipeline
//! partitioning.

use galvatron::cluster::topology::TopologyLevel;
use galvatron::core::PipelinePartitioner;
use galvatron::prelude::*;
use galvatron_core::GalvatronOptimizer;

/// Two islands: four A100s and four RTX TITANs, joined by InfiniBand.
fn mixed_cluster() -> ClusterTopology {
    let mut specs = vec![GpuSpec::a100(); 4];
    specs.extend(vec![GpuSpec::rtx_titan(); 4]);
    ClusterTopology::heterogeneous(
        specs,
        vec![
            TopologyLevel {
                group_size: 4,
                link: Link::of_class(LinkClass::NvLink),
            },
            TopologyLevel {
                group_size: 8,
                link: Link::of_class(LinkClass::InfiniBand100),
            },
        ],
    )
    .expect("valid mixed topology")
}

#[test]
fn group_speed_is_the_slowest_member() {
    let topo = mixed_cluster();
    assert!(topo.is_heterogeneous());
    let a100 = GpuSpec::a100().sustained_flops;
    let titan = GpuSpec::rtx_titan().sustained_flops;
    assert_eq!(topo.group_sustained_flops(0, 4).unwrap(), a100);
    assert_eq!(topo.group_sustained_flops(4, 4).unwrap(), titan);
    // A group spanning both islands crawls at TITAN speed.
    assert_eq!(topo.group_sustained_flops(0, 8).unwrap(), titan);
    assert!(topo.group_sustained_flops(6, 4).is_err());

    // Homogeneous topologies are unaffected.
    let homo = TestbedPreset::RtxTitan8.topology();
    assert!(!homo.is_heterogeneous());
    assert_eq!(homo.group_sustained_flops(0, 8).unwrap(), titan);
}

#[test]
fn capacity_aware_partition_feeds_the_fast_island_more_layers() {
    let model = PaperModel::BertHuge32.spec();
    let caps = [
        GpuSpec::a100().sustained_flops,
        GpuSpec::rtx_titan().sustained_flops,
    ];
    let parts = PipelinePartitioner::ByFlops.partition_with_capacities(&model, 2, Some(&caps));
    let (fast, slow) = (parts[0], parts[1]);
    assert!(
        fast.1 - fast.0 > 2 * (slow.1 - slow.0),
        "A100 stage got {fast:?}, TITAN stage {slow:?}"
    );
    // Uniform capacities reduce to the plain partition.
    let plain = PipelinePartitioner::ByFlops.partition(&model, 2);
    let uniform =
        PipelinePartitioner::ByFlops.partition_with_capacities(&model, 2, Some(&[1.0, 1.0]));
    assert_eq!(plain, uniform);
}

#[test]
fn planner_balances_stage_times_across_mixed_islands() {
    let topo = mixed_cluster();
    let model = PaperModel::BertHuge32.spec();
    let outcome = GalvatronOptimizer::new(OptimizerConfig {
        max_batch: 32,
        ..OptimizerConfig::default()
    })
    .optimize(&model, &topo, 16 * GIB)
    .unwrap()
    .expect("feasible on the mixed cluster");
    outcome.plan.validate(model.n_layers(), 8).unwrap();

    let sim = Simulator::new(
        topo.clone(),
        SimulatorConfig::default().with_budget(16 * GIB),
    );
    let report = sim.execute(&model, &outcome.plan).unwrap();
    assert!(!report.oom);

    if outcome.plan.pp_degree() == 2 {
        // The capacity-aware cut should keep the two stages' busy times
        // within ~2× of each other despite the ~4× speed gap.
        let busy0 = report.busy_compute[0];
        let busy1 = report.busy_compute[1];
        let ratio = busy0.max(busy1) / busy0.min(busy1).max(1e-9);
        assert!(ratio < 2.0, "stage busy imbalance {ratio:.2}");
    }
}

#[test]
fn heterogeneous_beats_naive_equal_partitioning() {
    // The same plan shape with an equal layer split must not beat the
    // planner's capacity-aware choice.
    let topo = mixed_cluster();
    let model = PaperModel::BertHuge32.spec();
    let optimizer = GalvatronOptimizer::new(OptimizerConfig {
        max_batch: 32,
        ..OptimizerConfig::default()
    });
    let tuned = optimizer
        .optimize(&model, &topo, 16 * GIB)
        .unwrap()
        .unwrap();

    // Naive: force equal-count 2-way PP with DP4 stages.
    let bounds = PipelinePartitioner::ByLayerCount.partition(&model, 2);
    let dp4 = galvatron::strategy::IntraStageStrategy::pure(galvatron::strategy::Paradigm::Data, 4)
        .unwrap();
    let naive = ParallelPlan {
        origin: "naive".into(),
        global_batch: tuned.plan.global_batch,
        micro_batches: 4,
        schedule: Default::default(),
        stages: bounds
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| galvatron::strategy::StagePlan {
                layer_start: a,
                layer_end: b,
                device_base: i * 4,
                device_count: 4,
                layer_strategies: vec![dp4.clone(); b - a],
                layer_recompute: Vec::new(),
            })
            .collect(),
    };
    let sim = Simulator::new(topo, SimulatorConfig::default());
    let tuned_tpt = sim.execute(&model, &tuned.plan).unwrap().throughput;
    let naive_tpt = sim.execute(&model, &naive).unwrap().throughput;
    assert!(
        tuned_tpt >= naive_tpt * 0.95,
        "tuned {tuned_tpt:.2} vs naive {naive_tpt:.2}"
    );
}

#[test]
fn heterogeneous_topology_serializes() {
    let topo = mixed_cluster();
    let json = serde_json::to_string(&topo).unwrap();
    let back: ClusterTopology = serde_json::from_str(&json).unwrap();
    assert_eq!(topo, back);
    assert!(back.is_heterogeneous());
    // Legacy JSON without device_specs still loads.
    let homo = TestbedPreset::RtxTitan8.topology();
    let mut value: serde_json::Value = serde_json::to_value(&homo).unwrap();
    value.as_object_mut().unwrap().remove("device_specs");
    let back: ClusterTopology = serde_json::from_value(value).unwrap();
    assert_eq!(back, homo);
}
