//! End-to-end elastic runtime: fault injection → detection → re-plan →
//! migration → recovery, on the paper's 8-GPU testbed.
//!
//! The headline scenario mirrors the acceptance demo: the Figure-4 BERT
//! workload trains on 8 RTX TITANs, two devices die mid-run, and the
//! runtime must detect the loss, re-plan on the 6 survivors with a plan
//! bit-identical to planning from scratch on that degraded topology, and
//! recover its goodput.

use galvatron::elastic::{ElasticConfig, ElasticRuntime, FaultEvent, FaultKind, FaultSchedule};
use galvatron::prelude::*;
use galvatron_cluster::rtx_titan_node;
use galvatron_model::BertConfig;
use proptest::prelude::*;

/// The Figure-4 BERT workload (hidden 1280, 20 heads, seq 512).
fn fig4_bert(layers: usize) -> ModelSpec {
    BertConfig {
        layers,
        hidden: 1280,
        heads: 20,
        seq: 512,
        vocab: 30522,
    }
    .build(&format!("BERT-{layers}"))
}

fn quick_planner(max_batch: usize) -> PlannerConfig {
    PlannerConfig {
        optimizer: OptimizerConfig {
            max_batch,
            ..OptimizerConfig::default()
        },
        jobs: 2,
        prune: true,
        ..PlannerConfig::default()
    }
}

fn demo_config(max_batch: usize, total_steps: usize) -> ElasticConfig {
    ElasticConfig {
        total_steps,
        planner: quick_planner(max_batch),
        ..ElasticConfig::new(16 * GIB)
    }
}

#[test]
fn killing_two_devices_recovers_on_the_six_survivors() {
    let topology = rtx_titan_node(8);
    let model = fig4_bert(8);
    let faults = FaultSchedule::new(vec![
        FaultEvent {
            step: 20,
            kind: FaultKind::DeviceLoss { device: 6 },
        },
        FaultEvent {
            step: 20,
            kind: FaultKind::DeviceLoss { device: 7 },
        },
    ]);
    let config = demo_config(16, 40);
    let runtime = ElasticRuntime::new(config.clone());
    let outcome = runtime
        .run(&model, &topology, &faults)
        .expect("run succeeds");

    // The fault was detected and recovered exactly once.
    assert_eq!(
        outcome.recoveries.len(),
        1,
        "one recovery for one fault burst"
    );
    let recovery = &outcome.recoveries[0];
    assert!(recovery.trigger.contains("loss(6)"));
    assert!(recovery.trigger.contains("loss(7)"));
    assert_eq!(recovery.injected_step, 20);
    let expected_detect = config.detector.time_to_detect_loss();
    assert!(
        (recovery.time_to_detect - expected_detect).abs() < 1e-9,
        "loss detection takes miss_threshold × heartbeat_interval"
    );
    assert!(recovery.time_to_migrate > 0.0, "shrinking moves state");
    assert!(recovery.steps_lost > 0);

    // The run finished on exactly the 6 survivors.
    assert_eq!(outcome.final_plan.devices, 6);
    assert_eq!(outcome.final_device_map, vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(outcome.failed_devices, vec![6, 7]);
    assert_eq!(outcome.recovered_failures, vec![6, 7]);
    assert_eq!(outcome.total_steps, 40);
    outcome
        .final_plan
        .plan
        .validate(model.n_layers(), 6)
        .expect("recovered plan is valid");
    assert!(!outcome.final_plan.oom);
    assert!(outcome.final_plan.peak_memory <= config.budget_bytes);

    // Bit-identical to planning from scratch on the degraded topology.
    let scratch = PlanService::new(quick_planner(16))
        .submit(&PlanRequest {
            name: "scratch".into(),
            model: model.clone(),
            topology: outcome.final_topology.clone(),
            budget_bytes: config.budget_bytes,
        })
        .expect("scratch planning succeeds")
        .outcome
        .expect("feasible on 6 survivors");
    assert_eq!(
        outcome.final_plan.plan, scratch.plan,
        "online re-plan must be bit-identical to planning from scratch"
    );

    // Post-recovery goodput within 1% of the from-scratch plan's simulated
    // throughput on the degraded cluster.
    let sim = Simulator::new(
        outcome.final_topology.clone(),
        config.sim.clone().with_budget(config.budget_bytes),
    );
    let scratch_report = sim.execute(&model, &scratch.plan).expect("plan executes");
    let after = outcome.goodput.after.expect("run ends recovered");
    let ratio = after / scratch_report.throughput;
    assert!(
        (ratio - 1.0).abs() < 0.01,
        "post-recovery goodput {after:.2} vs from-scratch {:.2}",
        scratch_report.throughput
    );

    // Goodput phases are ordered sensibly: the fault window hurts.
    let before = outcome.goodput.before.expect("healthy prefix");
    let during = outcome.goodput.during.expect("fault window");
    assert!(during < before, "the outage must cost goodput");
    assert!(outcome.goodput.overall > 0.0);
}

#[test]
fn elastic_timelines_are_deterministic_under_a_fixed_seed() {
    let topology = rtx_titan_node(8);
    let model = fig4_bert(8);
    let faults = FaultSchedule::random(0x9A1A_7201, 24, 8, topology.levels().len(), 3);
    let run = |_: usize| {
        let runtime = ElasticRuntime::new(demo_config(8, 24));
        let mut outcome = runtime
            .run(&model, &topology, &faults)
            .expect("run succeeds");
        // Host planning wall-clock is the one legitimately non-deterministic
        // field; blank it before comparing byte-for-byte.
        for r in &mut outcome.recoveries {
            r.replan_wall_seconds = 0.0;
        }
        serde_json::to_string(&outcome).expect("serializes")
    };
    assert_eq!(
        run(0),
        run(1),
        "identical seed must replay byte-identically"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// For any seeded fault schedule: the re-planned strategy never places
    /// work on a device that failed (and was recovered), and the final
    /// plan fits the surviving memory budget.
    #[test]
    fn replans_avoid_failed_devices_and_fit_memory(seed in 0u64..1000) {
        let topology = rtx_titan_node(8);
        let model = fig4_bert(8);
        let faults = FaultSchedule::random(seed, 16, 8, topology.levels().len(), 2);
        let config = demo_config(8, 16);
        let runtime = ElasticRuntime::new(config.clone());
        let outcome = runtime.run(&model, &topology, &faults).expect("run succeeds");

        for failed in &outcome.recovered_failures {
            prop_assert!(
                !outcome.final_device_map.contains(failed),
                "failed device {failed} still mapped in {:?}",
                outcome.final_device_map
            );
        }
        prop_assert!(!outcome.final_plan.oom);
        prop_assert!(outcome.final_plan.peak_memory <= config.budget_bytes);
        outcome
            .final_plan
            .plan
            .validate(model.n_layers(), outcome.final_device_map.len())
            .expect("final plan valid on the survivors");
        for recovery in &outcome.recoveries {
            prop_assert!(recovery.survivors >= 2);
            prop_assert!(recovery.outage_seconds >= recovery.time_to_detect);
        }
    }
}
