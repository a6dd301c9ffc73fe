//! `galvatron-elastic` — the elastic recovery sweep.
//!
//! Runs the acceptance demo (Fig. 4 BERT on the 8-GPU testbed, two devices
//! killed mid-run) and a fault-scenario sweep over the Table-2 model zoo,
//! then writes `results/elastic_recovery.json`.
//!
//! Flags:
//!
//! * `--jobs N` — planner worker threads (default: all cores),
//! * `--trace-out PATH` — additionally write a Chrome-trace JSON of one
//!   post-recovery iteration of the demo (load in Perfetto),
//! * `--metrics-out PATH` — write the run's metrics-registry snapshot as
//!   JSON. The *deterministic* view is written (wall-clock latencies
//!   dropped), so two runs with the same schedule and `--jobs 1` produce
//!   byte-identical files.

use galvatron_bench::{jobs_from_args, metrics_out_from_args, write_json, write_metrics_snapshot};
use galvatron_cluster::{rtx_titan_node, GIB};
use galvatron_core::OptimizerConfig;
use galvatron_elastic::{
    ElasticConfig, ElasticError, ElasticOutcome, ElasticRuntime, FaultEvent, FaultKind,
    FaultSchedule,
};
use galvatron_model::{BertConfig, ModelSpec, PaperModel};
use galvatron_obs::{MetricsRegistry, NullSink, Obs};
use galvatron_planner::{PlanRequest, PlanService, PlannerConfig};
use galvatron_sim::{to_chrome_trace_named, Simulator};
use serde::Serialize;
use std::sync::Arc;

const BUDGET_GB: u64 = 16;
const MAX_BATCH: usize = 32;
const TOTAL_STEPS: usize = 40;

fn planner_config(jobs: usize) -> PlannerConfig {
    PlannerConfig {
        optimizer: OptimizerConfig {
            max_batch: MAX_BATCH,
            ..OptimizerConfig::default()
        },
        jobs,
        prune: true,
        ..PlannerConfig::default()
    }
}

fn elastic_config(jobs: usize) -> ElasticConfig {
    ElasticConfig {
        total_steps: TOTAL_STEPS,
        planner: planner_config(jobs),
        ..ElasticConfig::new(BUDGET_GB * GIB)
    }
}

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

/// Kill devices 6 and 7 at step 20 — the acceptance demo schedule.
fn demo_schedule() -> FaultSchedule {
    FaultSchedule::new(vec![
        FaultEvent {
            step: 20,
            kind: FaultKind::DeviceLoss { device: 6 },
        },
        FaultEvent {
            step: 20,
            kind: FaultKind::DeviceLoss { device: 7 },
        },
    ])
}

fn scenarios() -> Vec<(&'static str, FaultSchedule)> {
    vec![
        ("loss2", demo_schedule()),
        (
            "straggler",
            FaultSchedule::new(vec![FaultEvent {
                step: 12,
                kind: FaultKind::Straggler {
                    device: 3,
                    slowdown: 2.5,
                },
            }]),
        ),
        (
            "link",
            FaultSchedule::new(vec![FaultEvent {
                step: 12,
                kind: FaultKind::LinkDegrade {
                    level: 0,
                    factor: 0.35,
                },
            }]),
        ),
    ]
}

#[derive(Serialize)]
struct DemoRecord {
    outcome: ElasticOutcome,
    replan_bit_identical: bool,
    goodput_vs_scratch: f64,
}

#[derive(Serialize)]
struct ScenarioRecord {
    model: String,
    scenario: String,
    outcome: Option<ElasticOutcome>,
    error: Option<String>,
}

#[derive(Serialize)]
struct Report {
    testbed: String,
    budget_gb: u64,
    max_batch: usize,
    total_steps: usize,
    demo: DemoRecord,
    scenarios: Vec<ScenarioRecord>,
}

fn trace_out_from_args() -> Option<String> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--trace-out" {
            return args.next();
        }
        if let Some(path) = arg.strip_prefix("--trace-out=") {
            return Some(path.to_string());
        }
    }
    None
}

fn main() {
    let jobs = jobs_from_args();
    let trace_out = trace_out_from_args();
    let metrics_out = metrics_out_from_args();
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Obs::new(registry.clone(), Arc::new(NullSink));
    let topology = rtx_titan_node(8);
    let config = elastic_config(jobs);
    let runtime = ElasticRuntime::new(config.clone()).with_obs(obs.clone());

    // --- Acceptance demo: Fig. 4 BERT, kill 2 of 8 devices. -------------
    let demo_model = fig4_bert(8);
    let outcome = runtime
        .run(&demo_model, &topology, &demo_schedule())
        .expect("the demo scenario recovers");
    let scratch = PlanService::new(planner_config(jobs))
        .submit(&PlanRequest {
            name: "scratch".into(),
            model: demo_model.clone(),
            topology: outcome.final_topology.clone(),
            budget_bytes: config.budget_bytes,
        })
        .expect("scratch planning succeeds")
        .outcome
        .expect("feasible on the survivors");
    let replan_bit_identical = outcome.final_plan.plan == scratch.plan;
    let sim = Simulator::new(
        outcome.final_topology.clone(),
        config.sim.clone().with_budget(config.budget_bytes),
    );
    let scratch_report = sim
        .execute(&demo_model, &scratch.plan)
        .expect("scratch plan executes");
    let goodput_vs_scratch = outcome.goodput.after.unwrap_or(0.0) / scratch_report.throughput;

    println!(
        "Elastic recovery demo: {} on 8× RTX TITAN, kill {{6,7}} at step 20",
        demo_model.name
    );
    println!(
        "  plan {} → {} | detect {:.2}s, replan {:.2}s (charged), migrate {:.3}s, {} steps lost",
        outcome.initial.summary,
        outcome.final_plan.summary,
        outcome.recoveries[0].time_to_detect,
        outcome.recoveries[0].replan_charge_seconds,
        outcome.recoveries[0].time_to_migrate,
        outcome.recoveries[0].steps_lost,
    );
    println!(
        "  goodput before/during/after: {:.1} / {:.1} / {:.1} samples/s",
        outcome.goodput.before.unwrap_or(0.0),
        outcome.goodput.during.unwrap_or(0.0),
        outcome.goodput.after.unwrap_or(0.0),
    );
    println!(
        "  re-plan bit-identical to scratch: {replan_bit_identical} | post-recovery goodput = {:.4}× scratch",
        goodput_vs_scratch
    );
    assert!(
        replan_bit_identical,
        "online re-plan must match from-scratch"
    );
    assert!(
        (goodput_vs_scratch - 1.0).abs() < 0.01,
        "post-recovery goodput must be within 1% of the from-scratch plan"
    );

    if let Some(path) = trace_out {
        let (_, entries) = sim
            .execute_traced(&demo_model, &outcome.final_plan.plan)
            .expect("traced execution succeeds");
        let label = format!("{} post-recovery (6 devices)", demo_model.name);
        std::fs::write(&path, to_chrome_trace_named(&entries, &label))
            .expect("trace file is writable");
        println!("  wrote Chrome trace to {path}");
    }

    let demo = DemoRecord {
        outcome,
        replan_bit_identical,
        goodput_vs_scratch,
    };

    // --- Fault sweep over the Table-2 zoo. ------------------------------
    println!();
    println!(
        "{:<14} {:<10} {:>5} {:>9} {:>9} {:>9} {:>8} {:>8} {:>6}",
        "model", "scenario", "surv", "before", "during", "after", "detect", "migrate", "lost"
    );
    let mut records = Vec::new();
    for preset in PaperModel::ALL {
        let model = preset.spec();
        for (name, schedule) in scenarios() {
            match runtime.run(&model, &topology, &schedule) {
                Ok(outcome) => {
                    let r = outcome.recoveries.first();
                    println!(
                        "{:<14} {:<10} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>8} {:>8} {:>6}",
                        preset.name(),
                        name,
                        outcome.final_plan.devices,
                        outcome.goodput.before.unwrap_or(0.0),
                        outcome.goodput.during.unwrap_or(0.0),
                        outcome.goodput.after.unwrap_or(0.0),
                        r.map_or("-".into(), |r| format!("{:.2}s", r.time_to_detect)),
                        r.map_or("-".into(), |r| format!("{:.3}s", r.time_to_migrate)),
                        r.map_or("-".into(), |r| r.steps_lost.to_string()),
                    );
                    records.push(ScenarioRecord {
                        model: preset.name().to_string(),
                        scenario: name.to_string(),
                        outcome: Some(outcome),
                        error: None,
                    });
                }
                Err(e @ ElasticError::NoFeasiblePlan { .. }) => {
                    // xHuge models need more than 8 GPUs at this budget.
                    println!("{:<14} {:<10} infeasible: {e}", preset.name(), name);
                    records.push(ScenarioRecord {
                        model: preset.name().to_string(),
                        scenario: name.to_string(),
                        outcome: None,
                        error: Some(e.to_string()),
                    });
                }
                Err(e) => panic!("{}/{name}: {e}", preset.name()),
            }
        }
    }

    let report = Report {
        testbed: "rtx_titan_node(8)".to_string(),
        budget_gb: BUDGET_GB,
        max_batch: MAX_BATCH,
        total_steps: TOTAL_STEPS,
        demo,
        scenarios: records,
    };
    let path = write_json("elastic_recovery", &report).expect("results/ is writable");
    println!();
    println!("wrote {}", path.display());

    if let Some(path) = metrics_out {
        write_metrics_snapshot(&path, &registry, true);
        println!("wrote deterministic metrics snapshot to {path}");
    }
}
