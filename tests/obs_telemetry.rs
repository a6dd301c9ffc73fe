//! Telemetry acceptance: the obs layer's exporters round-trip, planner
//! metrics agree with the planner's own `SearchStats`, the `--explain`
//! breakdown agrees with a direct estimator recomputation to 1e-9, planner
//! spans and the simulated timeline land in one Chrome-trace file, and two
//! seeded elastic runs export byte-identical deterministic JSON snapshots.

use galvatron::elastic::{ElasticConfig, ElasticRuntime, FaultEvent, FaultKind, FaultSchedule};
use galvatron::obs::{write_spans, NullSink, SampleValue};
use galvatron::prelude::*;
use galvatron_cluster::rtx_titan_node;
use galvatron_model::BertConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

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
        // Deterministic telemetry: with one worker the prune watermark
        // cannot race.
        jobs: 1,
        prune: true,
        ..PlannerConfig::default()
    }
}

// --- (a) Prometheus text exposition round-trips through a hand parser ----

#[test]
fn prometheus_export_hand_parses_and_round_trips() {
    let registry = MetricsRegistry::new();
    registry.counter("planner_dp_cells_evaluated").inc_by(96);
    registry
        .counter_with("cells_total", &[("model", "bert-8")])
        .inc_by(3);
    registry.gauge("serve_queue_depth").set(17.5);
    let h = registry.histogram("phase_seconds");
    h.observe(0.5e-6);
    h.observe(3e-6);
    h.observe(1e9); // overflow: lands only in +Inf

    let text = registry.snapshot().to_prometheus();

    // Hand-parse: `# TYPE name kind` declarations and `name{labels} value`
    // samples, nothing fancier than the exposition format needs.
    let mut types = BTreeMap::new();
    let mut samples = BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
            types.insert(name.to_string(), kind.to_string());
        } else {
            let (key, value) = line.rsplit_once(' ').expect("sample has a value");
            samples.insert(key.to_string(), value.to_string());
        }
    }

    assert_eq!(
        types.get("planner_dp_cells_evaluated").map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        types.get("serve_queue_depth").map(String::as_str),
        Some("gauge")
    );
    assert_eq!(
        types.get("phase_seconds").map(String::as_str),
        Some("histogram")
    );

    assert_eq!(
        samples
            .get("planner_dp_cells_evaluated")
            .map(String::as_str),
        Some("96")
    );
    assert_eq!(
        samples
            .get("cells_total{model=\"bert-8\"}")
            .map(String::as_str),
        Some("3")
    );
    assert_eq!(
        samples
            .get("serve_queue_depth")
            .map(|v| v.parse::<f64>().unwrap()),
        Some(17.5)
    );

    // Histogram: cumulative buckets, +Inf equals _count, _sum adds up.
    let buckets: Vec<u64> = samples
        .iter()
        .filter(|(k, _)| k.starts_with("phase_seconds_bucket") && !k.contains("+Inf"))
        .map(|(_, v)| v.parse().unwrap())
        .collect();
    assert!(!buckets.is_empty());
    assert!(
        buckets.windows(2).all(|w| w[0] <= w[1]),
        "buckets cumulative"
    );
    assert_eq!(
        *buckets.last().unwrap(),
        2,
        "overflow excluded from finite buckets"
    );
    assert_eq!(
        samples
            .get("phase_seconds_bucket{le=\"+Inf\"}")
            .map(String::as_str),
        Some("3")
    );
    assert_eq!(
        samples.get("phase_seconds_count").map(String::as_str),
        Some("3")
    );
    let sum: f64 = samples.get("phase_seconds_sum").unwrap().parse().unwrap();
    assert!((sum - (0.5e-6 + 3e-6 + 1e9)).abs() < 1e-3);
}

// --- (b) planner metrics ⇔ SearchStats, explainer ⇔ estimator ------------

#[test]
fn planner_metrics_match_stats_and_explainer_matches_estimator() {
    let topology = rtx_titan_node(8);
    let model = fig4_bert(8);
    let config = quick_planner(16);
    let registry = Arc::new(MetricsRegistry::new());
    let obs = Obs::new(registry.clone(), Arc::new(NullSink));
    let planner = ParallelPlanner::new(config.clone()).with_obs(obs);

    let outcome = planner
        .optimize(&model, &topology, 16 * GIB)
        .expect("search succeeds")
        .expect("Fig. 4 BERT fits 16 GiB on 8 GPUs");
    let stats = &outcome.stats;
    let snap = registry.snapshot();

    // The registry is fed by `SearchStats::record_to`, so every logical
    // counter must agree with the stats snapshot exactly.
    assert!(stats.dp_cells_evaluated > 0, "the DP evaluated cells");
    assert_eq!(
        snap.counter("planner_dp_cells_evaluated"),
        Some(stats.dp_cells_evaluated as u64)
    );
    assert_eq!(
        snap.counter("dp_arena_solves"),
        Some(stats.arena_solves as u64)
    );
    assert_eq!(
        snap.counter("planner_candidates_pruned"),
        Some(stats.pruned_candidates as u64)
    );
    assert_eq!(
        snap.counter("planner_dp_invocations"),
        Some(stats.dp_invocations as u64)
    );

    // Explain the winning plan and recompute every per-layer total
    // directly with the estimator, the way the DP priced it.
    let estimator = CostEstimator::new(topology, config.optimizer.estimator.clone());
    let ex = explain_plan(&estimator, &model, &outcome.plan, &config.optimizer)
        .expect("explanation succeeds");
    let plan = &outcome.plan;
    let batch = plan.global_batch as u64;
    let m = plan.micro_batches.max(1);
    let micro_u64 = (batch / m as u64).max(1);
    let pp = plan.stages.len();

    let n_layers: usize = ex.stages.iter().map(|s| s.layers.len()).sum();
    assert_eq!(n_layers, model.n_layers());
    for (si, (stage_ex, stage)) in ex.stages.iter().zip(&plan.stages).enumerate() {
        let act_stash = plan.schedule.stash_samples(si, pp, m, plan.global_batch);
        for (layer_ex, strategy) in stage_ex.layers.iter().zip(&stage.layer_strategies) {
            let cost = estimator
                .layer_cost(
                    &model.layers[layer_ex.layer],
                    model.dtype,
                    strategy,
                    micro_u64,
                    stage.device_base,
                )
                .expect("layer cost prices");
            let expected = cost.total_with_micro_batches(estimator.config(), m);
            assert!(
                (layer_ex.total_seconds - expected).abs() <= 1e-9,
                "layer {} explain {} vs estimator {}",
                layer_ex.layer,
                layer_ex.total_seconds,
                expected
            );
            let mem = estimator.layer_memory(
                &model.layers[layer_ex.layer],
                model.dtype,
                strategy,
                act_stash,
            );
            assert_eq!(layer_ex.persistent_bytes, mem.persistent());
        }
    }

    // Headline agrees with the whole-plan estimator.
    let plan_cost = estimator.plan_cost(&model, plan).expect("plan prices");
    assert!((ex.iteration_seconds - plan_cost.iteration_time).abs() <= 1e-9);
    assert!((ex.throughput_samples_per_sec - outcome.throughput_samples_per_sec).abs() <= 1e-9);

    // The rendered table lists every layer.
    let text = ex.render();
    for l in ex.stages.iter().flat_map(|s| &s.layers) {
        assert!(text.contains(&l.strategy), "table lists {}", l.strategy);
    }
}

// --- (c) one Perfetto file: planner spans + simulated timeline -----------

#[test]
fn combined_trace_holds_planner_spans_and_sim_timeline() {
    let topology = rtx_titan_node(8);
    let model = fig4_bert(4);
    let registry = Arc::new(MetricsRegistry::new());
    let span_sink = Arc::new(ChromeSpanSink::new());
    let obs = Obs::new(registry, span_sink.clone());
    let planner = ParallelPlanner::new(quick_planner(16)).with_obs(obs.clone());

    let outcome = planner
        .optimize(&model, &topology, 16 * GIB)
        .expect("search succeeds")
        .expect("feasible");
    let sim =
        Simulator::new(topology, SimulatorConfig::default().with_budget(16 * GIB)).with_obs(obs);
    let (_, trace) = sim
        .execute_traced(&model, &outcome.plan)
        .expect("traced execution succeeds");

    // The same assembly `galvatron-plan --trace` performs: pid 0 is the
    // simulated iteration, pid 1 the planner's search spans.
    let mut writer = ChromeTraceWriter::new();
    galvatron::sim::write_trace_metadata(&mut writer, &trace, 0, "simulated iteration");
    galvatron::sim::write_trace_events(&mut writer, &trace, 0);
    writer.process_name(1, "planner search");
    write_spans(&mut writer, 1, 0, &span_sink.records());
    let json = writer.finish();

    let parsed: serde_json::Value = serde_json::from_str(&json).expect("trace is valid JSON");
    let events = parsed.as_array().expect("trace event array");
    let sim_events = events
        .iter()
        .filter(|e| e["ph"] == "X" && e["pid"] == 0)
        .count();
    let span_events: Vec<&serde_json::Value> = events
        .iter()
        .filter(|e| e["ph"] == "X" && e["pid"] == 1)
        .collect();
    assert!(sim_events > 0, "simulated tasks present");
    assert!(
        span_events.iter().any(|e| e["name"] == "dp_search"),
        "planner dp_search span present"
    );
    assert!(
        span_events
            .iter()
            .any(|e| e["name"] == "evaluate_candidates"),
        "sweep phase span present"
    );
    assert!(
        events.iter().any(|e| e["ph"] == "M" && e["pid"] == 1),
        "planner process is named"
    );
}

// --- (d) seeded elastic runs export byte-identical snapshots -------------

#[test]
fn seeded_elastic_runs_export_byte_identical_deterministic_json() {
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
    let run = || {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = Obs::new(registry.clone(), Arc::new(NullSink));
        let config = ElasticConfig {
            total_steps: 40,
            planner: quick_planner(16),
            ..ElasticConfig::new(16 * GIB)
        };
        let runtime = ElasticRuntime::new(config).with_obs(obs);
        runtime
            .run(&model, &topology, &faults)
            .expect("run succeeds");
        registry.snapshot()
    };

    let first = run();
    let second = run();
    assert_eq!(first.counter("elastic_replans_total"), Some(1));
    let migrated = first
        .counter("migration_bytes_modeled")
        .expect("migration bytes recorded");
    assert!(migrated > 0, "shrinking moves state");
    assert!(first.counter("elastic_steps_total").unwrap() > 0);

    // The deterministic view (volatile wall-clock latencies dropped) must
    // export byte-identically across the two runs; the outage/detect
    // histograms live in *simulated* time, so they survive the filter and
    // still match.
    let a = first.deterministic().to_json();
    let b = second.deterministic().to_json();
    assert_eq!(a, b, "seeded elastic runs must export identical snapshots");
    assert!(
        first.deterministic().metrics.iter().any(|m| {
            m.name == "elastic_outage_seconds"
                && matches!(&m.value, SampleValue::Histogram(h) if h.count > 0)
        }),
        "simulated-time histograms are deterministic and retained"
    );
}
