//! `galvatron-plan` — plan (and optionally simulate) the training of a
//! Transformer on a GPU cluster.
//!
//! ```text
//! galvatron-plan --model vit-huge-32 --cluster rtx-titan-8 --budget-gb 8
//! galvatron-plan --model bert-huge-32 --cluster rtx-titan-16 --budget-gb 16 \
//!     --simulate --trace timeline.json
//! galvatron-plan --model bert-xhuge --cluster a100-64 --budget-gb 16 \
//!     --restrict dp-pp --max-batch 128
//! ```

use galvatron::prelude::*;
use galvatron_hetero::enumerate_deployments;
use galvatron_obs::write_spans;
use galvatron_strategy::Paradigm;
use std::process::ExitCode;
use std::sync::Arc;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    model: String,
    cluster: String,
    budget_gb: u64,
    max_batch: usize,
    restrict: Option<String>,
    objective: Objective,
    recompute: RecomputeMode,
    partitioner: PipelinePartitioner,
    jobs: usize,
    simulate: bool,
    explain: bool,
    trace_path: Option<String>,
    json_path: Option<String>,
    metrics_path: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            model: "bert-huge-32".to_string(),
            cluster: "rtx-titan-8".to_string(),
            budget_gb: 16,
            max_batch: 512,
            restrict: None,
            objective: Objective::Time,
            recompute: RecomputeMode::Off,
            partitioner: PipelinePartitioner::default(),
            jobs: 0,
            simulate: false,
            explain: false,
            trace_path: None,
            json_path: None,
            metrics_path: None,
        }
    }
}

const USAGE: &str = "\
galvatron-plan: automatic hybrid-parallelism planning for Transformer training

USAGE:
    galvatron-plan [OPTIONS]

OPTIONS:
    --model <NAME>       bert-huge-32|bert-huge-48|bert-xhuge|vit-huge-32|
                         vit-huge-48|vit-xhuge|t5-large-32|t5-large-48|
                         swin-huge-32|swin-huge-48|gpt2-xl  [bert-huge-32]
    --cluster <NAME>     rtx-titan-8 | rtx-titan-16 | a100-64 | a100-rtx-16
                         (a100-rtx-16: one priced 8-GPU A100 island plus one
                         priced 8-GPU RTX TITAN island)  [rtx-titan-8]
    --budget-gb <N>      per-device memory budget in GB  [16]
    --max-batch <N>      largest global batch to explore  [512]
    --restrict <SPACE>   limit the search space: dp-tp | dp-pp
    --objective <OBJ>    time (max throughput on the full cluster) | cost
                         (max throughput per dollar over island-aligned
                         sub-cluster deployments)  [time]
    --recompute <MODE>   off (stash every activation) | on (checkpoint every
                         layer) | auto (per-layer DP decision — the BMW
                         fifth dimension)  [off]
    --partitioner <P>    pipeline stage split: flops | layers | params |
                         activation | balanced (peak-memory-balanced BMW
                         guideline)  [flops]
    --jobs <N>           planner worker threads (0 = all cores)  [0]
    --simulate           execute the plan on the discrete-event simulator
    --explain            per-layer table: chosen strategy, compute/comm/memory
                         split, runner-up strategy and margin
    --trace <FILE>       with --simulate: write a Chrome-trace timeline with
                         the planner's search spans alongside (Perfetto)
    --json <FILE>        write the plan as JSON
    --metrics-out <FILE> write the telemetry registry as Prometheus text
    -h, --help           print this help
";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match arg.as_str() {
            "--model" => opts.model = value("--model")?,
            "--cluster" => opts.cluster = value("--cluster")?,
            "--budget-gb" => {
                let gb: u64 = value("--budget-gb")?
                    .parse()
                    .map_err(|_| "--budget-gb expects an integer".to_string())?;
                // `main` works in bytes: refuse budgets whose byte count
                // does not fit a u64.
                gb.checked_mul(GIB)
                    .ok_or_else(|| format!("--budget-gb {gb} overflows a byte count"))?;
                opts.budget_gb = gb;
            }
            "--max-batch" => {
                opts.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|_| "--max-batch expects an integer".to_string())?
            }
            "--restrict" => opts.restrict = Some(value("--restrict")?),
            "--objective" => {
                opts.objective = match value("--objective")?.as_str() {
                    "time" => Objective::Time,
                    "cost" => Objective::Cost,
                    other => return Err(format!("--objective must be time or cost, got {other}")),
                }
            }
            "--recompute" => {
                let v = value("--recompute")?;
                opts.recompute = RecomputeMode::parse(&v)
                    .ok_or_else(|| format!("--recompute must be off, on or auto, got {v}"))?
            }
            "--partitioner" => {
                opts.partitioner = match value("--partitioner")?.as_str() {
                    "flops" => PipelinePartitioner::ByFlops,
                    "layers" => PipelinePartitioner::ByLayerCount,
                    "params" => PipelinePartitioner::ByParams,
                    "activation" => PipelinePartitioner::ByActivation,
                    "balanced" => PipelinePartitioner::MemoryBalanced,
                    other => {
                        return Err(format!(
                            "--partitioner must be flops, layers, params, activation \
                             or balanced, got {other}"
                        ))
                    }
                }
            }
            "--jobs" => {
                opts.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs expects an integer".to_string())?
            }
            "--simulate" => opts.simulate = true,
            "--explain" => opts.explain = true,
            "--trace" => opts.trace_path = Some(value("--trace")?),
            "--json" => opts.json_path = Some(value("--json")?),
            "--metrics-out" => opts.metrics_path = Some(value("--metrics-out")?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some(r) = &opts.restrict {
        if r != "dp-tp" && r != "dp-pp" {
            return Err(format!("--restrict must be dp-tp or dp-pp, got {r}"));
        }
    }
    Ok(opts)
}

fn model_by_name(name: &str) -> Option<ModelSpec> {
    let paper = match name {
        "bert-huge-32" => Some(PaperModel::BertHuge32),
        "bert-huge-48" => Some(PaperModel::BertHuge48),
        "bert-xhuge" => Some(PaperModel::BertXHuge),
        "vit-huge-32" => Some(PaperModel::VitHuge32),
        "vit-huge-48" => Some(PaperModel::VitHuge48),
        "vit-xhuge" => Some(PaperModel::VitXHuge),
        "t5-large-32" => Some(PaperModel::T5Large32),
        "t5-large-48" => Some(PaperModel::T5Large48),
        "swin-huge-32" => Some(PaperModel::SwinHuge32),
        "swin-huge-48" => Some(PaperModel::SwinHuge48),
        _ => None,
    };
    if let Some(m) = paper {
        return Some(m.spec());
    }
    match name {
        "gpt2-xl" => Some(
            galvatron_model::GptConfig {
                layers: 48,
                hidden: 1600,
                heads: 25,
                seq: 1024,
                vocab: 50257,
            }
            .build("GPT2-XL"),
        ),
        _ => None,
    }
}

fn cluster_by_name(name: &str) -> Option<ClusterTopology> {
    match name {
        "rtx-titan-8" => Some(TestbedPreset::RtxTitan8.topology()),
        "rtx-titan-16" => Some(TestbedPreset::RtxTitan16.topology()),
        "a100-64" => Some(TestbedPreset::A100x64.topology()),
        "a100-rtx-16" => Some(mixed_a100_rtx_cluster(1, 1, 8)),
        _ => None,
    }
}

fn planner_for(opts: &Options) -> ParallelPlanner {
    let mut config = OptimizerConfig {
        max_batch: opts.max_batch,
        sub_step_batches: true,
        recompute: opts.recompute,
        partitioner: opts.partitioner,
        ..OptimizerConfig::default()
    };
    match opts.restrict.as_deref() {
        Some("dp-tp") => {
            config.paradigms = vec![Paradigm::Data, Paradigm::Tensor];
            config.allow_pipeline = false;
            config.origin = "Galvatron (DP+TP)".to_string();
        }
        Some("dp-pp") => {
            config.paradigms = vec![Paradigm::Data];
            config.origin = "Galvatron (DP+PP)".to_string();
        }
        _ => {}
    }
    ParallelPlanner::new(PlannerConfig {
        optimizer: config,
        jobs: opts.jobs,
        prune: true,
        ..PlannerConfig::default()
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };

    let Some(model) = model_by_name(&opts.model) else {
        eprintln!("error: unknown model {:?}\n\n{USAGE}", opts.model);
        return ExitCode::from(2);
    };
    let Some(cluster) = cluster_by_name(&opts.cluster) else {
        eprintln!("error: unknown cluster {:?}\n\n{USAGE}", opts.cluster);
        return ExitCode::from(2);
    };

    println!(
        "model    {} ({:.1}M params, {:.1} MB act/sample)",
        model.name,
        model.total_param_count() as f64 / 1e6,
        model.activation_bytes_per_sample() as f64 / 1e6
    );
    // Homogeneous clusters read "8 × RTX TITAN"; mixed ones spell out the
    // island composition ("A100x8+RTX TITANx8") instead of misattributing
    // every device to the first island's type.
    let cluster_desc = if cluster.is_heterogeneous() {
        galvatron_hetero::topology_mix(&cluster)
    } else {
        format!("{} × {}", cluster.n_devices(), cluster.gpu().name)
    };
    println!(
        "cluster  {} ({} budget: {} GB/device)",
        cluster_desc, opts.cluster, opts.budget_gb
    );

    // One telemetry handle for the whole invocation: the planner's search
    // spans and the simulated timeline end up in one Perfetto file, the
    // metrics registry in one Prometheus snapshot.
    let registry = Arc::new(MetricsRegistry::new());
    let span_sink = Arc::new(ChromeSpanSink::new());
    let obs = Obs::new(registry.clone(), span_sink.clone());

    let planner = planner_for(&opts).with_obs(obs.clone());
    // Under `--objective cost` the plan may land on a sub-cluster
    // deployment; everything downstream (explain, simulate) runs against
    // the topology the plan was actually made for.
    let (outcome, cluster) = match opts.objective {
        Objective::Time => match planner.optimize(&model, &cluster, opts.budget_gb * GIB) {
            Ok(Some(outcome)) => (outcome, cluster),
            Ok(None) => {
                eprintln!(
                    "no feasible plan: even the smallest batch exceeds {} GB/device",
                    opts.budget_gb
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("planning failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        Objective::Cost => {
            let hetero =
                HeteroPlanner::new(planner.config().optimizer.clone()).with_obs(obs.clone());
            match hetero.plan(&model, &cluster, opts.budget_gb * GIB, Objective::Cost) {
                Ok(Some(h)) => {
                    println!(
                        "deployment  {} ({} devices, ${:.2}/h, {:.0} samples/$)",
                        h.mix, h.n_devices, h.price_per_hour, h.samples_per_dollar
                    );
                    let deployed = enumerate_deployments(&cluster)
                        .into_iter()
                        .find(|d| d.first_island == h.first_island && d.n_islands == h.n_islands)
                        .map(|d| d.topology)
                        .unwrap_or(cluster);
                    (h.outcome, deployed)
                }
                Ok(None) => {
                    eprintln!(
                        "no feasible plan on any deployment: even the smallest batch \
                         exceeds {} GB/device",
                        opts.budget_gb
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("planning failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    println!(
        "\nestimated  {:.2} samples/s  ({:.1} ms/iteration)",
        outcome.throughput_samples_per_sec,
        outcome.iteration_time * 1e3
    );
    println!(
        "search     {} batch sizes, {} DP runs, {:.0} ms ({} workers)",
        outcome.stats.batches_explored,
        outcome.stats.dp_invocations,
        outcome.stats.search_seconds * 1e3,
        planner.effective_jobs()
    );
    println!(
        "           {} candidates evaluated ({:.0} ms DP time, slowest {:.1} ms), {} pruned",
        outcome.stats.candidate_seconds.len(),
        outcome.stats.dp_seconds * 1e3,
        outcome.stats.max_candidate_seconds() * 1e3,
        outcome.stats.pruned_candidates,
    );
    println!("\n{}", outcome.plan.summary());

    if opts.explain {
        let estimator = CostEstimator::new(
            cluster.clone(),
            planner.config().optimizer.estimator.clone(),
        );
        match explain_plan(
            &estimator,
            &model,
            &outcome.plan,
            &planner.config().optimizer,
        ) {
            Ok(explanation) => println!("\n{}", explanation.render()),
            Err(e) => {
                eprintln!("could not explain the plan: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &opts.json_path {
        match serde_json::to_string_pretty(&outcome.plan) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("could not write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("plan written to {path}");
            }
            Err(e) => eprintln!("could not serialise plan: {e}"),
        }
    }

    if opts.simulate {
        let sim = Simulator::new(
            cluster.clone(),
            SimulatorConfig::default().with_budget(opts.budget_gb * GIB),
        )
        .with_obs(obs.clone());
        match sim.execute_traced(&model, &outcome.plan) {
            Ok((report, trace)) => {
                println!(
                    "simulated  {:.2} samples/s  (peak {:.2} GB/device{})",
                    report.throughput,
                    report.peak_memory() as f64 / GIB as f64,
                    if report.oom { ", OOM!" } else { "" }
                );
                if let Some(path) = &opts.trace_path {
                    // One Perfetto file: the simulated timeline as process
                    // 0, the planner's search spans as process 1.
                    let mut writer = ChromeTraceWriter::new();
                    galvatron_sim::write_trace_metadata(
                        &mut writer,
                        &trace,
                        0,
                        &format!(
                            "simulated iteration: {}",
                            outcome.plan.summary().lines().next().unwrap_or_default()
                        ),
                    );
                    galvatron_sim::write_trace_events(&mut writer, &trace, 0);
                    writer.process_name(1, "planner search");
                    write_spans(&mut writer, 1, 0, &span_sink.records());
                    if let Err(e) = std::fs::write(path, writer.finish()) {
                        eprintln!("could not write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("timeline written to {path} (open in chrome://tracing)");
                }
            }
            Err(e) => {
                eprintln!("simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &opts.metrics_path {
        if let Err(e) = std::fs::write(path, registry.snapshot().to_prometheus()) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn defaults_apply() {
        let opts = parse_args(&[]).unwrap();
        assert_eq!(opts, Options::default());
    }

    #[test]
    fn full_argument_set_parses() {
        let opts = parse_args(&argv(
            "--model vit-huge-32 --cluster a100-64 --budget-gb 8 --max-batch 64 \
             --restrict dp-tp --recompute auto --partitioner balanced --simulate \
             --explain --trace t.json --json p.json --metrics-out m.prom",
        ))
        .unwrap();
        assert_eq!(opts.model, "vit-huge-32");
        assert_eq!(opts.cluster, "a100-64");
        assert_eq!(opts.budget_gb, 8);
        assert_eq!(opts.max_batch, 64);
        assert_eq!(opts.restrict.as_deref(), Some("dp-tp"));
        assert_eq!(opts.recompute, RecomputeMode::Auto);
        assert_eq!(opts.partitioner, PipelinePartitioner::MemoryBalanced);
        assert!(opts.simulate);
        assert!(opts.explain);
        assert_eq!(opts.trace_path.as_deref(), Some("t.json"));
        assert_eq!(opts.json_path.as_deref(), Some("p.json"));
        assert_eq!(opts.metrics_path.as_deref(), Some("m.prom"));
    }

    #[test]
    fn bad_arguments_error() {
        assert!(parse_args(&argv("--budget-gb nope")).is_err());
        assert!(parse_args(&argv("--mystery")).is_err());
        assert!(parse_args(&argv("--restrict everything")).is_err());
        assert!(parse_args(&argv("--model")).is_err());
        assert!(parse_args(&argv("--metrics-out")).is_err());
        assert!(parse_args(&argv("--recompute sometimes")).is_err());
        assert!(parse_args(&argv("--partitioner vibes")).is_err());
    }

    #[test]
    fn budget_whose_byte_count_overflows_is_rejected() {
        let largest = u64::MAX / GIB;
        assert_eq!(
            parse_args(&argv(&format!("--budget-gb {largest}")))
                .unwrap()
                .budget_gb,
            largest
        );
        let err = parse_args(&argv(&format!("--budget-gb {}", largest + 1))).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn bmw_flags_configure_the_optimizer() {
        // The defaults stay bit-identical to the historical planner.
        let opts = parse_args(&[]).unwrap();
        assert_eq!(opts.recompute, RecomputeMode::Off);
        assert_eq!(opts.partitioner, PipelinePartitioner::ByFlops);
        let planner = planner_for(&opts);
        assert_eq!(planner.config().optimizer.recompute, RecomputeMode::Off);

        let opts = parse_args(&argv("--recompute on --partitioner params")).unwrap();
        let planner = planner_for(&opts);
        assert_eq!(planner.config().optimizer.recompute, RecomputeMode::On);
        assert_eq!(
            planner.config().optimizer.partitioner,
            PipelinePartitioner::ByParams
        );

        let opts = parse_args(&argv("--recompute auto --partitioner balanced")).unwrap();
        let planner = planner_for(&opts);
        assert_eq!(planner.config().optimizer.recompute, RecomputeMode::Auto);
        assert_eq!(
            planner.config().optimizer.partitioner,
            PipelinePartitioner::MemoryBalanced
        );
    }

    #[test]
    fn model_and_cluster_lookups() {
        assert!(model_by_name("swin-huge-48").is_some());
        assert!(model_by_name("gpt2-xl").is_some());
        assert!(model_by_name("resnet").is_none());
        assert!(cluster_by_name("rtx-titan-16").is_some());
        assert!(cluster_by_name("tpu-pod").is_none());
        let mixed = cluster_by_name("a100-rtx-16").unwrap();
        assert!(mixed.is_heterogeneous());
        assert_eq!(mixed.n_devices(), 16);
        assert!(mixed.price_per_hour() > 0.0);
    }

    #[test]
    fn objective_flag_parses_and_rejects_nonsense() {
        assert_eq!(parse_args(&[]).unwrap().objective, Objective::Time);
        assert_eq!(
            parse_args(&argv("--objective cost")).unwrap().objective,
            Objective::Cost
        );
        assert_eq!(
            parse_args(&argv("--objective time")).unwrap().objective,
            Objective::Time
        );
        assert!(parse_args(&argv("--objective cheapest")).is_err());
        assert!(parse_args(&argv("--objective")).is_err());
    }

    #[test]
    fn restriction_configures_the_optimizer() {
        let opts = parse_args(&argv("--restrict dp-pp")).unwrap();
        let planner = planner_for(&opts);
        assert_eq!(planner.config().optimizer.paradigms, vec![Paradigm::Data]);
        assert!(planner.config().optimizer.allow_pipeline);
        let opts = parse_args(&argv("--restrict dp-tp")).unwrap();
        let planner = planner_for(&opts);
        assert!(!planner.config().optimizer.allow_pipeline);
    }

    #[test]
    fn jobs_flag_parses_and_defaults_to_all_cores() {
        let opts = parse_args(&argv("--jobs 4")).unwrap();
        assert_eq!(opts.jobs, 4);
        assert_eq!(planner_for(&opts).effective_jobs(), 4);
        let opts = parse_args(&[]).unwrap();
        assert_eq!(opts.jobs, 0);
        assert!(planner_for(&opts).effective_jobs() >= 1);
    }
}
