//! The planner sweep benchmark: Algorithm 1's Table-1 study (the paper's
//! 8-GPU testbed, every Table-1 model × the 8/12/16/20 GB budget grid)
//! planned two ways —
//!
//! * `serial` — the serial [`GalvatronOptimizer`], one independent search
//!   per point (the reference baseline);
//! * `planner-cold` — the same sweep through the production stack
//!   (planner + arena DP + bound pruning), one fresh search per point.
//!
//! A second, single-point scaling study plans the 100-layer BERT stack on
//! the Table-4 A100×64 testbed (`serial-64gpu-100l` vs
//! `arena-cold-64gpu-100l`) to pin cold-path behaviour at depth and scale,
//! and a BMW study (`serial-bmw` vs `bmw-cold`) plans GPT2-XL-1.5B @ 8 GiB
//! and BERT-Huge-48 @ 7 GiB with per-layer recompute (`RecomputeMode::Auto`)
//! and memory-balanced stages — the doubled decision space where the
//! arena's row-delta min-plus saves the most. Every row records the
//! min-plus pairs the arena folded next to the pairs a dense per-row scan
//! would have visited (`minplus_pairs` / `minplus_pairs_dense`).
//!
//! An ablation lane measures what bound pruning earns: the cold sweep and
//! the scale point are re-run with `prune` (the throughput-bound gate) off,
//! as rows suffixed `/no-prune`, each held to the same bit-identity check.
//!
//! A second ablation lane prices two of the paper's search knobs on one
//! point each through the production planner (`jobs = 1`): Takeaway #3
//! pruning on and off (Swin-Huge-32 @ 12 GiB, 22 vs 34 candidate
//! strategies) and the §3.3 DP memory granularity at 8/16/64/256 MiB
//! (BERT-Huge-32 @ 16 GiB). Each row records its min-of-N seconds, the
//! winner's throughput and the arena solves; no floor applies.
//!
//! Every point's plan is asserted byte-identical to the serial baseline
//! (the bench *fails* on divergence — this is the CI gate `scripts/check.sh`
//! relies on), a Table-4 spot check pins the 64-GPU path too, and the
//! timings land in `BENCH_planner_sweep.json` at the workspace root. Each
//! pass is timed as a min-of-N (the robust estimator on a shared host) and
//! the run *fails* — not warns — when the cold sweep drops below
//! [`COLD_SPEEDUP_FLOOR`] or when the scale point drops below
//! [`SCALE_COLD_SPEEDUP_FLOOR`]. The measurement deliberately does not rely on
//! multi-core workers (`jobs = 1`: one scoped worker thread).

use galvatron_bench::paper::{scale_point_model, SCALE_POINT_LAYERS};
use galvatron_cluster::{ClusterTopology, TestbedPreset, GIB, MIB};
use galvatron_core::{
    GalvatronOptimizer, OptimizeOutcome, OptimizerConfig, PipelinePartitioner, RecomputeMode,
};
use galvatron_model::{GptConfig, ModelSpec, PaperModel};
use galvatron_planner::{ParallelPlanner, PlannerConfig};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

const BUDGETS_GIB: [u64; 4] = [8, 12, 16, 20];
/// The cold pass must beat serial by at least this factor. This is the
/// arena-DP rebuild's acceptance bar: dropping below it fails the bench.
const COLD_SPEEDUP_FLOOR: f64 = 10.0;
/// The 64-GPU/100-layer cold scale point must beat its serial baseline by
/// at least this factor.
const SCALE_COLD_SPEEDUP_FLOOR: f64 = 5.0;
/// Min-of-N repetitions per timed pass (minimum is the robust location
/// estimator under one-sided scheduler noise on a shared host).
const SERIAL_REPS: usize = 2;
const COLD_REPS: usize = 3;
const ABLATION_REPS: usize = 3;

/// The production planner and its ablation with bound pruning off:
/// `(row suffix, prune)`.
const VARIANTS: [(&str, bool); 2] = [("", true), ("/no-prune", false)];

fn config() -> OptimizerConfig {
    // max_batch 32 keeps the smoke sweep quick; the search structure is the
    // same at the paper's 512 cap, just with more batch points.
    OptimizerConfig {
        max_batch: 32,
        ..OptimizerConfig::default()
    }
}

/// The BMW study's search: the DP picks recompute per layer and stages are
/// cut by memory.
fn bmw_config() -> OptimizerConfig {
    OptimizerConfig {
        recompute: RecomputeMode::Auto,
        partitioner: PipelinePartitioner::MemoryBalanced,
        ..config()
    }
}

fn planner(optimizer: OptimizerConfig, prune: bool) -> ParallelPlanner {
    ParallelPlanner::new(PlannerConfig {
        optimizer,
        jobs: 1,
        prune,
        ..PlannerConfig::default()
    })
}

/// One study: a search configuration, a testbed and its `(label, model,
/// budget GiB)` points, in study order.
struct Study {
    config: OptimizerConfig,
    topology: ClusterTopology,
    points: Vec<(String, ModelSpec, u64)>,
}

impl Study {
    /// Plan every point with the serial optimizer; returns the min-of-N
    /// seconds and the first repetition's outcomes.
    fn serial(&self) -> (f64, Vec<Option<OptimizeOutcome>>) {
        let serial = GalvatronOptimizer::new(self.config.clone());
        let mut best = f64::INFINITY;
        let mut baseline = Vec::new();
        for rep in 0..SERIAL_REPS {
            let started = Instant::now();
            let outcomes: Vec<Option<OptimizeOutcome>> = self
                .points
                .iter()
                .map(|(_, spec, budget)| {
                    serial
                        .optimize(spec, &self.topology, budget * GIB)
                        .expect("well-formed testbed")
                })
                .collect();
            best = best.min(started.elapsed().as_secs_f64());
            if rep == 0 {
                baseline = outcomes;
            }
        }
        (best, baseline)
    }

    /// One timed planner pass, checked point by point against the serial
    /// `baseline`.
    fn pass(
        &self,
        planner: &ParallelPlanner,
        baseline: &[Option<OptimizeOutcome>],
        what: &str,
    ) -> (f64, Vec<Option<OptimizeOutcome>>) {
        let started = Instant::now();
        let outcomes: Vec<Option<OptimizeOutcome>> = self
            .points
            .iter()
            .map(|(_, spec, budget)| {
                planner
                    .optimize(spec, &self.topology, budget * GIB)
                    .expect("well-formed testbed")
            })
            .collect();
        let seconds = started.elapsed().as_secs_f64();
        for ((label, _, budget), (outcome, reference)) in
            self.points.iter().zip(outcomes.iter().zip(baseline))
        {
            assert_same(reference, outcome, &format!("{what}: {label} @ {budget}G"));
        }
        (seconds, outcomes)
    }
}

fn assert_same(
    baseline: &Option<OptimizeOutcome>,
    candidate: &Option<OptimizeOutcome>,
    what: &str,
) {
    match (baseline, candidate) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.plan, b.plan, "{what}: plan diverged from serial");
            assert_eq!(
                a.throughput_samples_per_sec.to_bits(),
                b.throughput_samples_per_sec.to_bits(),
                "{what}: throughput diverged from serial"
            );
            assert_eq!(
                a.iteration_time.to_bits(),
                b.iteration_time.to_bits(),
                "{what}: iteration time diverged from serial"
            );
        }
        (a, b) => panic!(
            "{what}: feasibility diverged (serial {}, planner {})",
            a.is_some(),
            b.is_some()
        ),
    }
}

#[derive(Debug, Default, Serialize)]
struct SweepRow {
    configuration: String,
    seconds: f64,
    speedup_vs_serial: f64,
    reps: usize,
    points: usize,
    feasible_points: usize,
    arena_solves: usize,
    dominated_pruned: usize,
    minplus_pairs: usize,
    minplus_pairs_dense: usize,
    pruned_candidates: usize,
}

impl SweepRow {
    /// A row whose search counters sum the `SearchStats` of one pass's
    /// outcomes (every point of every study is feasible, so no search's
    /// counters are lost with a `None`).
    fn new(
        configuration: String,
        seconds: f64,
        serial_seconds: f64,
        reps: usize,
        outcomes: &[Option<OptimizeOutcome>],
    ) -> SweepRow {
        let mut row = SweepRow {
            configuration,
            seconds,
            speedup_vs_serial: serial_seconds / seconds,
            reps,
            points: outcomes.len(),
            ..SweepRow::default()
        };
        for stats in outcomes.iter().flatten().map(|o| &o.stats) {
            row.feasible_points += 1;
            row.arena_solves += stats.arena_solves;
            row.dominated_pruned += stats.dominated_pruned;
            row.minplus_pairs += stats.minplus_pairs;
            row.minplus_pairs_dense += stats.minplus_pairs_dense;
            row.pruned_candidates += stats.pruned_candidates;
        }
        row
    }
}

/// One knob setting of the ablation lane: a single point planned through
/// the production planner.
#[derive(Debug, Serialize)]
struct AblationRow {
    configuration: String,
    point: String,
    seconds: f64,
    reps: usize,
    /// Candidate strategies summed over the PP degrees (Figure 2's
    /// 22 pruned vs 34 raw on 8 GPUs).
    strategies: usize,
    throughput_samples_per_sec: f64,
    arena_solves: usize,
}

fn ablation_row(
    configuration: String,
    config: OptimizerConfig,
    topology: &ClusterTopology,
    model: &ModelSpec,
    budget_gib: u64,
) -> AblationRow {
    let planner = planner(config, true);
    let mut seconds = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..ABLATION_REPS {
        let started = Instant::now();
        outcome = planner
            .optimize(model, topology, budget_gib * GIB)
            .expect("well-formed testbed");
        seconds = seconds.min(started.elapsed().as_secs_f64());
    }
    let outcome = outcome.unwrap_or_else(|| panic!("{configuration}: point is infeasible"));
    AblationRow {
        configuration,
        point: format!("{} @ {budget_gib} GiB", model.name),
        seconds,
        reps: ABLATION_REPS,
        strategies: outcome
            .stats
            .strategy_set_sizes
            .iter()
            .map(|&(_, n)| n)
            .sum(),
        throughput_samples_per_sec: outcome.throughput_samples_per_sec,
        arena_solves: outcome.stats.arena_solves,
    }
}

/// Takeaway #3 pruning on/off, then the DP memory granularity sweep.
fn ablation_rows(topology: &ClusterTopology) -> Vec<AblationRow> {
    let swin = PaperModel::SwinHuge32.spec();
    let bert = PaperModel::BertHuge32.spec();
    let mut rows = Vec::new();
    for takeaway3 in [true, false] {
        let config = OptimizerConfig {
            takeaway3,
            ..config()
        };
        let name = format!("ablation/takeaway3={takeaway3}");
        rows.push(ablation_row(name, config, topology, &swin, 12));
    }
    for mib in [8u64, 16, 64, 256] {
        let config = OptimizerConfig {
            memory_granularity: mib * MIB,
            ..config()
        };
        let name = format!("ablation/granularity={mib}MiB");
        rows.push(ablation_row(name, config, topology, &bert, 16));
    }
    rows
}

#[derive(Debug, Serialize)]
struct SweepReport {
    testbed: String,
    models: Vec<String>,
    budgets_gib: Vec<u64>,
    max_batch: usize,
    cold_speedup_floor: f64,
    scale_testbed: String,
    scale_model: String,
    scale_layers: usize,
    scale_cold_speedup_floor: f64,
    bmw_points: Vec<String>,
    rows: Vec<SweepRow>,
    ablations: Vec<AblationRow>,
}

/// Find the workspace root (the directory whose Cargo.toml declares the
/// workspace) so the artifact lands at a stable path regardless of where
/// cargo runs the bench from.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            let text = std::fs::read_to_string(&manifest).unwrap_or_default();
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return std::env::current_dir().expect("cwd");
        }
    }
}

/// The cold row of `study` for one planner variant (min-of-N).
fn variant_row(
    study: &Study,
    baseline: &[Option<OptimizeOutcome>],
    serial_seconds: f64,
    (suffix, prune): (&str, bool),
    name: &str,
) -> SweepRow {
    let planner = planner(study.config.clone(), prune);
    let name = format!("{name}{suffix}");
    let mut cold = (f64::INFINITY, Vec::new());
    for _ in 0..COLD_REPS {
        let (seconds, outcomes) = study.pass(&planner, baseline, &name);
        cold.0 = cold.0.min(seconds);
        cold.1 = outcomes;
    }
    SweepRow::new(name, cold.0, serial_seconds, COLD_REPS, &cold.1)
}

fn run_table1_sweep() {
    let table1 = Study {
        config: config(),
        topology: TestbedPreset::RtxTitan8.topology(),
        points: BUDGETS_GIB
            .iter()
            .flat_map(|&budget| {
                PaperModel::TABLE1
                    .iter()
                    .map(move |m| (m.name().to_string(), m.spec(), budget))
            })
            .collect(),
    };
    let scale_model = scale_point_model();
    let scale = Study {
        config: config(),
        topology: TestbedPreset::A100x64.topology(),
        points: vec![(scale_model.name.clone(), scale_model.clone(), 16)],
    };

    let bmw = Study {
        config: bmw_config(),
        topology: TestbedPreset::RtxTitan8.topology(),
        points: [
            (GptConfig::gpt2_1_5b().build("GPT2-XL-1.5B"), 8),
            (PaperModel::BertHuge48.spec(), 7),
        ]
        .into_iter()
        .map(|(spec, budget)| (spec.name.clone(), spec, budget))
        .collect(),
    };

    let (serial_secs, baseline) = table1.serial();
    let (scale_serial_secs, scale_baseline) = scale.serial();
    let (bmw_serial_secs, bmw_baseline) = bmw.serial();
    // The serial optimizer reports no arena or pruning counters, so its
    // rows hold zeros there.
    let mut rows = vec![SweepRow::new(
        "serial".to_string(),
        serial_secs,
        serial_secs,
        SERIAL_REPS,
        &baseline,
    )];
    for variant in VARIANTS {
        rows.push(variant_row(
            &table1,
            &baseline,
            serial_secs,
            variant,
            "planner-cold",
        ));
    }
    rows.push(SweepRow::new(
        "serial-64gpu-100l".to_string(),
        scale_serial_secs,
        scale_serial_secs,
        SERIAL_REPS,
        &scale_baseline,
    ));
    for variant in VARIANTS {
        rows.push(variant_row(
            &scale,
            &scale_baseline,
            scale_serial_secs,
            variant,
            "arena-cold-64gpu-100l",
        ));
    }

    rows.push(SweepRow::new(
        "serial-bmw".to_string(),
        bmw_serial_secs,
        bmw_serial_secs,
        SERIAL_REPS,
        &bmw_baseline,
    ));
    rows.push(variant_row(
        &bmw,
        &bmw_baseline,
        bmw_serial_secs,
        VARIANTS[0],
        "bmw-cold",
    ));

    // Table-4 spot check: the 64-GPU A100 path must agree with the serial
    // optimizer through the production stack too (equality only — the
    // timing study is above).
    let serial = GalvatronOptimizer::new(config());
    let spot = planner(config(), true);
    for model in galvatron_bench::paper::TABLE4_MODELS {
        let spec = model.spec();
        let reference = serial
            .optimize(&spec, &scale.topology, 16 * GIB)
            .expect("well-formed");
        let candidate = spot
            .optimize(&spec, &scale.topology, 16 * GIB)
            .expect("well-formed");
        assert_same(
            &reference,
            &candidate,
            &format!("table4: {} @ 16G", model.name()),
        );
    }

    let ablations = ablation_rows(&table1.topology);

    println!(
        "\nplanner_sweep: Table-1 study ({} points, serial {serial_secs:.3}s) + \
         64-GPU/{SCALE_POINT_LAYERS}-layer scale point (serial {scale_serial_secs:.3}s) + \
         BMW study (serial {bmw_serial_secs:.3}s)",
        table1.points.len()
    );
    for row in &rows {
        println!(
            "  {:<32} {:.3}s  ({:.2}x; {} arena solves, {} dominated, \
             {}/{} min-plus pairs, {} pruned)",
            row.configuration,
            row.seconds,
            row.speedup_vs_serial,
            row.arena_solves,
            row.dominated_pruned,
            row.minplus_pairs,
            row.minplus_pairs_dense,
            row.pruned_candidates,
        );
    }
    for row in &ablations {
        println!(
            "  {:<32} {:.3}s  ({}; {} strategies, {:.2} samples/s, {} arena solves)",
            row.configuration,
            row.seconds,
            row.point,
            row.strategies,
            row.throughput_samples_per_sec,
            row.arena_solves,
        );
    }

    let report = SweepReport {
        testbed: "rtx-titan-8".to_string(),
        models: PaperModel::TABLE1
            .iter()
            .map(|m| m.name().to_string())
            .collect(),
        budgets_gib: BUDGETS_GIB.to_vec(),
        max_batch: config().max_batch,
        cold_speedup_floor: COLD_SPEEDUP_FLOOR,
        scale_testbed: "a100-64".to_string(),
        scale_model: scale_model.name.clone(),
        scale_layers: SCALE_POINT_LAYERS,
        scale_cold_speedup_floor: SCALE_COLD_SPEEDUP_FLOOR,
        bmw_points: bmw
            .points
            .iter()
            .map(|(label, _, budget)| format!("{label} @ {budget} GiB"))
            .collect(),
        rows,
        ablations,
    };
    let path = workspace_root().join("BENCH_planner_sweep.json");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json + "\n").expect("write BENCH_planner_sweep.json");
    eprintln!("wrote {}", path.display());

    let row = |name: &str| {
        report
            .rows
            .iter()
            .find(|r| r.configuration == name)
            .unwrap_or_else(|| panic!("{name} row recorded"))
    };
    let cold = row("planner-cold");
    assert!(
        cold.speedup_vs_serial >= COLD_SPEEDUP_FLOOR,
        "cold sweep must be ≥{COLD_SPEEDUP_FLOOR}× the serial baseline, \
         measured {:.2}×",
        cold.speedup_vs_serial
    );
    let scale = row("arena-cold-64gpu-100l");
    assert!(
        scale.speedup_vs_serial >= SCALE_COLD_SPEEDUP_FLOOR,
        "64-GPU/{SCALE_POINT_LAYERS}-layer cold point must be \
         ≥{SCALE_COLD_SPEEDUP_FLOOR}× its serial baseline, measured {:.2}×",
        scale.speedup_vs_serial
    );
}

fn main() {
    run_table1_sweep();
}
