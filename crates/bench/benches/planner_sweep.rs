//! The incremental-DP sweep benchmark: Algorithm 1's Table-1 study (the
//! paper's 8-GPU testbed, every Table-1 model × the 8/12/16/20 GB budget
//! grid) planned three ways —
//!
//! * `serial` — the serial [`GalvatronOptimizer`], one independent search
//!   per point (the pre-incremental baseline);
//! * `incremental-cold` — the same sweep through the production stack
//!   (planner + arena DP + shared [`DpCache`] + shared
//!   [`IncrementalEngine`]), starting from empty reuse structures;
//! * `incremental-warm` — the same sweep again against the now-warm
//!   structures, i.e. what a plan service or an elastic re-planner pays for
//!   a repeated study.
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
//! An ablation lane measures what each reuse layer earns: the cold sweep,
//! the warm sweep and the scale point are re-run with exactly one planner
//! knob off — `use_cache` (the stage-DP memo cache), `incremental` (the
//! kernel intern table and feasibility ledger) or `prune` (the
//! throughput-bound gate) — as rows suffixed `/no-cache`, `/no-intern` and
//! `/no-prune`, each held to the same bit-identity check.
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
//! [`COLD_SPEEDUP_FLOOR`], when the scale point drops below
//! [`SCALE_COLD_SPEEDUP_FLOOR`], or when the warm sweep drops below
//! [`WARM_SPEEDUP_FLOOR`]. The measurement deliberately does not rely on
//! multi-core work stealing (`jobs = 1`).

use galvatron_bench::paper::{scale_point_model, SCALE_POINT_LAYERS};
use galvatron_cluster::{ClusterTopology, TestbedPreset, GIB, MIB};
use galvatron_core::{
    GalvatronOptimizer, IncrementalEngine, OptimizeOutcome, OptimizerConfig, PipelinePartitioner,
    RecomputeMode,
};
use galvatron_model::{GptConfig, ModelSpec, PaperModel};
use galvatron_planner::{DpCache, ParallelPlanner, PlannerConfig};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

const BUDGETS_GIB: [u64; 4] = [8, 12, 16, 20];
/// The warm pass must beat serial by at least this factor.
const WARM_SPEEDUP_FLOOR: f64 = 1.5;
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
const WARM_REPS: usize = 3;
const ABLATION_REPS: usize = 3;

/// The production planner (every reuse layer on) and the three ablations,
/// each with exactly one layer off: `(row suffix, use_cache, incremental,
/// prune)`.
const VARIANTS: [(&str, bool, bool, bool); 4] = [
    ("", true, true, true),
    ("/no-cache", false, true, true),
    ("/no-intern", true, false, true),
    ("/no-prune", true, true, false),
];

fn config() -> OptimizerConfig {
    // max_batch 32 keeps the smoke sweep quick; the reuse structure is the
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

fn planner(
    optimizer: OptimizerConfig,
    use_cache: bool,
    incremental: bool,
    prune: bool,
) -> ParallelPlanner {
    ParallelPlanner::new(PlannerConfig {
        optimizer,
        jobs: 1,
        use_cache,
        prune,
        incremental,
        cache_max_entries: None,
        intern_max_entries: None,
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

    /// One timed planner pass against `reuse`, checked point by point
    /// against the serial `baseline`.
    fn pass(
        &self,
        planner: &ParallelPlanner,
        reuse: &Reuse,
        baseline: &[Option<OptimizeOutcome>],
        what: &str,
    ) -> (f64, Vec<Option<OptimizeOutcome>>) {
        let started = Instant::now();
        let outcomes: Vec<Option<OptimizeOutcome>> = self
            .points
            .iter()
            .map(|(_, spec, budget)| {
                planner
                    .optimize_with_reuse(
                        spec,
                        &self.topology,
                        budget * GIB,
                        reuse.0.as_ref(),
                        reuse.1.as_ref(),
                    )
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

/// The reuse structures one planner variant searches against.
type Reuse = (Option<DpCache>, Option<IncrementalEngine>);

fn fresh_reuse(use_cache: bool, incremental: bool) -> Reuse {
    (
        use_cache.then(DpCache::new),
        incremental.then(IncrementalEngine::new),
    )
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
            "{what}: feasibility diverged (serial {}, incremental {})",
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
    cache_hits: usize,
    cache_misses: usize,
    intern_hits: usize,
    intern_misses: usize,
    ledger_hits: usize,
    arena_solves: usize,
    dominated_pruned: usize,
    minplus_pairs: usize,
    minplus_pairs_dense: usize,
    pruned_candidates: usize,
}

impl SweepRow {
    /// A row whose reuse counters sum the `SearchStats` of one pass's
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
            row.cache_hits += stats.cache_hits;
            row.cache_misses += stats.cache_misses;
            row.intern_hits += stats.intern_hits;
            row.intern_misses += stats.intern_misses;
            row.ledger_hits += stats.ledger_hits;
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
/// the production planner with fresh reuse structures per repetition.
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
    let planner = planner(config, true, true, true);
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
    speedup_floor: f64,
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

/// The cold row of `study` for one planner variant (fresh reuse structures
/// per repetition, min-of-N) and, when `warm_name` is set, the warm row
/// against the last cold repetition's structures.
fn variant_rows(
    study: &Study,
    baseline: &[Option<OptimizeOutcome>],
    serial_seconds: f64,
    (suffix, use_cache, incremental, prune): (&str, bool, bool, bool),
    cold_name: &str,
    warm_name: Option<&str>,
    rows: &mut Vec<SweepRow>,
) {
    let planner = planner(study.config.clone(), use_cache, incremental, prune);
    let cold_name = format!("{cold_name}{suffix}");
    let mut cold = (f64::INFINITY, Vec::new());
    let mut reuse = None;
    for _ in 0..COLD_REPS {
        let fresh = fresh_reuse(use_cache, incremental);
        let (seconds, outcomes) = study.pass(&planner, &fresh, baseline, &cold_name);
        cold.0 = cold.0.min(seconds);
        cold.1 = outcomes;
        reuse = Some(fresh);
    }
    let reuse = reuse.expect("cold repetitions ran");
    rows.push(SweepRow::new(
        cold_name,
        cold.0,
        serial_seconds,
        COLD_REPS,
        &cold.1,
    ));
    let Some(warm_name) = warm_name else {
        return;
    };
    let warm_name = format!("{warm_name}{suffix}");
    let mut warm = (f64::INFINITY, Vec::new());
    for rep in 0..WARM_REPS {
        let (seconds, outcomes) = study.pass(&planner, &reuse, baseline, &warm_name);
        warm.0 = warm.0.min(seconds);
        if rep == 0 {
            warm.1 = outcomes;
        }
    }
    rows.push(SweepRow::new(
        warm_name,
        warm.0,
        serial_seconds,
        WARM_REPS,
        &warm.1,
    ));
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
    // The serial optimizer reports no reuse counters, so its rows hold
    // zeros there.
    let mut rows = vec![SweepRow::new(
        "serial".to_string(),
        serial_secs,
        serial_secs,
        SERIAL_REPS,
        &baseline,
    )];
    for variant in VARIANTS {
        variant_rows(
            &table1,
            &baseline,
            serial_secs,
            variant,
            "incremental-cold",
            Some("incremental-warm"),
            &mut rows,
        );
    }
    rows.push(SweepRow::new(
        "serial-64gpu-100l".to_string(),
        scale_serial_secs,
        scale_serial_secs,
        SERIAL_REPS,
        &scale_baseline,
    ));
    for variant in VARIANTS {
        variant_rows(
            &scale,
            &scale_baseline,
            scale_serial_secs,
            variant,
            "arena-cold-64gpu-100l",
            None,
            &mut rows,
        );
    }

    rows.push(SweepRow::new(
        "serial-bmw".to_string(),
        bmw_serial_secs,
        bmw_serial_secs,
        SERIAL_REPS,
        &bmw_baseline,
    ));
    variant_rows(
        &bmw,
        &bmw_baseline,
        bmw_serial_secs,
        VARIANTS[0],
        "bmw-cold",
        None,
        &mut rows,
    );

    // Table-4 spot check: the 64-GPU A100 path must agree with the serial
    // optimizer through the incremental stack too (equality only — the
    // timing study is above).
    let serial = GalvatronOptimizer::new(config());
    let spot = planner(config(), true, true, true);
    let reuse = fresh_reuse(true, true);
    for model in galvatron_bench::paper::TABLE4_MODELS {
        let spec = model.spec();
        let reference = serial
            .optimize(&spec, &scale.topology, 16 * GIB)
            .expect("well-formed");
        let candidate = spot
            .optimize_with_reuse(
                &spec,
                &scale.topology,
                16 * GIB,
                reuse.0.as_ref(),
                reuse.1.as_ref(),
            )
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
            "  {:<32} {:.3}s  ({:.2}x; cache {}h/{}m, intern {}h/{}m, {} ledger hits, \
             {} arena solves, {} dominated, {}/{} min-plus pairs, {} pruned)",
            row.configuration,
            row.seconds,
            row.speedup_vs_serial,
            row.cache_hits,
            row.cache_misses,
            row.intern_hits,
            row.intern_misses,
            row.ledger_hits,
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
        speedup_floor: WARM_SPEEDUP_FLOOR,
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
    let cold = row("incremental-cold");
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
    let warm = row("incremental-warm");
    assert!(
        warm.speedup_vs_serial >= WARM_SPEEDUP_FLOOR,
        "warm incremental sweep must be ≥{WARM_SPEEDUP_FLOOR}× the serial baseline, \
         measured {:.2}×",
        warm.speedup_vs_serial
    );
}

fn main() {
    run_table1_sweep();
}
