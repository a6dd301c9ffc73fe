//! The benchmark harness: regenerates every table and figure of the paper.
//!
//! Binaries (`cargo run -p galvatron-bench --release --bin <name>`):
//!
//! * `table1` — 8-GPU end-to-end comparison (4 memory budgets × 8 models ×
//!   8 strategies),
//! * `table2` — model statistics,
//! * `table3` — 16-GPU comparison, `table4` — 64-GPU comparison,
//! * `fig3`  — estimation error with/without overlap-slowdown modeling,
//! * `fig4`  — search-time scaling (layers × memory; strategy-space size),
//! * `fig5`  — the optimal plans for BERT-Huge-32 / Swin-Huge-32 at
//!   8 GB / 12 GB,
//! * `galvatron-elastic` — the elastic recovery sweep: fault scenarios
//!   (device loss / straggler / link degradation) over the zoo, with the
//!   kill-2-devices acceptance demo (`--trace-out` dumps a Chrome trace).
//!
//! Each binary prints the table and writes machine-readable JSON under
//! `results/`. Where the paper reports numbers, [`paper`] embeds them so
//! the binaries can print paper-vs-measured agreement statistics
//! (EXPERIMENTS.md is generated from these).
//!
//! `table1`/`table3`/`table4`/`fig4`/`galvatron-elastic` additionally take
//! `--metrics-out PATH` to dump the run's telemetry-registry snapshot
//! (planner DP-cell counts, arena solves, prune counts, …) as JSON; the
//! elastic binary writes the deterministic view, so two runs with the same
//! seed produce byte-identical files.

#![warn(missing_docs)]

pub mod harness;
pub mod paper;
pub mod render;

pub use harness::{
    evaluate_cell, evaluate_cell_observed, evaluate_table, evaluate_table_observed,
    evaluate_table_with_jobs, CellResult, TableSpec,
};
pub use render::{render_cells, write_json};

/// Parse `--jobs N` (or `--jobs=N`) from the process arguments. `0` — the
/// default when the flag is absent or malformed — means the machine's
/// available parallelism.
pub fn jobs_from_args() -> usize {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
        } else if let Some(n) = arg.strip_prefix("--jobs=").and_then(|v| v.parse().ok()) {
            return n;
        }
    }
    0
}

/// Parse `--metrics-out PATH` (or `--metrics-out=PATH`) from the process
/// arguments: where the binary should write its metrics-registry snapshot
/// as JSON. `None` when the flag is absent.
pub fn metrics_out_from_args() -> Option<String> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--metrics-out" {
            return args.next();
        }
        if let Some(path) = arg.strip_prefix("--metrics-out=") {
            return Some(path.to_string());
        }
    }
    None
}

/// Write the registry's snapshot to `path` as JSON.
///
/// `deterministic` drops wall-clock (volatile) metrics first — the view the
/// elastic demo uses so two seeded runs produce byte-identical files.
pub fn write_metrics_snapshot(
    path: &str,
    registry: &galvatron_obs::MetricsRegistry,
    deterministic: bool,
) {
    let snapshot = if deterministic {
        registry.snapshot().deterministic()
    } else {
        registry.snapshot()
    };
    std::fs::write(path, snapshot.to_json()).expect("metrics path is writable");
}
