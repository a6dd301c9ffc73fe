//! Cell evaluation: plan with the baseline planner, *measure* with the
//! simulator — the same separation the paper's evaluation has between the
//! planner's estimates and real execution.

use galvatron_baselines::{BaselinePlanner, BaselineStrategy};
use galvatron_cluster::{ClusterTopology, GIB};
use galvatron_core::OptimizerConfig;
use galvatron_model::{ModelSpec, PaperModel};
use galvatron_obs::Obs;
use galvatron_planner::resolve_jobs;
use galvatron_sim::{Simulator, SimulatorConfig};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One table cell: a (strategy, model, budget) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// Row label.
    pub strategy: String,
    /// Column label.
    pub model: String,
    /// Budget in GB.
    pub budget_gb: u32,
    /// Simulated throughput in samples/second; `None` = OOM.
    pub throughput: Option<f64>,
    /// The batch of the measured plan.
    pub batch: Option<usize>,
    /// The planner's own estimate (for Figure-3-style comparisons).
    pub estimated_throughput: Option<f64>,
    /// Compact plan description.
    pub plan: Option<String>,
}

impl CellResult {
    /// Table-cell rendering: `36.58 (56)` or `OOM`.
    pub fn display(&self) -> String {
        match (self.throughput, self.batch) {
            (Some(t), Some(b)) => format!("{t:.2} ({b})"),
            _ => "OOM".to_string(),
        }
    }
}

/// A table to regenerate: topology, budgets and model columns.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name ("table1", ...).
    pub name: &'static str,
    /// The cluster.
    pub topology: ClusterTopology,
    /// Budgets in GB (one block per budget).
    pub budgets_gb: Vec<u32>,
    /// Model columns.
    pub models: Vec<PaperModel>,
    /// Shared optimizer configuration.
    pub config: OptimizerConfig,
}

/// Evaluate one cell: search for the strategy's best plan under the budget,
/// then execute the plan on the simulator. If the simulated peak exceeds
/// the budget (estimator vs. simulator accounting can differ at the
/// margin), the batch is stepped down until it fits.
///
/// The Galvatron rows' planner records search counters
/// (`planner_dp_cells_evaluated`, `dp_arena_solves`, …) and `dp_search`
/// spans into `obs`; the simulator records its own run metrics.
pub fn evaluate_cell(
    topology: &ClusterTopology,
    model: &ModelSpec,
    budget_gb: u32,
    strategy: BaselineStrategy,
    config: &OptimizerConfig,
    obs: &Obs,
) -> CellResult {
    let budget = budget_gb as u64 * GIB;
    let mut cfg = config.clone();
    let mut result = CellResult {
        strategy: strategy.label().to_string(),
        model: model.name.clone(),
        budget_gb,
        throughput: None,
        batch: None,
        estimated_throughput: None,
        plan: None,
    };

    loop {
        let planned = BaselinePlanner::new(topology.clone(), cfg.clone())
            .with_obs(obs.clone())
            .plan(strategy, model, budget);
        let Ok(Some(outcome)) = planned else {
            return result;
        };
        let sim = Simulator::new(
            topology.clone(),
            SimulatorConfig::default().with_budget(budget),
        )
        .with_obs(obs.clone());
        match sim.execute(model, &outcome.plan) {
            Ok(report) if !report.oom => {
                result.throughput = Some(report.throughput);
                result.batch = Some(outcome.plan.global_batch);
                result.estimated_throughput = Some(outcome.throughput_samples_per_sec);
                result.plan = Some(outcome.plan.summary());
                return result;
            }
            Ok(_) | Err(_) => {
                // Step the batch cap below the failing plan and retry.
                let failing = outcome.plan.global_batch;
                if failing <= cfg.batch_step {
                    return result;
                }
                cfg.max_batch = failing - cfg.batch_step;
            }
        }
    }
}

/// Evaluate a whole table, parallelising across cells with `jobs` workers
/// (`0` = all cores). `obs` is shared by every cell's planner and
/// simulator: after the run, its registry holds the table-wide search
/// totals (DP cells, arena solves, pruned candidates) that the
/// `--metrics-out` flag of the table binaries dumps.
pub fn evaluate_table(spec: &TableSpec, jobs: usize, obs: &Obs) -> Vec<CellResult> {
    let mut cells = Vec::new();
    for &budget in &spec.budgets_gb {
        for &model in &spec.models {
            for strategy in BaselineStrategy::ALL {
                cells.push((budget, model, strategy));
            }
        }
    }
    let workers = resolve_jobs(jobs).min(cells.len().max(1));
    let next = AtomicUsize::new(0);
    // One worker: claim the next cell until none are left, and return what
    // it evaluated keyed by cell index.
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(budget, model, strategy)) = cells.get(i) else {
                return done;
            };
            let cell = evaluate_cell(
                &spec.topology,
                &model.spec(),
                budget,
                strategy,
                &spec.config,
                obs,
            );
            done.push((i, cell));
        }
    };
    let mut done: Vec<(usize, CellResult)> = crossbeam::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(|_| worker())).collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("worker threads do not panic"))
            .collect()
    })
    .expect("worker threads do not panic");
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, cell)| cell).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::rtx_titan_node;

    fn quick_config() -> OptimizerConfig {
        OptimizerConfig {
            max_batch: 32,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn oom_cells_render_as_oom() {
        let topo = rtx_titan_node(8);
        let model = PaperModel::BertHuge32.spec();
        let cell = evaluate_cell(
            &topo,
            &model,
            8,
            BaselineStrategy::PyTorchDdp,
            &quick_config(),
            &Obs::noop(),
        );
        assert_eq!(cell.display(), "OOM");
        assert!(cell.throughput.is_none());
    }

    #[test]
    fn feasible_cells_carry_measurements() {
        let topo = rtx_titan_node(8);
        let model = PaperModel::VitHuge32.spec();
        let cell = evaluate_cell(
            &topo,
            &model,
            16,
            BaselineStrategy::FsdpSdp,
            &quick_config(),
            &Obs::noop(),
        );
        let t = cell.throughput.expect("SDP fits ViT at 16 GiB");
        assert!(t > 0.0);
        assert!(cell.display().contains('('));
        assert!(cell.estimated_throughput.is_some());
    }
}
