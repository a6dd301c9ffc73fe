//! Estimator configuration.

use serde::{Deserialize, Serialize};

/// Tunables of the cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// Mutual slowdown factor α when compute kernels and communication
    /// primitives share a GPU (§3.4 measures ≈1.3).
    pub overlap_slowdown: f64,
    /// Model the slowdown (Figure 3a). When false, overlapped phases cost
    /// `max(compute, comm)` — the naive estimator of Figure 3b.
    pub model_overlap_slowdown: bool,
    /// Optimizer state bytes per parameter (Adam keeps fp32 `m` and `v`:
    /// 8 bytes).
    pub optimizer_bytes_per_param: u64,
    /// Fixed per-layer, per-pass kernel launch/dispatch overhead in seconds.
    pub kernel_overhead: f64,
    /// Fixed per-collective launch overhead in seconds.
    pub comm_overhead: f64,
    /// Per-micro-batch, per-stage pipeline bookkeeping overhead in seconds.
    pub micro_batch_overhead: f64,
    /// Include PP boundary activation transfers in plan costs. The paper's
    /// planner excludes them ("we exclude the boundary layers' activation
    /// transferring costs in PP as they are usually quite small", §3.3);
    /// the simulator always pays them.
    pub include_boundary_comm: bool,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            overlap_slowdown: 1.3,
            model_overlap_slowdown: true,
            optimizer_bytes_per_param: 8,
            kernel_overhead: 50e-6,
            comm_overhead: 20e-6,
            micro_batch_overhead: 0.1e-3,
            include_boundary_comm: false,
        }
    }
}

impl EstimatorConfig {
    /// The naive estimator of Figure 3(b): overlap slowdown ignored.
    pub fn without_overlap_modeling() -> Self {
        EstimatorConfig {
            model_overlap_slowdown: false,
            ..EstimatorConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = EstimatorConfig::default();
        assert!((c.overlap_slowdown - 1.3).abs() < 1e-12);
        assert!(c.model_overlap_slowdown);
        assert!(!c.include_boundary_comm);
        assert_eq!(c.optimizer_bytes_per_param, 8);
    }

    #[test]
    fn figure3b_variant_differs_only_in_overlap() {
        let a = EstimatorConfig::default();
        let b = EstimatorConfig::without_overlap_modeling();
        assert!(!b.model_overlap_slowdown);
        assert_eq!(a.overlap_slowdown, b.overlap_slowdown);
        assert_eq!(a.kernel_overhead, b.kernel_overhead);
    }
}
