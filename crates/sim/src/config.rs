//! Simulator configuration.

use serde::{Deserialize, Serialize};

/// Tunables of the execution simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulatorConfig {
    /// Mutual compute/communication contention factor α (§3.4; ≈1.3).
    pub overlap_slowdown: f64,
    /// Per-kernel (per layer, per pass, per micro-batch) launch overhead in
    /// seconds.
    pub kernel_overhead: f64,
    /// Per-collective launch overhead in seconds.
    pub comm_overhead: f64,
    /// Relative multiplicative noise applied to compute-task durations
    /// (uniform in `[1−σ, 1+σ]`); 0 disables noise.
    pub kernel_noise: f64,
    /// RNG seed for the noise.
    pub seed: u64,
    /// Per-device memory budget in bytes; `None` disables OOM detection.
    pub memory_budget: Option<u64>,
    /// Optimizer-state bytes per parameter (Adam: 8).
    pub optimizer_bytes_per_param: u64,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        SimulatorConfig {
            overlap_slowdown: 1.3,
            kernel_overhead: 50e-6,
            comm_overhead: 20e-6,
            kernel_noise: 0.03,
            seed: 0x9A1A_7201,
            memory_budget: None,
            optimizer_bytes_per_param: 8,
        }
    }
}

impl SimulatorConfig {
    /// A noise-free, overhead-free configuration for analytic unit tests.
    pub fn deterministic() -> Self {
        SimulatorConfig {
            kernel_noise: 0.0,
            kernel_overhead: 0.0,
            comm_overhead: 0.0,
            ..SimulatorConfig::default()
        }
    }

    /// Set the memory budget.
    pub fn with_budget(mut self, budget_bytes: u64) -> Self {
        self.memory_budget = Some(budget_bytes);
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimulatorConfig::default();
        assert!(c.overlap_slowdown >= 1.0);
        assert!(c.kernel_noise < 0.10);
        assert!(c.memory_budget.is_none());
    }

    #[test]
    fn deterministic_strips_noise_and_overheads() {
        let c = SimulatorConfig::deterministic();
        assert_eq!(c.kernel_noise, 0.0);
        assert_eq!(c.kernel_overhead, 0.0);
        assert_eq!(c.comm_overhead, 0.0);
        assert_eq!(
            c.overlap_slowdown,
            SimulatorConfig::default().overlap_slowdown
        );
    }

    #[test]
    fn builders_chain() {
        let c = SimulatorConfig::default().with_budget(1 << 30).with_seed(7);
        assert_eq!(c.memory_budget, Some(1 << 30));
        assert_eq!(c.seed, 7);
    }
}
