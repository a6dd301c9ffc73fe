//! Galvatron's cost estimator (§3.4): computation, communication and memory
//! costs of running one layer under one hybrid strategy, composed into
//! whole-plan iteration-time estimates.
//!
//! The estimator is deliberately analytic — "we use the shape of a tensor
//! and its data type to calculate its memory; for the computation time, we
//! suppose it could be estimated by the product of the batch size and the
//! per-sample computation time" — with one refinement the paper stresses:
//! modern GPUs running compute kernels and NCCL collectives *simultaneously*
//! slow **both** down (≈1.3× from SM contention). [`overlap`] implements
//! that closed form; disabling it reproduces the naive `max(compute, comm)`
//! estimator of Figure 3(b).

#![warn(missing_docs)]

pub mod calibrate;
pub mod config;
pub mod cost;
pub mod memory;
pub mod overlap;
pub mod pipeline;
pub mod plan_cost;

pub use calibrate::{fit_alpha, fit_link, fit_rate, FittedLink};
pub use config::EstimatorConfig;
pub use cost::LayerCost;
pub use memory::LayerMemory;
pub use overlap::overlapped_time;
pub use pipeline::{gpipe_iteration_time, optimal_micro_batches};
pub use plan_cost::{CostEstimator, PlanCost, StageCost};
