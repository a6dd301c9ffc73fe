//! The Galvatron planner: Eq. 1 dynamic-programming search and the
//! Algorithm 1 optimization workflow (§3.3 of the paper).
//!
//! Given a model, a cluster and a per-device memory budget `E`, the planner
//!
//! 1. sweeps candidate global batch sizes `B` (Algorithm 1 line 2),
//! 2. for each power-of-two pipeline degree `P` partitions the model into
//!    `P` balanced stages and the devices into `P` equal contiguous groups
//!    (*Takeaway #1* places the cuts across the slowest links because stage
//!    groups are contiguous and islands are contiguous),
//! 3. builds the per-group candidate strategy set from the decision trees
//!    of §3.2,
//! 4. runs the dynamic program of Eq. 1 per stage to pick one hybrid
//!    strategy per layer minimising stage time under the budget — one
//!    [`StageDpQuery`] answered by a [`StageDp`]: the reference solver
//!    ([`reference::solve`], [`reference::DirectStageDp`]) for the serial
//!    baseline and the oracle suites, [`ArenaStageDp`] in production,
//! 5. tunes the GPipe micro-batch count, and
//! 6. keeps the `(B, P, plan)` with the highest estimated throughput,
//!    stopping once no strategy fits the budget at the current batch.

#![warn(missing_docs)]

pub mod arena;
pub mod candidate;
pub mod dp;
pub mod explain;
pub mod optimizer;
pub mod partition;
pub mod reference;

pub use arena::{dominance_masks, dp_search_arena, with_thread_arena, ArenaStageDp, DpArena};
pub use candidate::{
    evaluate_candidate, micro_batch_candidates, runnable_set, stage_bound_sets, stage_queries,
    strategy_sets, CandidateOutcome, CandidateResult, CandidateSpec,
};
pub use dp::{
    dp_feasible, DirectCosts, DpResult, RecomputeMode, StageCostProvider, StageDp, StageDpQuery,
};
pub use explain::{explain_plan, LayerExplanation, PlanExplanation, StageExplanation};
pub use optimizer::{GalvatronOptimizer, OptimizeOutcome, OptimizerConfig, SearchStats};
pub use partition::{partition_memory_balanced, PipelinePartitioner};
