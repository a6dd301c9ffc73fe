//! # galvatron-elastic — fault-injecting elastic training runtime
//!
//! Galvatron (VLDB 2022) plans a hybrid-parallel strategy for a *fixed*
//! cluster. This crate closes the loop for clusters that stop being fixed:
//! it runs a plan step-by-step on the `galvatron-sim` discrete-event
//! simulator while a seeded [`FaultSchedule`] injects device losses,
//! stragglers and link degradations underneath it, detects the faults the
//! way a real job would (heartbeats and iteration-time anomalies), derives
//! the surviving topology, re-plans online through a `PlanService`,
//! charges a Slice-Gather-based state-migration cost, and
//! reports a deterministic recovery timeline.
//!
//! The pieces, in pipeline order:
//!
//! | module      | role |
//! |-------------|------|
//! | [`fault`]   | deterministic fault schedules (explicit or seeded) |
//! | [`detect`]  | heartbeat + anomaly detectors with thresholds |
//! | [`migrate`] | who holds which shard; what the re-layout costs |
//! | [`runtime`] | the control loop tying the above to sim + planner |
//!
//! ```no_run
//! use galvatron_cluster::rtx_titan_node;
//! use galvatron_elastic::{ElasticConfig, ElasticRuntime, FaultEvent, FaultKind, FaultSchedule};
//! use galvatron_model::PaperModel;
//!
//! let topology = rtx_titan_node(8);
//! let model = PaperModel::BertHuge32.spec();
//! let faults = FaultSchedule::new(vec![
//!     FaultEvent { step: 20, kind: FaultKind::DeviceLoss { device: 6 } },
//!     FaultEvent { step: 20, kind: FaultKind::DeviceLoss { device: 7 } },
//! ]);
//! let runtime = ElasticRuntime::new(ElasticConfig::new(8 * (1 << 30)));
//! let outcome = runtime.run(&model, &topology, &faults).unwrap();
//! println!(
//!     "recovered on {} devices, goodput {:.1} → {:.1} samples/s",
//!     outcome.final_plan.devices,
//!     outcome.goodput.before.unwrap_or(0.0),
//!     outcome.goodput.after.unwrap_or(0.0),
//! );
//! ```

pub mod detect;
pub mod fault;
pub mod migrate;
pub mod runtime;

pub use detect::{Detection, DetectorConfig, FaultDetector};
pub use fault::{FaultEvent, FaultKind, FaultSchedule};
pub use migrate::{plan_migration, shard_holders, state_layout, MigrationConfig, MigrationReport};
pub use runtime::{
    ElasticConfig, ElasticError, ElasticOutcome, ElasticRuntime, GoodputPhases, PlanSnapshot,
    RecoveryRecord,
};
