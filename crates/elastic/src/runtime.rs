//! The elastic control loop: run → detect → shrink → re-plan → migrate →
//! resume.
//!
//! [`ElasticRuntime::run`] trains a model step-by-step on the discrete-event
//! simulator while a [`FaultSchedule`] degrades the cluster underneath it.
//! Device losses stall the synchronous job until heartbeats declare them;
//! stragglers and throttled links keep the job running but stretch every
//! step until the anomaly detector fires. Either detection triggers the
//! same recovery path: derive the surviving topology (island equalization
//! in `galvatron-cluster`), re-plan through the
//! [`PlanService`], charge the state migration
//! ([`crate::migrate::plan_migration`]), swap the plan in and resume.
//!
//! **Determinism.** Everything in the reported timeline is derived from
//! seeded simulation and closed-form costs; the one genuinely
//! non-deterministic quantity — host wall-clock spent in the planner — is
//! reported separately ([`RecoveryRecord::replan_wall_seconds`]) and the
//! timeline instead charges the fixed
//! [`ElasticConfig::replan_charge_seconds`]. Running the same
//! (model, topology, schedule, config) twice produces byte-identical
//! outcomes.

use crate::detect::{Detection, DetectorConfig, FaultDetector};
use crate::fault::{FaultKind, FaultSchedule};
use crate::migrate::{plan_migration, MigrationConfig, MigrationReport};
use galvatron_cluster::{ClusterError, ClusterTopology, DeviceId};
use galvatron_model::ModelSpec;
use galvatron_obs::Obs;
use galvatron_planner::{PlanRequest, PlanService, PlannerConfig};
use galvatron_sim::{ExecutionReport, SimError, Simulator, SimulatorConfig};
use galvatron_strategy::ParallelPlan;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Configuration of an elastic run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticConfig {
    /// Per-device memory budget, bytes.
    pub budget_bytes: u64,
    /// Training steps to run.
    pub total_steps: usize,
    /// Deterministic planning-pause charged to the timeline per recovery
    /// (the measured host planning time is reported separately).
    pub replan_charge_seconds: f64,
    /// Detection thresholds.
    pub detector: DetectorConfig,
    /// Migration cost model.
    pub migration: MigrationConfig,
    /// Simulator configuration (seed, noise, overheads).
    pub sim: SimulatorConfig,
    /// Planner configuration shared by the initial plan and every re-plan.
    pub planner: PlannerConfig,
}

impl ElasticConfig {
    /// Defaults for a run under `budget_bytes` per device.
    pub fn new(budget_bytes: u64) -> Self {
        ElasticConfig {
            budget_bytes,
            total_steps: 50,
            replan_charge_seconds: 0.5,
            detector: DetectorConfig::default(),
            migration: MigrationConfig::default(),
            sim: SimulatorConfig::default(),
            planner: PlannerConfig::default(),
        }
    }
}

/// Errors of an elastic run.
#[derive(Debug)]
pub enum ElasticError {
    /// A topology operation failed.
    Cluster(ClusterError),
    /// The simulator rejected a plan.
    Sim(SimError),
    /// No feasible plan exists on the (possibly degraded) cluster.
    NoFeasiblePlan {
        /// Devices the planner had available.
        devices: usize,
        /// The step at which planning was attempted.
        step: usize,
    },
}

impl fmt::Display for ElasticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElasticError::Cluster(e) => write!(f, "cluster error: {e}"),
            ElasticError::Sim(e) => write!(f, "simulation error: {e}"),
            ElasticError::NoFeasiblePlan { devices, step } => {
                write!(f, "no feasible plan on {devices} devices at step {step}")
            }
        }
    }
}

impl std::error::Error for ElasticError {}

impl From<ClusterError> for ElasticError {
    fn from(e: ClusterError) -> Self {
        ElasticError::Cluster(e)
    }
}

impl From<SimError> for ElasticError {
    fn from(e: SimError) -> Self {
        ElasticError::Sim(e)
    }
}

/// A plan plus its simulated behaviour at the moment it was adopted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSnapshot {
    /// Compact plan description.
    pub summary: String,
    /// The full plan.
    pub plan: ParallelPlan,
    /// Devices the plan runs on.
    pub devices: usize,
    /// Simulated iteration time on its topology, seconds.
    pub iteration_time: f64,
    /// Simulated throughput, samples/second.
    pub throughput: f64,
    /// Simulated peak memory over stages, bytes.
    pub peak_memory: u64,
    /// Whether the simulator saw the plan exceed the budget.
    pub oom: bool,
}

/// Goodput (samples/second) per phase of the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoodputPhases {
    /// Before the first fault strikes; `None` if a fault hits step 0.
    pub before: Option<f64>,
    /// From the first fault to the end of the last recovery.
    pub during: Option<f64>,
    /// After the last recovery completes; `None` if the run ends degraded.
    pub after: Option<f64>,
    /// Whole-run goodput.
    pub overall: f64,
}

/// One detected fault and its recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// What triggered the recovery ("loss(6),loss(7)" or
    /// "degradation(2.41s vs 1.02s)").
    pub trigger: String,
    /// Step at which the underlying fault was injected.
    pub injected_step: usize,
    /// Simulated wall time of the injection.
    pub injected_wall: f64,
    /// Simulated wall time of the detection.
    pub detected_wall: f64,
    /// `detected_wall − injected_wall`.
    pub time_to_detect: f64,
    /// Host seconds the planner actually took (outside the deterministic
    /// timeline).
    pub replan_wall_seconds: f64,
    /// The deterministic planning pause charged to the timeline.
    pub replan_charge_seconds: f64,
    /// Migration wall time charged to the timeline.
    pub time_to_migrate: f64,
    /// The costed migration.
    pub migration: MigrationReport,
    /// Total timeline outage: detection + re-plan charge + migration.
    pub outage_seconds: f64,
    /// Healthy steps the outage cost (`⌈outage / old iteration time⌉`).
    pub steps_lost: usize,
    /// Devices the new plan uses.
    pub survivors: usize,
    /// Alive-but-benched devices after island equalization.
    pub benched: usize,
    /// Iteration time before the fault, seconds.
    pub old_iteration_time: f64,
    /// Iteration time of the adopted plan, seconds.
    pub new_iteration_time: f64,
    /// The adopted plan's summary.
    pub plan_summary: String,
}

/// The full, deterministic timeline report of one elastic run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticOutcome {
    /// Model name.
    pub model: String,
    /// Steps completed.
    pub total_steps: usize,
    /// Simulated wall seconds, end to end.
    pub wall_seconds: f64,
    /// Samples trained.
    pub samples: u64,
    /// Healthy steps lost to outages, summed over recoveries.
    pub steps_lost: usize,
    /// The plan the run started with.
    pub initial: PlanSnapshot,
    /// The plan the run ended with.
    pub final_plan: PlanSnapshot,
    /// The topology the run ended on (for re-simulation and audits).
    pub final_topology: ClusterTopology,
    /// `final_device_map[plan_device_id] = original cluster id` for the
    /// plan the run ended with.
    pub final_device_map: Vec<DeviceId>,
    /// Every device lost during the run (original ids), detected or not.
    pub failed_devices: Vec<DeviceId>,
    /// The losses the final plan routes around (original ids). A loss
    /// injected in the last steps can be in `failed_devices` but not here
    /// if the run ended before its heartbeats crossed the miss threshold.
    pub recovered_failures: Vec<DeviceId>,
    /// Goodput before / during / after the fault window.
    pub goodput: GoodputPhases,
    /// Every detected fault and its recovery, in order.
    pub recoveries: Vec<RecoveryRecord>,
}

/// The effective cluster the current plan runs on: a (possibly degraded)
/// topology plus the mapping from its dense device ids back to original
/// cluster ids.
#[derive(Debug, Clone)]
struct ClusterView {
    topology: ClusterTopology,
    /// `map[plan_device_id] = original_id`.
    map: Vec<DeviceId>,
    /// Alive but unused (island equalization), original ids.
    benched: Vec<DeviceId>,
}

/// The elastic training runtime. Holds the [`PlanService`] that answers the
/// initial plan and every re-plan; each is a fresh search on the current
/// (possibly degraded) topology.
#[derive(Debug)]
pub struct ElasticRuntime {
    config: ElasticConfig,
    service: PlanService,
    obs: Obs,
}

impl ElasticRuntime {
    /// Build a runtime.
    pub fn new(config: ElasticConfig) -> Self {
        let service = PlanService::new(config.planner.clone());
        ElasticRuntime {
            config,
            service,
            obs: Obs::noop(),
        }
    }

    /// Attach a telemetry handle, shared with the plan service and every
    /// simulation. Recoveries emit `detect`/`replan`/`migrate` spans on the
    /// **simulated** clock and count into `elastic_replans_total` /
    /// `migration_bytes_modeled`; all elastic metrics are deterministic
    /// (only the planner's wall-clock latencies are volatile).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.service = PlanService::new(self.config.planner.clone()).with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// The configuration.
    pub fn config(&self) -> &ElasticConfig {
        &self.config
    }

    /// The plan service.
    pub fn service(&self) -> &PlanService {
        &self.service
    }

    /// The effective cluster given the committed failures and active soft
    /// degradations.
    fn effective_view(
        &self,
        base: &ClusterTopology,
        committed_failed: &BTreeSet<DeviceId>,
        stragglers: &BTreeMap<DeviceId, f64>,
        link_factors: &BTreeMap<usize, f64>,
    ) -> Result<ClusterView, ClusterError> {
        // Link degradation first: level indices refer to the base
        // hierarchy, and `without_devices` preserves the (degraded) links
        // of the levels it keeps.
        let mut throttled = base.clone();
        for (&level, &factor) in link_factors {
            throttled = throttled.with_degraded_link(level, factor)?;
        }
        let (mut topology, map, benched) = if committed_failed.is_empty() {
            (throttled, (0..base.n_devices()).collect(), Vec::new())
        } else {
            let failed: Vec<DeviceId> = committed_failed.iter().copied().collect();
            let d = throttled.without_devices(&failed)?;
            (d.topology, d.survivors, d.benched)
        };
        for (&device, &slowdown) in stragglers {
            if let Some(new_id) = map.iter().position(|&o| o == device) {
                topology = topology.with_straggler(new_id, slowdown)?;
            }
        }
        Ok(ClusterView {
            topology,
            map,
            benched,
        })
    }

    /// Plan on a view through the shared service.
    fn plan_on(
        &self,
        model: &ModelSpec,
        view: &ClusterView,
        step: usize,
    ) -> Result<(ParallelPlan, f64, f64), ElasticError> {
        let response = self
            .service
            .submit(&PlanRequest {
                name: format!("{}@step{}", model.name, step),
                model: model.clone(),
                topology: view.topology.clone(),
                budget_bytes: self.config.budget_bytes,
            })
            .map_err(ElasticError::Cluster)?;
        let seconds = response.seconds;
        let outcome = response.outcome.ok_or(ElasticError::NoFeasiblePlan {
            devices: view.topology.n_devices(),
            step,
        })?;
        Ok((outcome.plan, seconds, outcome.throughput_samples_per_sec))
    }

    /// Simulate one iteration of `plan` on a view.
    fn simulate(
        &self,
        model: &ModelSpec,
        view: &ClusterView,
        plan: &ParallelPlan,
    ) -> Result<ExecutionReport, ElasticError> {
        let sim = Simulator::new(
            view.topology.clone(),
            self.config
                .sim
                .clone()
                .with_budget(self.config.budget_bytes),
        )
        .with_obs(self.obs.clone());
        Ok(sim.execute(model, plan)?)
    }

    /// Run the elastic loop. See the module docs for the protocol.
    pub fn run(
        &self,
        model: &ModelSpec,
        topology: &ClusterTopology,
        faults: &FaultSchedule,
    ) -> Result<ElasticOutcome, ElasticError> {
        let detector_config = self.config.detector;
        let mut detector = FaultDetector::new(detector_config);

        // Physical fault state (original ids). `committed` are the
        // failures the current plan already routes around.
        let mut all_failed: BTreeSet<DeviceId> = BTreeSet::new();
        let mut committed: BTreeSet<DeviceId> = BTreeSet::new();
        let mut stragglers: BTreeMap<DeviceId, f64> = BTreeMap::new();
        let mut link_factors: BTreeMap<usize, f64> = BTreeMap::new();
        // Injection wall-times of not-yet-recovered faults, for
        // time-to-detect accounting.
        let mut pending: Vec<(f64, usize, FaultKind)> = Vec::new();

        let mut view = self.effective_view(topology, &committed, &stragglers, &link_factors)?;
        let (mut plan, _, _) = self.plan_on(model, &view, 0)?;
        let mut report = self.simulate(model, &view, &plan)?;
        let initial = snapshot(&plan, &view, &report);

        let mut wall = 0.0f64;
        let mut samples = 0u64;
        let mut steps_lost = 0usize;
        let mut recoveries: Vec<RecoveryRecord> = Vec::new();
        let mut first_fault_wall: Option<f64> = None;
        let mut last_recovery_wall: Option<f64> = None;
        // (end_wall, batch) of every completed step, for phase goodput.
        let mut completed: Vec<(f64, u64)> = Vec::new();

        let mut step = 0usize;
        let mut injected_until = 0usize; // faults of steps < this are applied
        while step < self.config.total_steps {
            // -- 1. Inject this step's faults. ---------------------------
            if injected_until <= step {
                let mut soft_changed = false;
                for event in faults.at(step) {
                    self.obs
                        .registry()
                        .counter("elastic_faults_injected_total")
                        .inc();
                    first_fault_wall.get_or_insert(wall);
                    pending.push((wall, step, event.kind));
                    match event.kind {
                        FaultKind::DeviceLoss { device } => {
                            all_failed.insert(device);
                        }
                        FaultKind::Straggler { device, slowdown } => {
                            let s = stragglers.entry(device).or_insert(1.0);
                            *s = s.max(slowdown);
                            soft_changed = true;
                        }
                        FaultKind::LinkDegrade { level, factor } => {
                            *link_factors.entry(level).or_insert(1.0) *= factor;
                            soft_changed = true;
                        }
                    }
                }
                injected_until = step + 1;
                if soft_changed {
                    // Soft faults change the physics under the *running*
                    // plan immediately — same device set, new rates.
                    view = self.effective_view(topology, &committed, &stragglers, &link_factors)?;
                    report = self.simulate(model, &view, &plan)?;
                }
            }

            // -- 2. Heartbeats. ------------------------------------------
            // Every device not yet written off is probed: the working set
            // and the benched spares alike. While the job runs, rounds
            // piggyback on step boundaries; when a working device is dead
            // the job stalls and rounds tick at the heartbeat interval.
            let monitored: Vec<(DeviceId, bool)> = (0..topology.n_devices())
                .filter(|d| !committed.contains(d))
                .map(|d| (d, !all_failed.contains(&d)))
                .collect();
            let stalled = view
                .map
                .iter()
                .any(|d| all_failed.contains(d) && !committed.contains(d));

            let detection = if stalled {
                wall += detector_config.heartbeat_interval;
                detector.observe_heartbeats(&monitored)
            } else {
                detector.observe_heartbeats(&monitored)
            };

            if let Some(Detection::DeadDevices(dead)) = detection {
                let trigger = dead
                    .iter()
                    .map(|d| format!("loss({d})"))
                    .collect::<Vec<_>>()
                    .join(",");
                for d in &dead {
                    committed.insert(*d);
                }
                self.recover(
                    model,
                    topology,
                    &committed,
                    &stragglers,
                    &link_factors,
                    &all_failed,
                    &mut view,
                    &mut plan,
                    &mut report,
                    &mut detector,
                    &mut wall,
                    &mut steps_lost,
                    &mut pending,
                    &mut recoveries,
                    trigger,
                    step,
                    |kind| matches!(kind, FaultKind::DeviceLoss { .. }),
                )?;
                last_recovery_wall = Some(wall);
                continue; // re-evaluate the same step under the new plan
            }
            if stalled {
                continue; // keep burning heartbeat rounds until detection
            }

            // -- 3. One training step. -----------------------------------
            self.obs.registry().counter("elastic_steps_total").inc();
            wall += report.iteration_time;
            samples += plan.global_batch as u64;
            completed.push((wall, plan.global_batch as u64));
            let timing = detector.observe_step_time(report.iteration_time);
            step += 1;

            if let Some(Detection::Degradation { observed, baseline }) = timing {
                let trigger = format!("degradation({observed:.3}s vs {baseline:.3}s)");
                self.recover(
                    model,
                    topology,
                    &committed,
                    &stragglers,
                    &link_factors,
                    &all_failed,
                    &mut view,
                    &mut plan,
                    &mut report,
                    &mut detector,
                    &mut wall,
                    &mut steps_lost,
                    &mut pending,
                    &mut recoveries,
                    trigger,
                    step,
                    |kind| !matches!(kind, FaultKind::DeviceLoss { .. }),
                )?;
                last_recovery_wall = Some(wall);
            }
        }

        let final_plan = snapshot(&plan, &view, &report);
        let goodput = phase_goodput(&completed, wall, first_fault_wall, last_recovery_wall);
        Ok(ElasticOutcome {
            model: model.name.clone(),
            total_steps: step,
            wall_seconds: wall,
            samples,
            steps_lost,
            initial,
            final_plan,
            final_topology: view.topology.clone(),
            final_device_map: view.map.clone(),
            failed_devices: all_failed.iter().copied().collect(),
            recovered_failures: committed.iter().copied().collect(),
            goodput,
            recoveries,
        })
    }

    /// The shared recovery path: shrink, re-plan, migrate, swap, resume.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &self,
        model: &ModelSpec,
        base: &ClusterTopology,
        committed: &BTreeSet<DeviceId>,
        stragglers: &BTreeMap<DeviceId, f64>,
        link_factors: &BTreeMap<usize, f64>,
        all_failed: &BTreeSet<DeviceId>,
        view: &mut ClusterView,
        plan: &mut ParallelPlan,
        report: &mut ExecutionReport,
        detector: &mut FaultDetector,
        wall: &mut f64,
        steps_lost: &mut usize,
        pending: &mut Vec<(f64, usize, FaultKind)>,
        recoveries: &mut Vec<RecoveryRecord>,
        trigger: String,
        step: usize,
        consumes: impl Fn(&FaultKind) -> bool,
    ) -> Result<(), ElasticError> {
        let old_iteration_time = report.iteration_time;
        let detected_wall = *wall;
        // The oldest pending fault of the matching class anchors
        // time-to-detect; all matching pendings are consumed (a recovery
        // answers everything of its class seen so far).
        let matching: Vec<(f64, usize, FaultKind)> = pending
            .iter()
            .copied()
            .filter(|(_, _, k)| consumes(k))
            .collect();
        pending.retain(|(_, _, k)| !consumes(k));
        let (injected_wall, injected_step) = matching
            .first()
            .map(|&(w, s, _)| (w, s))
            .unwrap_or((detected_wall, step));

        let new_view = self.effective_view(base, committed, stragglers, link_factors)?;
        let (new_plan, replan_wall_seconds, _) = self.plan_on(model, &new_view, step)?;
        let migration = plan_migration(
            model,
            plan,
            &view.map,
            &new_plan,
            &new_view.map,
            all_failed,
            base,
            &self.config.migration,
        )?;

        let time_to_detect = detected_wall - injected_wall;
        let outage_seconds = time_to_detect + self.config.replan_charge_seconds + migration.seconds;
        let lost = (outage_seconds / old_iteration_time).ceil() as usize;
        *wall += self.config.replan_charge_seconds + migration.seconds;
        *steps_lost += lost;

        *view = new_view;
        *plan = new_plan;
        *report = self.simulate(model, view, plan)?;
        detector.rebaseline(report.iteration_time);

        // Telemetry: everything below is on the simulated clock / from the
        // closed-form migration cost, so it stays deterministic.
        let registry = self.obs.registry();
        registry.counter("elastic_replans_total").inc();
        registry.counter("migration_bytes_modeled").inc_by(
            migration.gathered_bytes + migration.relocated_bytes + migration.restored_bytes,
        );
        registry
            .counter("elastic_steps_lost_total")
            .inc_by(lost as u64);
        registry
            .histogram("elastic_time_to_detect_seconds")
            .observe(time_to_detect);
        registry
            .histogram("elastic_outage_seconds")
            .observe(outage_seconds);
        self.obs.record_span(
            "detect",
            injected_wall,
            time_to_detect,
            vec![("trigger".into(), trigger.as_str().into())],
        );
        self.obs.record_span(
            "replan",
            detected_wall,
            self.config.replan_charge_seconds,
            vec![
                ("survivors".into(), view.map.len().into()),
                ("plan".into(), plan.summary().into()),
            ],
        );
        self.obs.record_span(
            "migrate",
            detected_wall + self.config.replan_charge_seconds,
            migration.seconds,
            vec![
                ("gathered_bytes".into(), migration.gathered_bytes.into()),
                ("relocated_bytes".into(), migration.relocated_bytes.into()),
                ("restored_bytes".into(), migration.restored_bytes.into()),
            ],
        );

        recoveries.push(RecoveryRecord {
            trigger,
            injected_step,
            injected_wall,
            detected_wall,
            time_to_detect,
            replan_wall_seconds,
            replan_charge_seconds: self.config.replan_charge_seconds,
            time_to_migrate: migration.seconds,
            migration,
            outage_seconds,
            steps_lost: lost,
            survivors: view.map.len(),
            benched: view.benched.len(),
            old_iteration_time,
            new_iteration_time: report.iteration_time,
            plan_summary: plan.summary(),
        });
        Ok(())
    }
}

/// Snapshot a plan together with its simulated behaviour.
fn snapshot(plan: &ParallelPlan, view: &ClusterView, report: &ExecutionReport) -> PlanSnapshot {
    PlanSnapshot {
        summary: plan.summary(),
        plan: plan.clone(),
        devices: view.map.len(),
        iteration_time: report.iteration_time,
        throughput: report.throughput,
        peak_memory: report
            .peak_memory_per_stage
            .iter()
            .copied()
            .max()
            .unwrap_or(0),
        oom: report.oom,
    }
}

/// Split completed steps into before/during/after phases and compute each
/// phase's goodput. "During" spans first injection → last recovery end;
/// healthy stretches between two fault bursts count as during.
fn phase_goodput(
    completed: &[(f64, u64)],
    wall: f64,
    first_fault_wall: Option<f64>,
    last_recovery_wall: Option<f64>,
) -> GoodputPhases {
    let overall = if wall > 0.0 {
        completed.iter().map(|&(_, b)| b).sum::<u64>() as f64 / wall
    } else {
        0.0
    };
    let Some(fault_at) = first_fault_wall else {
        return GoodputPhases {
            before: (wall > 0.0).then_some(overall),
            during: None,
            after: None,
            overall,
        };
    };
    let recovery_end = last_recovery_wall.unwrap_or(wall);
    let mut phase_samples = [0u64; 3];
    for &(end, batch) in completed {
        let phase = if end <= fault_at {
            0
        } else if end <= recovery_end {
            1
        } else {
            2
        };
        phase_samples[phase] += batch;
    }
    let spans = [fault_at, recovery_end - fault_at, wall - recovery_end];
    let rate = |i: usize| (spans[i] > 0.0).then(|| phase_samples[i] as f64 / spans[i]);
    GoodputPhases {
        before: rate(0),
        during: rate(1),
        after: rate(2),
        overall,
    }
}
