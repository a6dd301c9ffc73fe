//! # Galvatron
//!
//! A Rust reproduction of *"Galvatron: Efficient Transformer Training over
//! Multiple GPUs Using Automatic Parallelism"* (PVLDB 16(3), 2022).
//!
//! Galvatron automatically finds the most efficient **hybrid parallelism**
//! strategy — a per-layer composition of data parallelism (DP), sharded data
//! parallelism (SDP/ZeRO-3), tensor parallelism (TP) and pipeline parallelism
//! (PP) — for training a Transformer on a GPU cluster under a device memory
//! budget.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`cluster`] — topology, interconnects, collective cost models, the
//!   communication-group pool.
//! * [`model`] — the Transformer model zoo with analytic parameter /
//!   activation / FLOP accounting (Table 2).
//! * [`obs`] — the telemetry layer: lock-cheap metrics registry
//!   (Prometheus/JSON exporters), structured spans with pluggable sinks,
//!   and the shared Chrome-trace writer.
//! * [`strategy`] — hybrid strategies, the decision-tree decomposition with
//!   Takeaways 1–3, activation layouts and Slice-Gather.
//! * [`estimator`] — the cost model, including the compute/communication
//!   overlap slowdown of §3.4.
//! * [`sim`] — a discrete-event cluster simulator standing in for real
//!   multi-GPU execution (the "measured" side of every experiment).
//! * [`core`] — the dynamic-programming search (Eq. 1) and the Algorithm 1
//!   optimization workflow.
//! * [`planner`] — the parallel planning front-end: work-stealing sweep,
//!   shared DP memoization, bound-based pruning, multi-request plan
//!   service. Same results as [`core`]'s serial optimizer, faster.
//! * [`baselines`] — the evaluated baseline planners (PyTorch DDP, Megatron
//!   TP, GPipe PP, FSDP/ZeRO-3 SDP, DeepSpeed 3D, Galvatron DP+TP / DP+PP).
//! * [`elastic`] — the elastic training runtime: deterministic fault
//!   injection, heartbeat/anomaly detection, online re-planning on the
//!   surviving topology, and state-migration costing.
//! * [`serve`] — plan-serving building blocks: the JSON-lines TCP
//!   protocol, a byte-budget LRU response cache with warm restarts, the
//!   bounded admission queue behind deterministic load shedding, and the
//!   client.
//! * [`fleet`] — the plan server and its fleet: an event-driven replica
//!   (thousands of idle connections without a thread each, single-flight
//!   coalescing of identical in-flight requests; the `galvatron-served`
//!   daemon is one replica), consistent-hash request routing with
//!   failover, gossip cache replication between ring neighbors, and
//!   warm-join from peer snapshots.
//! * [`hetero`] — heterogeneous-cluster planning: priced device types and
//!   mixed A100/RTX-TITAN islands, a dual objective (iteration time vs
//!   **throughput per dollar** over island-aligned deployments), and the
//!   cluster advisor ("cheapest device mix that trains this model in under
//!   T hours").
//!
//! ## Quickstart
//!
//! ```
//! use galvatron::prelude::*;
//!
//! // The paper's Table 1 testbed: one node with 8 RTX TITANs on PCIe 3.0.
//! let cluster = TestbedPreset::RtxTitan8.topology();
//! let model = PaperModel::VitHuge32.spec();
//!
//! // Find the optimal hybrid plan under an 8 GiB per-device budget.
//! let planner = ParallelPlanner::with_optimizer(OptimizerConfig {
//!     max_batch: 64, // keep the doctest quick; the default sweeps to 4096
//!     ..OptimizerConfig::default()
//! });
//! let best = planner
//!     .optimize(&model, &cluster, 8 * GIB)
//!     .expect("topology lookups succeed")
//!     .expect("a feasible plan exists");
//! assert!(best.throughput_samples_per_sec > 0.0);
//! println!("{}", best.plan.summary());
//! ```

pub use galvatron_baselines as baselines;
pub use galvatron_cluster as cluster;
pub use galvatron_core as core;
pub use galvatron_elastic as elastic;
pub use galvatron_estimator as estimator;
pub use galvatron_exec as exec;
pub use galvatron_fleet as fleet;
pub use galvatron_hetero as hetero;
pub use galvatron_model as model;
pub use galvatron_obs as obs;
pub use galvatron_planner as planner;
pub use galvatron_serve as serve;
pub use galvatron_sim as sim;
pub use galvatron_strategy as strategy;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use galvatron_baselines::{BaselinePlanner, BaselineStrategy};
    pub use galvatron_cluster::{
        island_cluster, mixed_a100_rtx_cluster, ClusterTopology, CommGroupPool, DeviceType,
        GpuSpec, Link, LinkClass, TestbedPreset, GIB, MIB,
    };
    pub use galvatron_core::{
        explain_plan, OptimizeOutcome, OptimizerConfig, PipelinePartitioner, PlanExplanation,
        RecomputeMode,
    };
    pub use galvatron_elastic::{
        ElasticConfig, ElasticOutcome, ElasticRuntime, FaultEvent, FaultKind, FaultSchedule,
    };
    pub use galvatron_estimator::{CostEstimator, EstimatorConfig};
    pub use galvatron_fleet::{FleetReplica, FleetRouter, HashRing, ReplicaConfig, RouterConfig};
    pub use galvatron_hetero::{
        AdvisorQuery, AdvisorReport, ClusterAdvisor, HeteroOutcome, HeteroPlanner, Objective,
    };
    pub use galvatron_model::{ModelSpec, PaperModel};
    pub use galvatron_obs::{
        ChromeSpanSink, ChromeTraceWriter, MetricsRegistry, MetricsSnapshot, Obs, RingBufferSink,
        Span, SpanSink,
    };
    pub use galvatron_planner::{
        DpCache, ParallelPlanner, PlanRequest, PlanResponse, PlanService, PlannerConfig,
    };
    pub use galvatron_serve::{PlanClient, ServeStats};
    pub use galvatron_sim::{ExecutionReport, Simulator, SimulatorConfig};
    pub use galvatron_strategy::{
        DecisionTreeBuilder, Paradigm, ParallelPlan, StrategyAxis, StrategySet,
    };
}
