//! Cluster topology, interconnects and collective-communication cost models.
//!
//! This crate is the hardware substrate of the Galvatron reproduction. The
//! paper's planner never touches CUDA directly — it consumes *capacities and
//! bandwidths* of a device cluster and the analytic cost of NCCL collectives.
//! We model exactly that:
//!
//! * [`GpuSpec`] — a device class (memory capacity, sustained FLOP/s).
//! * [`ClusterTopology`] — a hierarchy of device "islands" joined by links of
//!   decreasing bandwidth (NVLink < PCIe < InfiniBand < Ethernet), mirroring
//!   the paper's *Takeaway #1* notion of islands.
//! * [`collectives`] — ring-algorithm α–β cost models for `all-reduce`,
//!   `all-gather`, `reduce-scatter`, `broadcast` and point-to-point sends,
//!   the same closed forms Galvatron's estimator uses ("size of tensor
//!   divided by the inter-device connection's bandwidth", §3.4).
//! * [`CommGroupPool`] — the pre-constructed communication-group pool of §4
//!   ("Galvatron maintains a global communication group pool which is created
//!   in advance and contains all groups that might be used").
//! * [`presets`] — the three calibrated testbeds of the evaluation:
//!   8× RTX TITAN (PCIe 3.0), 2×8 RTX TITAN (100 Gb InfiniBand) and
//!   8×8 A100 (NVLink + InfiniBand).

#![warn(missing_docs)]

pub mod collectives;
pub mod device_type;
pub mod group;
pub mod link;
pub mod presets;
pub mod topology;

pub use collectives::{CollectiveKind, CollectiveOp};
pub use device_type::{island_cluster, mix_label, mixed_a100_rtx_cluster, DeviceType};
pub use group::{CommGroup, CommGroupPool, GroupId};
pub use link::{Link, LinkClass};
pub use presets::{a100_cluster, rtx_titan_node, rtx_titan_nodes, TestbedPreset};
pub use topology::{
    ClusterError, ClusterTopology, DegradedTopology, DeviceId, GpuSpec, TopologyLevel,
};

/// One binary gigabyte, the unit memory budgets are quoted in throughout the
/// paper ("8G", "12G", ...).
pub const GIB: u64 = 1 << 30;

/// One binary megabyte.
pub const MIB: u64 = 1 << 20;
