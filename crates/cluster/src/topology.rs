//! Hierarchical cluster topology: devices, islands and the links between them.

use crate::link::Link;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a device (GPU) in the cluster. Devices are numbered
/// `0..n` such that consecutive ids share the fastest links — the same
/// convention NCCL ranks follow in practice.
pub type DeviceId = usize;

/// Specification of one GPU class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Human-readable device name ("RTX TITAN", "A100-SXM4-40GB", ...).
    pub name: String,
    /// Physical device memory in bytes. Experiments additionally impose a
    /// *budget* below this (the paper's 8/12/16/20 GB columns).
    pub memory_bytes: u64,
    /// Sustained dense-GEMM throughput in FLOP/s (peak × achievable
    /// efficiency); what a profiled per-sample time is derived from.
    pub sustained_flops: f64,
    /// Framework overhead resident on every device (CUDA context, NCCL
    /// buffers, allocator slack) in bytes; subtracted from any budget.
    pub framework_overhead_bytes: u64,
    /// Rental price of one device in $/hour, the unit cloud GPU pricing is
    /// quoted in. `0.0` (the default, and what specs serialized before this
    /// field existed deserialize to) means "unpriced": throughput-per-dollar
    /// objectives fall back to plain throughput, and the fingerprint ignores
    /// the field so every pre-existing cache key is preserved.
    #[serde(default)]
    pub price_per_hour: f64,
}

impl GpuSpec {
    /// The paper's main testbed device: NVIDIA RTX TITAN, 24 GB, ~16.3
    /// TFLOP/s fp32 peak at ~36% sustained end-to-end training efficiency
    /// (calibrated against Table 1's pure-strategy rows).
    pub fn rtx_titan() -> Self {
        GpuSpec {
            name: "RTX TITAN".to_string(),
            memory_bytes: 24 * crate::GIB,
            sustained_flops: 16.3e12 * 0.36,
            framework_overhead_bytes: 900 * crate::MIB,
            price_per_hour: 0.0,
        }
    }

    /// The 64-GPU testbed device: NVIDIA A100 (TF32 tensor-core training,
    /// ~156 TFLOP/s peak at ~40% sustained).
    pub fn a100() -> Self {
        GpuSpec {
            name: "A100".to_string(),
            memory_bytes: 40 * crate::GIB,
            sustained_flops: 156.0e12 * 0.40,
            framework_overhead_bytes: 1200 * crate::MIB,
            price_per_hour: 0.0,
        }
    }

    /// This spec with a rental price attached, $/device-hour. Pricing a
    /// spec changes its [`fingerprint`](ClusterTopology::fingerprint)
    /// contribution (differently priced clusters must never share a cache
    /// key); a price of `0.0` leaves the spec — and the fingerprint —
    /// exactly as it was.
    pub fn priced(mut self, price_per_hour: f64) -> Self {
        self.price_per_hour = price_per_hour;
        self
    }
}

/// One level of the topology hierarchy.
///
/// A level groups `group_size` devices (cumulative, counted in devices — not
/// in sub-groups) behind a shared [`Link`]. Levels are ordered innermost
/// first; `group_size` must strictly increase and each level's size must be
/// a multiple of the previous one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyLevel {
    /// Number of devices in one group at this level.
    pub group_size: usize,
    /// The interconnect joining devices of this level that are *not* already
    /// joined by an inner level.
    pub link: Link,
}

/// Errors constructing or querying a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The topology has no levels.
    EmptyTopology,
    /// Level sizes must strictly increase and divide evenly.
    InvalidLevelSizes {
        /// The offending level index.
        level: usize,
    },
    /// The outermost level size must equal the device count.
    SizeMismatch {
        /// Devices covered by the outermost level.
        covered: usize,
        /// Devices declared.
        declared: usize,
    },
    /// A device id that is out of range.
    UnknownDevice(DeviceId),
    /// A communication group with fewer than two members.
    DegenerateGroup,
    /// A level index that is out of range.
    UnknownLevel(usize),
    /// Removing devices left no usable cluster (fewer than two devices
    /// after island equalization).
    NoSurvivors,
    /// A device spec with a physically meaningless field (zero/NaN peak
    /// FLOPS, zero memory, negative or NaN price). `device` is `None` for
    /// the cluster-wide primary spec, `Some(id)` for a per-device spec.
    InvalidDeviceSpec {
        /// The offending device, if a per-device spec.
        device: Option<DeviceId>,
        /// The offending field.
        field: &'static str,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::EmptyTopology => write!(f, "topology has no levels"),
            ClusterError::InvalidLevelSizes { level } => {
                write!(f, "level {level} does not nest inside its successor")
            }
            ClusterError::SizeMismatch { covered, declared } => write!(
                f,
                "outermost level covers {covered} devices but {declared} were declared"
            ),
            ClusterError::UnknownDevice(d) => write!(f, "device {d} is out of range"),
            ClusterError::DegenerateGroup => {
                write!(f, "communication groups need at least two members")
            }
            ClusterError::UnknownLevel(l) => write!(f, "level {l} is out of range"),
            ClusterError::NoSurvivors => {
                write!(f, "no usable cluster survives the device removal")
            }
            ClusterError::InvalidDeviceSpec { device, field } => match device {
                Some(d) => write!(f, "device {d} has an invalid spec: {field}"),
                None => write!(f, "the cluster device spec is invalid: {field}"),
            },
        }
    }
}

impl std::error::Error for ClusterError {}

/// The per-field device-spec sanity checks behind
/// [`ClusterTopology::validate`].
fn validate_spec(spec: &GpuSpec, device: Option<DeviceId>) -> Result<(), ClusterError> {
    let bad = |field: &'static str| ClusterError::InvalidDeviceSpec { device, field };
    if !spec.sustained_flops.is_finite() || spec.sustained_flops <= 0.0 {
        return Err(bad("sustained_flops must be finite and positive"));
    }
    if spec.memory_bytes == 0 {
        return Err(bad("memory_bytes must be non-zero"));
    }
    if !spec.price_per_hour.is_finite() || spec.price_per_hour < 0.0 {
        return Err(bad("price_per_hour must be finite and non-negative"));
    }
    Ok(())
}

/// A homogeneous, hierarchical cluster of GPUs.
///
/// The hierarchy captures the paper's "device islands": consecutive device
/// ids share inner (fast) levels, and communication between far-apart ids
/// pays the outer (slow) links. A flat 8-GPU PCIe box is one level; the
/// 2×8 testbed is `[(8, PCIe3), (16, InfiniBand)]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTopology {
    gpu: GpuSpec,
    n_devices: usize,
    levels: Vec<TopologyLevel>,
    /// Per-device specs for heterogeneous clusters (the paper's §6 future
    /// work); `None` means every device is `gpu`.
    #[serde(default)]
    device_specs: Option<Vec<GpuSpec>>,
}

impl ClusterTopology {
    /// Build a topology from the innermost-first level list.
    pub fn new(
        gpu: GpuSpec,
        n_devices: usize,
        levels: Vec<TopologyLevel>,
    ) -> Result<Self, ClusterError> {
        if levels.is_empty() {
            return Err(ClusterError::EmptyTopology);
        }
        let mut prev = 1usize;
        for (i, level) in levels.iter().enumerate() {
            if level.group_size <= prev || level.group_size % prev != 0 {
                return Err(ClusterError::InvalidLevelSizes { level: i });
            }
            prev = level.group_size;
        }
        if prev != n_devices {
            return Err(ClusterError::SizeMismatch {
                covered: prev,
                declared: n_devices,
            });
        }
        Ok(ClusterTopology {
            gpu,
            n_devices,
            levels,
            device_specs: None,
        })
    }

    /// Build a **heterogeneous** topology: one [`GpuSpec`] per device (the
    /// paper's §6 "heterogeneous environments" future work). Device order
    /// follows the id convention: consecutive ids share the fastest links.
    pub fn heterogeneous(
        specs: Vec<GpuSpec>,
        levels: Vec<TopologyLevel>,
    ) -> Result<Self, ClusterError> {
        let n = specs.len();
        let primary = specs.first().cloned().ok_or(ClusterError::EmptyTopology)?;
        let mut topo = ClusterTopology::new(primary, n, levels)?;
        topo.device_specs = Some(specs);
        Ok(topo)
    }

    /// Re-run the constructor invariants on an already-built value.
    ///
    /// Serde deserialization fills the fields directly and never goes
    /// through [`ClusterTopology::new`], so a topology received over a
    /// wire (the plan-serving daemon's request path) or read from disk can
    /// violate every structural invariant the rest of the stack assumes.
    /// Call this before planning on an untrusted topology; it checks the
    /// level nesting, the device-count cover, that (heterogeneous clusters)
    /// exactly one spec per device is present, and that every device spec
    /// is physically meaningful — positive finite peak FLOPS, non-zero
    /// memory, and a finite non-negative price (a NaN FLOPS rate or a
    /// negative $/hour would silently poison every downstream cost and
    /// throughput-per-dollar computation).
    pub fn validate(&self) -> Result<(), ClusterError> {
        ClusterTopology::new(self.gpu.clone(), self.n_devices, self.levels.clone())?;
        validate_spec(&self.gpu, None)?;
        if let Some(specs) = &self.device_specs {
            if specs.len() != self.n_devices {
                return Err(ClusterError::SizeMismatch {
                    covered: specs.len(),
                    declared: self.n_devices,
                });
            }
            for (device, spec) in specs.iter().enumerate() {
                validate_spec(spec, Some(device))?;
            }
        }
        Ok(())
    }

    /// Whether per-device specs differ.
    pub fn is_heterogeneous(&self) -> bool {
        self.device_specs
            .as_ref()
            .is_some_and(|specs| specs.iter().any(|s| s != &self.gpu))
    }

    /// The spec of one device.
    pub fn gpu_of(&self, device: DeviceId) -> Result<&GpuSpec, ClusterError> {
        if device >= self.n_devices {
            return Err(ClusterError::UnknownDevice(device));
        }
        Ok(match &self.device_specs {
            Some(specs) => &specs[device],
            None => &self.gpu,
        })
    }

    /// Sustained FLOP/s that gates a lock-step group of devices
    /// `base..base + count`: the slowest member (data/tensor-parallel
    /// partners wait for each other every layer).
    pub fn group_sustained_flops(&self, base: DeviceId, count: usize) -> Result<f64, ClusterError> {
        if base + count > self.n_devices || count == 0 {
            return Err(ClusterError::UnknownDevice(base + count.max(1) - 1));
        }
        Ok(match &self.device_specs {
            Some(specs) => specs[base..base + count]
                .iter()
                .map(|s| s.sustained_flops)
                .fold(f64::INFINITY, f64::min),
            None => self.gpu.sustained_flops,
        })
    }

    /// A single-level (flat) topology: `n` devices behind one link.
    pub fn flat(gpu: GpuSpec, n_devices: usize, link: Link) -> Result<Self, ClusterError> {
        ClusterTopology::new(
            gpu,
            n_devices,
            vec![TopologyLevel {
                group_size: n_devices,
                link,
            }],
        )
    }

    /// Number of devices in the cluster.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// The GPU specification (homogeneous cluster).
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The level list, innermost first.
    pub fn levels(&self) -> &[TopologyLevel] {
        &self.levels
    }

    /// The link used between devices `a` and `b`: the innermost level whose
    /// groups contain both.
    pub fn link_between(&self, a: DeviceId, b: DeviceId) -> Result<Link, ClusterError> {
        if a >= self.n_devices {
            return Err(ClusterError::UnknownDevice(a));
        }
        if b >= self.n_devices {
            return Err(ClusterError::UnknownDevice(b));
        }
        for level in &self.levels {
            if a / level.group_size == b / level.group_size {
                return Ok(level.link);
            }
        }
        // Unreachable: the outermost level covers all devices.
        Ok(self.levels.last().expect("non-empty levels").link)
    }

    /// The bottleneck link of a device set: the slowest pairwise link.
    /// Ring collectives over the set are rate-limited by this link.
    pub fn bottleneck_link(&self, devices: &[DeviceId]) -> Result<Link, ClusterError> {
        if devices.len() < 2 {
            return Err(ClusterError::DegenerateGroup);
        }
        let min = devices.iter().copied().min().expect("non-empty");
        let max = devices.iter().copied().max().expect("non-empty");
        // With nested power-of-two levels, the bottleneck between any pair
        // equals the level spanned by the extremes.
        self.link_between(min, max)
    }

    /// Size of the innermost "island" (devices joined by intra-node links).
    /// This is the granularity *Takeaway #1* places pipeline cuts around.
    pub fn island_size(&self) -> usize {
        self.levels
            .iter()
            .take_while(|l| l.link.class.is_intra_node())
            .map(|l| l.group_size)
            .max()
            .unwrap_or(1)
    }

    /// Enumerate the contiguous device group of `size` devices starting at
    /// `start` (convenience for strategy axis → device mapping).
    pub fn contiguous_group(
        &self,
        start: DeviceId,
        size: usize,
    ) -> Result<Vec<DeviceId>, ClusterError> {
        if start + size > self.n_devices {
            return Err(ClusterError::UnknownDevice(start + size - 1));
        }
        Ok((start..start + size).collect())
    }

    /// The per-device memory budget remaining after framework overhead, given
    /// an experiment budget `budget_bytes` (e.g. 8 GiB). Returns zero if the
    /// overhead exceeds the budget. Heterogeneous clusters use the largest
    /// overhead (the budget must hold everywhere).
    pub fn usable_budget(&self, budget_bytes: u64) -> u64 {
        let overhead = match &self.device_specs {
            Some(specs) => specs
                .iter()
                .map(|s| s.framework_overhead_bytes)
                .max()
                .unwrap_or(self.gpu.framework_overhead_bytes),
            None => self.gpu.framework_overhead_bytes,
        };
        budget_bytes.saturating_sub(overhead)
    }

    /// Per-stage usable memory budgets for a pipeline of `pp` equal,
    /// contiguous device groups (stage `i` owns devices
    /// `i·(n/pp) .. (i+1)·(n/pp)`, the layout every plan uses).
    ///
    /// Homogeneous clusters return the legacy
    /// [`usable_budget`](Self::usable_budget) for every stage —
    /// bit-identical values, so every existing DP query and plan is
    /// preserved. Heterogeneous clusters cap each stage at its own island's
    /// physical memory: per member, `min(budget, memory) − overhead`, and
    /// the stage gets the minimum over its members (lock-step partners must
    /// all hold the stage's state). A stage can therefore never be granted
    /// more activation memory than the device type hosting it provides.
    pub fn stage_usable_budgets(&self, budget_bytes: u64, pp: usize) -> Vec<u64> {
        assert!(
            pp > 0 && self.n_devices.is_multiple_of(pp),
            "pp {pp} must evenly divide {} devices",
            self.n_devices
        );
        if !self.is_heterogeneous() {
            return vec![self.usable_budget(budget_bytes); pp];
        }
        let specs = self
            .device_specs
            .as_ref()
            .expect("heterogeneous clusters carry per-device specs");
        let group = self.n_devices / pp;
        (0..pp)
            .map(|i| {
                specs[i * group..(i + 1) * group]
                    .iter()
                    .map(|s| {
                        budget_bytes
                            .min(s.memory_bytes)
                            .saturating_sub(s.framework_overhead_bytes)
                    })
                    .min()
                    .expect("non-empty stage group")
            })
            .collect()
    }

    /// Total rental price of the cluster in $/hour: the sum of every
    /// device's [`GpuSpec::price_per_hour`]. `0.0` for unpriced clusters.
    pub fn price_per_hour(&self) -> f64 {
        match &self.device_specs {
            Some(specs) => specs.iter().map(|s| s.price_per_hour).sum(),
            None => self.gpu.price_per_hour * self.n_devices as f64,
        }
    }

    /// A stable 64-bit fingerprint of the topology: device count, level
    /// structure, link classes/bandwidths/latencies and per-device specs.
    /// Two topologies with the same fingerprint present the same planning
    /// problem; any degradation (lost device, slowed device, throttled
    /// link) changes it. Used to key shared planner caches.
    ///
    /// ## Stability contract
    ///
    /// The fingerprint is a **persistent identity**, not a session token:
    /// the plan-serving daemon keys its response cache and single-flight
    /// coalescing on it, and persists those keys to disk for warm
    /// restarts. Holding that up requires, and this function guarantees:
    ///
    /// 1. **Restart stability** — the value is a pure function of the
    ///    topology's semantic fields, computed with an explicitly coded
    ///    FNV-1a over a fixed field order and little-endian encodings.
    ///    It never depends on `std`'s `DefaultHasher` (randomized per
    ///    process), pointer values, or field memory layout, so the same
    ///    topology fingerprints identically in every process, on every
    ///    platform, forever (`cluster/tests/fingerprint_stability.rs`
    ///    pins golden values).
    /// 2. **Serialization round-trips** — serde round-trips preserve every
    ///    fingerprinted field exactly (floats travel as shortest-round-trip
    ///    decimals, which re-parse to identical bits), so
    ///    `deserialize(serialize(t)).fingerprint() == t.fingerprint()`.
    /// 3. **Degradations separate** — any change to a fingerprinted field
    ///    (a lost device, a throttled link, a straggler spec) changes the
    ///    input byte stream; collisions are the generic 64-bit birthday
    ///    bound, not structural.
    ///
    /// Changing the field order, the encoding, or the hash constants below
    /// is a **breaking change** for every persisted cache: bump/invalidate
    /// persisted artifacts if it ever becomes necessary, and update the
    /// golden-value tests.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a, explicit so the value is stable across platforms and
        // std hasher changes.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&(self.n_devices as u64).to_le_bytes());
        for level in &self.levels {
            eat(&(level.group_size as u64).to_le_bytes());
            eat(format!("{:?}", level.link.class).as_bytes());
            eat(&level.link.bandwidth.to_bits().to_le_bytes());
            eat(&level.link.latency.to_bits().to_le_bytes());
        }
        let mut eat_spec = |spec: &GpuSpec| {
            eat(spec.name.as_bytes());
            eat(&spec.memory_bytes.to_le_bytes());
            eat(&spec.sustained_flops.to_bits().to_le_bytes());
            eat(&spec.framework_overhead_bytes.to_le_bytes());
            // Prices entered the spec after fingerprints were already
            // persisted as cache keys, so an unpriced spec (0.0, the serde
            // default) must hash exactly as it always did — the field is
            // eaten only when set, behind a marker byte so a priced spec
            // can never alias an unpriced one positionally.
            if spec.price_per_hour != 0.0 {
                eat(b"$");
                eat(&spec.price_per_hour.to_bits().to_le_bytes());
            }
        };
        eat_spec(&self.gpu);
        if let Some(specs) = &self.device_specs {
            for spec in specs {
                eat_spec(spec);
            }
        }
        h
    }

    /// Derive the surviving topology after `failed` devices are lost.
    ///
    /// The island hierarchy is preserved by **equalizing bottom-up**: at
    /// each level, every surviving group keeps the minimum surviving
    /// sub-unit count over all non-empty sibling groups, and the extra
    /// sub-units (highest ids first) are *benched* — alive but unused, so
    /// groups stay equal-sized and contiguous as [`ClusterTopology::new`]
    /// requires. Levels whose grouping collapses (one sub-unit per group)
    /// are dropped. Errors with [`ClusterError::NoSurvivors`] when fewer
    /// than two devices remain usable.
    pub fn without_devices(&self, failed: &[DeviceId]) -> Result<DegradedTopology, ClusterError> {
        for &d in failed {
            if d >= self.n_devices {
                return Err(ClusterError::UnknownDevice(d));
            }
        }
        let dead: std::collections::BTreeSet<DeviceId> = failed.iter().copied().collect();
        // `units[i]` is the sorted original-id device list of the i-th
        // surviving unit at the current level, innermost-first walk.
        let mut units: Vec<Vec<DeviceId>> = (0..self.n_devices)
            .filter(|d| !dead.contains(d))
            .map(|d| vec![d])
            .collect();
        let mut benched: Vec<DeviceId> = Vec::new();
        let mut new_levels: Vec<TopologyLevel> = Vec::new();
        let mut kept_per_unit = 1usize; // devices per unit *after* equalization

        for (li, level) in self.levels.iter().enumerate() {
            // Partition surviving units into this level's groups by the
            // original id range each group covers.
            let mut groups: Vec<Vec<Vec<DeviceId>>> = Vec::new();
            let mut current_group: Option<usize> = None;
            for unit in units.drain(..) {
                let gid = unit[0] / level.group_size;
                if current_group != Some(gid) {
                    groups.push(Vec::new());
                    current_group = Some(gid);
                }
                groups.last_mut().expect("just pushed").push(unit);
            }
            if groups.is_empty() {
                return Err(ClusterError::NoSurvivors);
            }
            let outermost = li + 1 == self.levels.len();
            let keep = if outermost {
                // One top group: no sibling to equalize against.
                groups.first().map(|g| g.len()).unwrap_or(0)
            } else {
                groups.iter().map(|g| g.len()).min().expect("non-empty")
            };
            for group in &mut groups {
                for extra in group.drain(keep..) {
                    benched.extend(extra);
                }
            }
            kept_per_unit *= keep;
            if keep > 1 {
                new_levels.push(TopologyLevel {
                    group_size: kept_per_unit,
                    link: level.link,
                });
            }
            units = groups
                .into_iter()
                .map(|g| g.into_iter().flatten().collect())
                .collect();
        }

        let survivors: Vec<DeviceId> = units.into_iter().flatten().collect();
        benched.sort_unstable();
        if survivors.len() < 2 {
            return Err(ClusterError::NoSurvivors);
        }
        // The walk above only grows sizes at levels that kept > 1
        // sub-units, so `new_levels` is strictly increasing; the outermost
        // entry covers every survivor by construction.
        debug_assert_eq!(
            new_levels.last().map(|l| l.group_size),
            Some(survivors.len())
        );
        let topology = match &self.device_specs {
            Some(specs) => ClusterTopology::heterogeneous(
                survivors.iter().map(|&d| specs[d].clone()).collect(),
                new_levels,
            )?,
            None => ClusterTopology::new(self.gpu.clone(), survivors.len(), new_levels)?,
        };
        Ok(DegradedTopology {
            topology,
            survivors,
            benched,
        })
    }

    /// A copy of this topology with the link at `level` (innermost-first
    /// index) throttled to `factor` of its bandwidth (`0 < factor ≤ 1`).
    pub fn with_degraded_link(&self, level: usize, factor: f64) -> Result<Self, ClusterError> {
        if level >= self.levels.len() {
            return Err(ClusterError::UnknownLevel(level));
        }
        assert!(
            factor > 0.0 && factor <= 1.0,
            "bandwidth factor must be in (0, 1], got {factor}"
        );
        let mut degraded = self.clone();
        degraded.levels[level].link.bandwidth *= factor;
        Ok(degraded)
    }

    /// A copy of this topology where `device` computes `slowdown`× slower
    /// (a straggler: thermal throttling, a failing HBM stack, a noisy
    /// neighbour). Materializes per-device specs if the cluster was
    /// homogeneous. `slowdown` must be ≥ 1.
    pub fn with_straggler(&self, device: DeviceId, slowdown: f64) -> Result<Self, ClusterError> {
        if device >= self.n_devices {
            return Err(ClusterError::UnknownDevice(device));
        }
        assert!(slowdown >= 1.0, "slowdown must be ≥ 1, got {slowdown}");
        let mut degraded = self.clone();
        let specs = degraded
            .device_specs
            .get_or_insert_with(|| vec![self.gpu.clone(); self.n_devices]);
        specs[device].sustained_flops /= slowdown;
        Ok(degraded)
    }
}

/// The result of [`ClusterTopology::without_devices`]: the surviving
/// topology plus the mapping between old and new device ids.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedTopology {
    /// The surviving cluster. Its device ids are dense (`0..survivors`);
    /// `survivors[new_id]` gives the original id.
    pub topology: ClusterTopology,
    /// Original ids of the devices used by the new topology, in new-id
    /// order (ascending).
    pub survivors: Vec<DeviceId>,
    /// Original ids of devices that are alive but benched by island
    /// equalization (ascending).
    pub benched: Vec<DeviceId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;

    fn two_nodes() -> ClusterTopology {
        ClusterTopology::new(
            GpuSpec::rtx_titan(),
            16,
            vec![
                TopologyLevel {
                    group_size: 8,
                    link: Link::of_class(LinkClass::Pcie3),
                },
                TopologyLevel {
                    group_size: 16,
                    link: Link::of_class(LinkClass::InfiniBand100),
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn flat_topology_links_everyone_equally() {
        let t = ClusterTopology::flat(GpuSpec::rtx_titan(), 8, LinkClass::Pcie3.into()).unwrap();
        for a in 0..8 {
            for b in 0..8 {
                if a != b {
                    assert_eq!(t.link_between(a, b).unwrap().class, LinkClass::Pcie3);
                }
            }
        }
    }

    #[test]
    fn hierarchical_lookup_picks_innermost_common_level() {
        let t = two_nodes();
        assert_eq!(t.link_between(0, 7).unwrap().class, LinkClass::Pcie3);
        assert_eq!(t.link_between(8, 15).unwrap().class, LinkClass::Pcie3);
        assert_eq!(
            t.link_between(0, 8).unwrap().class,
            LinkClass::InfiniBand100
        );
        assert_eq!(
            t.link_between(7, 8).unwrap().class,
            LinkClass::InfiniBand100
        );
    }

    #[test]
    fn bottleneck_of_cross_node_group_is_the_slow_link() {
        let t = two_nodes();
        let group: Vec<DeviceId> = (0..16).collect();
        assert_eq!(
            t.bottleneck_link(&group).unwrap().class,
            LinkClass::InfiniBand100
        );
        let inner: Vec<DeviceId> = (0..8).collect();
        assert_eq!(t.bottleneck_link(&inner).unwrap().class, LinkClass::Pcie3);
    }

    #[test]
    fn island_size_reflects_intra_node_levels() {
        let t = two_nodes();
        assert_eq!(t.island_size(), 8);
        let flat = ClusterTopology::flat(GpuSpec::rtx_titan(), 8, LinkClass::Pcie3.into()).unwrap();
        assert_eq!(flat.island_size(), 8);
    }

    #[test]
    fn invalid_levels_are_rejected() {
        let gpu = GpuSpec::rtx_titan();
        assert_eq!(
            ClusterTopology::new(gpu.clone(), 8, vec![]),
            Err(ClusterError::EmptyTopology)
        );
        // Non-nesting sizes.
        let bad = ClusterTopology::new(
            gpu.clone(),
            12,
            vec![
                TopologyLevel {
                    group_size: 8,
                    link: LinkClass::Pcie3.into(),
                },
                TopologyLevel {
                    group_size: 12,
                    link: LinkClass::InfiniBand100.into(),
                },
            ],
        );
        assert!(matches!(bad, Err(ClusterError::InvalidLevelSizes { .. })));
        // Outer level not covering all devices.
        let short = ClusterTopology::new(
            gpu,
            16,
            vec![TopologyLevel {
                group_size: 8,
                link: LinkClass::Pcie3.into(),
            }],
        );
        assert!(matches!(short, Err(ClusterError::SizeMismatch { .. })));
    }

    #[test]
    fn out_of_range_devices_error() {
        let t = two_nodes();
        assert_eq!(t.link_between(0, 16), Err(ClusterError::UnknownDevice(16)));
        assert_eq!(
            t.bottleneck_link(&[0]).unwrap_err(),
            ClusterError::DegenerateGroup
        );
    }

    #[test]
    fn killing_tail_devices_shrinks_a_flat_node() {
        let t = ClusterTopology::flat(GpuSpec::rtx_titan(), 8, LinkClass::Pcie3.into()).unwrap();
        let d = t.without_devices(&[6, 7]).unwrap();
        assert_eq!(d.survivors, vec![0, 1, 2, 3, 4, 5]);
        assert!(d.benched.is_empty());
        assert_eq!(d.topology.n_devices(), 6);
        assert_eq!(d.topology.levels().len(), 1);
        assert_eq!(d.topology.levels()[0].group_size, 6);
    }

    #[test]
    fn island_equalization_benches_the_surplus() {
        // Kill one device of node 0: node 1 must bench one device so both
        // islands stay equal-sized (lock-step pipeline stages).
        let t = two_nodes();
        let d = t.without_devices(&[3]).unwrap();
        assert_eq!(
            d.survivors,
            vec![0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]
        );
        assert_eq!(d.benched, vec![15]);
        assert_eq!(d.topology.n_devices(), 14);
        let sizes: Vec<usize> = d.topology.levels().iter().map(|l| l.group_size).collect();
        assert_eq!(sizes, vec![7, 14]);
        // Hierarchy preserved: intra-node stays PCIe, cross-island stays IB.
        assert_eq!(
            d.topology.link_between(0, 6).unwrap().class,
            LinkClass::Pcie3
        );
        assert_eq!(
            d.topology.link_between(0, 7).unwrap().class,
            LinkClass::InfiniBand100
        );
    }

    #[test]
    fn losing_a_whole_island_drops_the_outer_level() {
        let t = two_nodes();
        let d = t.without_devices(&(0..8).collect::<Vec<_>>()).unwrap();
        assert_eq!(d.survivors, (8..16).collect::<Vec<_>>());
        assert!(d.benched.is_empty());
        assert_eq!(d.topology.n_devices(), 8);
        // The InfiniBand level is gone: one island remains.
        assert_eq!(d.topology.levels().len(), 1);
        assert_eq!(d.topology.levels()[0].link.class, LinkClass::Pcie3);
    }

    #[test]
    fn too_few_survivors_is_an_error() {
        let t = ClusterTopology::flat(GpuSpec::rtx_titan(), 8, LinkClass::Pcie3.into()).unwrap();
        assert_eq!(
            t.without_devices(&(0..7).collect::<Vec<_>>()),
            Err(ClusterError::NoSurvivors)
        );
        assert_eq!(
            t.without_devices(&(0..8).collect::<Vec<_>>()),
            Err(ClusterError::NoSurvivors)
        );
        assert_eq!(
            t.without_devices(&[99]),
            Err(ClusterError::UnknownDevice(99))
        );
    }

    #[test]
    fn degraded_specs_follow_the_survivors() {
        let mut specs = vec![GpuSpec::rtx_titan(); 4];
        specs[2].sustained_flops = 1e12;
        let t = ClusterTopology::heterogeneous(
            specs,
            vec![TopologyLevel {
                group_size: 4,
                link: LinkClass::Pcie3.into(),
            }],
        )
        .unwrap();
        let d = t.without_devices(&[1]).unwrap();
        assert_eq!(d.survivors, vec![0, 2, 3]);
        // Old device 2 is new device 1 and keeps its slow spec.
        assert_eq!(d.topology.gpu_of(1).unwrap().sustained_flops, 1e12);
    }

    #[test]
    fn degradations_change_the_fingerprint() {
        let t = two_nodes();
        assert_eq!(t.fingerprint(), t.clone().fingerprint());
        let slow_link = t.with_degraded_link(1, 0.25).unwrap();
        let straggler = t.with_straggler(5, 3.0).unwrap();
        let smaller = t.without_devices(&[0]).unwrap().topology;
        let prints = [
            t.fingerprint(),
            slow_link.fingerprint(),
            straggler.fingerprint(),
            smaller.fingerprint(),
        ];
        for i in 0..prints.len() {
            for j in i + 1..prints.len() {
                assert_ne!(prints[i], prints[j], "fingerprints {i} and {j} collide");
            }
        }
    }

    #[test]
    fn link_degradation_scales_bandwidth_in_place() {
        let t = two_nodes();
        let d = t.with_degraded_link(0, 0.5).unwrap();
        assert_eq!(
            d.levels()[0].link.bandwidth,
            t.levels()[0].link.bandwidth * 0.5
        );
        assert_eq!(d.levels()[1].link, t.levels()[1].link);
        assert_eq!(
            t.with_degraded_link(7, 0.5),
            Err(ClusterError::UnknownLevel(7))
        );
    }

    #[test]
    fn stragglers_gate_their_lock_step_group() {
        let t = two_nodes();
        let d = t.with_straggler(5, 4.0).unwrap();
        assert!(d.is_heterogeneous());
        let healthy = t.group_sustained_flops(0, 8).unwrap();
        assert_eq!(d.group_sustained_flops(0, 8).unwrap(), healthy / 4.0);
        assert_eq!(d.group_sustained_flops(8, 8).unwrap(), healthy);
    }

    fn flat_with_spec(spec: GpuSpec) -> ClusterTopology {
        ClusterTopology::flat(spec, 8, LinkClass::Pcie3.into()).unwrap()
    }

    #[test]
    fn validate_rejects_zero_flops() {
        let mut spec = GpuSpec::rtx_titan();
        spec.sustained_flops = 0.0;
        assert_eq!(
            flat_with_spec(spec).validate(),
            Err(ClusterError::InvalidDeviceSpec {
                device: None,
                field: "sustained_flops must be finite and positive",
            })
        );
    }

    #[test]
    fn validate_rejects_nan_flops() {
        let mut spec = GpuSpec::rtx_titan();
        spec.sustained_flops = f64::NAN;
        assert!(matches!(
            flat_with_spec(spec).validate(),
            Err(ClusterError::InvalidDeviceSpec { device: None, .. })
        ));
    }

    #[test]
    fn validate_rejects_zero_memory() {
        let mut spec = GpuSpec::rtx_titan();
        spec.memory_bytes = 0;
        assert_eq!(
            flat_with_spec(spec).validate(),
            Err(ClusterError::InvalidDeviceSpec {
                device: None,
                field: "memory_bytes must be non-zero",
            })
        );
    }

    #[test]
    fn validate_rejects_negative_price() {
        let spec = GpuSpec::rtx_titan().priced(-0.01);
        assert_eq!(
            flat_with_spec(spec).validate(),
            Err(ClusterError::InvalidDeviceSpec {
                device: None,
                field: "price_per_hour must be finite and non-negative",
            })
        );
    }

    #[test]
    fn validate_reports_the_offending_per_device_spec() {
        let mut specs = vec![GpuSpec::rtx_titan(); 4];
        specs[2].sustained_flops = f64::INFINITY;
        let t = ClusterTopology::heterogeneous(
            specs,
            vec![TopologyLevel {
                group_size: 4,
                link: LinkClass::Pcie3.into(),
            }],
        )
        .unwrap();
        assert!(matches!(
            t.validate(),
            Err(ClusterError::InvalidDeviceSpec {
                device: Some(2),
                ..
            })
        ));
        // Valid priced specs pass.
        let priced = flat_with_spec(GpuSpec::rtx_titan().priced(0.9));
        priced.validate().unwrap();
    }

    #[test]
    fn pricing_changes_the_fingerprint_but_zero_price_does_not() {
        let unpriced = flat_with_spec(GpuSpec::rtx_titan());
        let zero = flat_with_spec(GpuSpec::rtx_titan().priced(0.0));
        let priced = flat_with_spec(GpuSpec::rtx_titan().priced(0.9));
        let pricier = flat_with_spec(GpuSpec::rtx_titan().priced(1.1));
        assert_eq!(unpriced.fingerprint(), zero.fingerprint());
        assert_ne!(unpriced.fingerprint(), priced.fingerprint());
        assert_ne!(priced.fingerprint(), pricier.fingerprint());
    }

    #[test]
    fn cluster_price_sums_device_prices() {
        assert_eq!(flat_with_spec(GpuSpec::rtx_titan()).price_per_hour(), 0.0);
        let homo = flat_with_spec(GpuSpec::rtx_titan().priced(0.5));
        assert_eq!(homo.price_per_hour(), 4.0);
        let mut specs = vec![GpuSpec::a100().priced(3.0); 2];
        specs.extend(vec![GpuSpec::rtx_titan().priced(0.5); 2]);
        let mixed = ClusterTopology::heterogeneous(
            specs,
            vec![TopologyLevel {
                group_size: 4,
                link: LinkClass::Pcie3.into(),
            }],
        )
        .unwrap();
        assert_eq!(mixed.price_per_hour(), 7.0);
    }

    #[test]
    fn homogeneous_stage_budgets_match_the_legacy_value_exactly() {
        let t = two_nodes();
        let budget = 8 * crate::GIB;
        for pp in [1usize, 2, 4, 8, 16] {
            let budgets = t.stage_usable_budgets(budget, pp);
            assert_eq!(budgets, vec![t.usable_budget(budget); pp]);
        }
        // Stragglers are heterogeneous in speed but share memory/overhead:
        // budgets at or below physical memory are unchanged.
        let straggler = t.with_straggler(3, 2.0).unwrap();
        assert_eq!(
            straggler.stage_usable_budgets(budget, 4),
            vec![t.usable_budget(budget); 4]
        );
    }

    #[test]
    fn heterogeneous_stage_budgets_cap_at_island_memory() {
        let mut specs = vec![GpuSpec::a100(); 4];
        specs.extend(vec![GpuSpec::rtx_titan(); 4]);
        let t = ClusterTopology::heterogeneous(
            specs,
            vec![TopologyLevel {
                group_size: 8,
                link: LinkClass::Pcie3.into(),
            }],
        )
        .unwrap();
        // A 32 GiB ask: the A100 stage gets the full budget minus its
        // overhead, the TITAN stage is capped at its 24 GiB card.
        let budgets = t.stage_usable_budgets(32 * crate::GIB, 2);
        let a100 = GpuSpec::a100();
        let titan = GpuSpec::rtx_titan();
        assert_eq!(
            budgets,
            vec![
                32 * crate::GIB - a100.framework_overhead_bytes,
                titan.memory_bytes - titan.framework_overhead_bytes,
            ]
        );
        // One stage spanning both islands is gated by the smaller card
        // with the larger overhead pattern applied per member.
        let one = t.stage_usable_budgets(32 * crate::GIB, 1);
        assert_eq!(
            one,
            vec![titan.memory_bytes - titan.framework_overhead_bytes]
        );
    }

    #[test]
    fn usable_budget_subtracts_overhead() {
        let t = two_nodes();
        let budget = 8 * crate::GIB;
        assert_eq!(
            t.usable_budget(budget),
            budget - t.gpu().framework_overhead_bytes
        );
        assert_eq!(t.usable_budget(100), 0);
    }
}
