//! Analytic cost models for NCCL-style ring collectives.
//!
//! All formulas are the standard ring-algorithm α–β costs; `n` is the group
//! size, `V` the payload in bytes, `B` the bottleneck bus bandwidth and `α`
//! the per-hop latency:
//!
//! | collective       | steps      | wire traffic        |
//! |------------------|------------|---------------------|
//! | all-reduce       | `2(n−1)`   | `2(n−1)/n · V / B`  |
//! | all-gather       | `n−1`      | `(n−1)/n · V / B`   |
//! | reduce-scatter   | `n−1`      | `(n−1)/n · V / B`   |
//! | broadcast        | `n−1`      | `(n−1)/n · V / B`   |
//! | point-to-point   | `1`        | `V / B`             |
//!
//! The identity `all-reduce = all-gather + reduce-scatter` underlies the
//! paper's *Takeaway #3* (SDP's 3 half-collectives cost 1.5× DP's
//! all-reduce); it is asserted in the tests below.

use crate::link::Link;
use serde::{Deserialize, Serialize};

/// The collective primitives Galvatron's strategies generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Reduce everyone's buffer and leave the result everywhere
    /// (DP gradient synchronisation, TP activation synchronisation).
    AllReduce,
    /// Concatenate everyone's shard everywhere (SDP parameter gathering).
    AllGather,
    /// Reduce and leave each rank one shard (SDP gradient update).
    ReduceScatter,
    /// One rank's buffer to everyone.
    Broadcast,
    /// Single sender to single receiver (pipeline boundary activations).
    PointToPoint,
}

impl CollectiveKind {
    /// Bytes that cross the bottleneck link per byte of payload, for a group
    /// of `n` ranks — the β-coefficient of the ring algorithm.
    pub fn traffic_factor(self, n: usize) -> f64 {
        debug_assert!(n >= 1);
        if n <= 1 {
            // Communication with yourself is free (groups of one arise when a
            // paradigm's degree is 1 and are eliminated upstream, but the
            // cost model stays total).
            return 0.0;
        }
        let nf = n as f64;
        match self {
            CollectiveKind::AllReduce => 2.0 * (nf - 1.0) / nf,
            CollectiveKind::AllGather
            | CollectiveKind::ReduceScatter
            | CollectiveKind::Broadcast => (nf - 1.0) / nf,
            CollectiveKind::PointToPoint => 1.0,
        }
    }

    /// Number of latency-bound ring steps for a group of `n` ranks.
    pub fn steps(self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        match self {
            CollectiveKind::AllReduce => 2 * (n - 1),
            CollectiveKind::AllGather
            | CollectiveKind::ReduceScatter
            | CollectiveKind::Broadcast => n - 1,
            CollectiveKind::PointToPoint => 1,
        }
    }
}

/// A fully-specified collective operation: kind, group size, payload and the
/// bottleneck link it runs over.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectiveOp {
    /// Which primitive.
    pub kind: CollectiveKind,
    /// Number of participating ranks.
    pub group_size: usize,
    /// Payload per rank in bytes (the logical tensor size: for all-gather /
    /// reduce-scatter this is the *full* tensor, matching NCCL semantics
    /// where each rank contributes/receives `V/n`).
    pub payload_bytes: u64,
    /// The bottleneck link of the communication group.
    pub link: Link,
}

impl CollectiveOp {
    /// Wall-clock cost of the collective in seconds (ring α–β model — the
    /// paper's estimator).
    pub fn time(&self) -> f64 {
        let alpha = self.link.latency * self.kind.steps(self.group_size) as f64;
        let beta = self.kind.traffic_factor(self.group_size) * self.payload_bytes as f64
            / self.link.bandwidth;
        alpha + beta
    }

    /// The β-only (bandwidth) component — useful when latency is amortised
    /// by bucketing, as NCCL does for gradient all-reduce.
    pub fn bandwidth_time(&self) -> f64 {
        self.kind.traffic_factor(self.group_size) * self.payload_bytes as f64 / self.link.bandwidth
    }
}

/// Convenience constructor for an all-reduce over a group.
pub fn all_reduce(group_size: usize, payload_bytes: u64, link: Link) -> CollectiveOp {
    CollectiveOp {
        kind: CollectiveKind::AllReduce,
        group_size,
        payload_bytes,
        link,
    }
}

/// Convenience constructor for an all-gather over a group.
pub fn all_gather(group_size: usize, payload_bytes: u64, link: Link) -> CollectiveOp {
    CollectiveOp {
        kind: CollectiveKind::AllGather,
        group_size,
        payload_bytes,
        link,
    }
}

/// Convenience constructor for a reduce-scatter over a group.
pub fn reduce_scatter(group_size: usize, payload_bytes: u64, link: Link) -> CollectiveOp {
    CollectiveOp {
        kind: CollectiveKind::ReduceScatter,
        group_size,
        payload_bytes,
        link,
    }
}

/// Convenience constructor for a point-to-point transfer.
pub fn point_to_point(payload_bytes: u64, link: Link) -> CollectiveOp {
    CollectiveOp {
        kind: CollectiveKind::PointToPoint,
        group_size: 2,
        payload_bytes,
        link,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;
    use proptest::prelude::*;

    fn pcie() -> Link {
        Link::of_class(LinkClass::Pcie3)
    }

    #[test]
    fn allreduce_equals_allgather_plus_reducescatter() {
        // The identity behind Takeaway #3.
        for n in [2usize, 4, 8, 16, 64] {
            let v = 512 * crate::MIB;
            let ar = all_reduce(n, v, pcie()).time();
            let ag = all_gather(n, v, pcie()).time();
            let rs = reduce_scatter(n, v, pcie()).time();
            assert!((ar - (ag + rs)).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn sdp_traffic_is_1_5x_dp_traffic() {
        // SDP = 2× all-gather + 1× reduce-scatter = 1.5× all-reduce (β terms).
        let n = 8;
        let v = 256 * crate::MIB;
        let dp = all_reduce(n, v, pcie()).bandwidth_time();
        let sdp = 2.0 * all_gather(n, v, pcie()).bandwidth_time()
            + reduce_scatter(n, v, pcie()).bandwidth_time();
        assert!((sdp / dp - 1.5).abs() < 1e-12);
    }

    #[test]
    fn single_rank_groups_are_free() {
        for kind in [
            CollectiveKind::AllReduce,
            CollectiveKind::AllGather,
            CollectiveKind::ReduceScatter,
            CollectiveKind::Broadcast,
        ] {
            let op = CollectiveOp {
                kind,
                group_size: 1,
                payload_bytes: crate::GIB,
                link: pcie(),
            };
            assert_eq!(op.time(), 0.0);
        }
    }

    #[test]
    fn point_to_point_matches_link_transfer() {
        let v = 64 * crate::MIB;
        let op = point_to_point(v, pcie());
        assert!((op.time() - pcie().transfer_time(v)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn traffic_factor_bounded_and_monotone(n in 2usize..512, kind_idx in 0usize..4) {
            let kind = [
                CollectiveKind::AllReduce,
                CollectiveKind::AllGather,
                CollectiveKind::ReduceScatter,
                CollectiveKind::Broadcast,
            ][kind_idx];
            let f_n = kind.traffic_factor(n);
            let f_n1 = kind.traffic_factor(n + 1);
            // Per-byte traffic grows with group size but saturates below the
            // asymptote (2 for all-reduce, 1 for the half collectives).
            prop_assert!(f_n < f_n1);
            let cap = match kind {
                CollectiveKind::AllReduce => 2.0,
                _ => 1.0,
            };
            prop_assert!(f_n1 < cap);
        }

        #[test]
        fn time_is_monotone_in_payload(bytes in 1u64..(1u64 << 32), n in 2usize..64) {
            let a = all_reduce(n, bytes, pcie()).time();
            let b = all_reduce(n, bytes * 2, pcie()).time();
            prop_assert!(b > a);
        }

        #[test]
        fn faster_link_is_never_slower(bytes in 1u64..(1u64 << 32), n in 2usize..64) {
            let slow = all_reduce(n, bytes, Link::of_class(LinkClass::Ethernet25)).time();
            let fast = all_reduce(n, bytes, Link::of_class(LinkClass::NvLink)).time();
            prop_assert!(fast <= slow);
        }
    }
}
