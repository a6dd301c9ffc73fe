//! Consistent-hash ring over plan-cache keys.
//!
//! The fleet shards the response-cache keyspace — `(model JSON, topology
//! fingerprint, budget)`, see [`PlanKey`] — across replicas with a classic
//! consistent-hash ring: each replica contributes [`DEFAULT_VNODES`]
//! virtual points, a key is owned by the first point clockwise from its
//! hash, and removing a replica only remaps the keys it owned. With `K`
//! keys and `N` replicas, adding one replica remaps ~`K/(N+1)` keys (the
//! proptest suite checks this bound).
//!
//! Hashing is FNV-1a with explicit constants — the same idiom as
//! [`ClusterTopology::fingerprint`] — because routing must be
//! deterministic **across processes**: the router and every replica agree
//! on ownership without coordination, and `std`'s `DefaultHasher` is
//! process-seeded. The golden-value tests pin the exact hash outputs so an
//! accidental algorithm change cannot slip through.
//!
//! [`PlanKey`]: galvatron_serve::PlanKey
//! [`ClusterTopology::fingerprint`]: galvatron_cluster::ClusterTopology::fingerprint

use galvatron_serve::PlanKey;
use std::collections::BTreeSet;

/// Virtual points each replica contributes to the ring. 64 points keeps
/// the max/mean keyspace imbalance under ~30% for small fleets while the
/// ring stays tiny (N×64 sorted u64s).
pub const DEFAULT_VNODES: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice. Deterministic across processes and platforms,
/// unlike `std::collections::hash_map::DefaultHasher` which is seeded per
/// process.
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The ring position of a plan-cache key: FNV-1a over the model JSON, the
/// topology fingerprint and the budget, with separators so field
/// boundaries cannot alias.
pub fn plan_key_hash(key: &PlanKey) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        // Field separator: a byte that cannot appear in the length-8
        // little-endian suffixes ambiguously because it is mixed exactly
        // once between fields.
        hash ^= 0xff;
        hash = hash.wrapping_mul(FNV_PRIME);
    };
    mix(key.model_json.as_bytes());
    mix(&key.topology_fingerprint.to_le_bytes());
    mix(&key.budget_bytes.to_le_bytes());
    hash
}

fn vnode_hash(id: usize, vnode: usize) -> u64 {
    let mut bytes = Vec::with_capacity(38);
    bytes.extend_from_slice(b"galvatron-fleet-replica\x00");
    bytes.extend_from_slice(&(id as u64).to_le_bytes());
    bytes.extend_from_slice(&(vnode as u64).to_le_bytes());
    stable_hash(&bytes)
}

/// A consistent-hash ring mapping `u64` positions to replica ids.
///
/// Construction is deterministic: the same member set always produces the
/// same ring, whichever order members were added in and in whichever
/// process — that is what lets the router and each replica route
/// independently.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    members: BTreeSet<usize>,
    /// Sorted `(position, replica id)` points. Ties (astronomically
    /// unlikely with 64-bit positions) break by replica id so the ring
    /// stays order-independent.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// An empty ring with `vnodes` virtual points per replica.
    pub fn new(vnodes: usize) -> Self {
        HashRing {
            vnodes: vnodes.max(1),
            members: BTreeSet::new(),
            points: Vec::new(),
        }
    }

    /// A ring with [`DEFAULT_VNODES`] points per replica over `ids`.
    pub fn with_members(ids: &[usize]) -> Self {
        let mut ring = HashRing::new(DEFAULT_VNODES);
        for &id in ids {
            ring.add(id);
        }
        ring
    }

    /// Add a replica (no-op if already present).
    pub fn add(&mut self, id: usize) {
        if self.members.insert(id) {
            self.rebuild();
        }
    }

    /// Remove a replica (no-op if absent).
    pub fn remove(&mut self, id: usize) {
        if self.members.remove(&id) {
            self.rebuild();
        }
    }

    fn rebuild(&mut self) {
        self.points.clear();
        self.points.reserve(self.members.len() * self.vnodes);
        for &id in &self.members {
            for v in 0..self.vnodes {
                self.points.push((vnode_hash(id, v), id));
            }
        }
        self.points.sort_unstable();
    }

    /// Virtual points each member contributes (the ring's vnode
    /// parameter; [`DEFAULT_VNODES`] unless constructed otherwise).
    pub fn vnodes_per_member(&self) -> usize {
        self.vnodes
    }

    /// Member ids, ascending.
    pub fn members(&self) -> Vec<usize> {
        self.members.iter().copied().collect()
    }

    /// Number of replicas on the ring.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no replicas.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `id` is on the ring.
    pub fn contains(&self, id: usize) -> bool {
        self.members.contains(&id)
    }

    /// The replica owning ring position `hash` (first point clockwise),
    /// or `None` on an empty ring.
    pub fn route_hash(&self, hash: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let idx = self.points.partition_point(|&(p, _)| p < hash);
        let (_, id) = self.points[idx % self.points.len()];
        Some(id)
    }

    /// The replica owning `key`.
    pub fn route(&self, key: &PlanKey) -> Option<usize> {
        self.route_hash(plan_key_hash(key))
    }

    /// Up to `n` **distinct** replicas in ring order starting at the owner
    /// of `hash`. `successors(h, ring.len())` is every replica, owner
    /// first — the gossip layer pushes a fresh answer to
    /// `successors(..)[1..=fanout]`, so replicated copies land exactly
    /// where the keyspace would remap if the owner died.
    pub fn successors(&self, hash: u64, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n.min(self.members.len()));
        if self.points.is_empty() || n == 0 {
            return out;
        }
        let start = self.points.partition_point(|&(p, _)| p < hash);
        for offset in 0..self.points.len() {
            let (_, id) = self.points[(start + offset) % self.points.len()];
            if !out.contains(&id) {
                out.push(id);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_cluster::rtx_titan_node;
    use galvatron_model::BertConfig;
    use galvatron_serve::PlanBody;

    /// The cache key of the `i`-th of a family of distinct questions.
    fn key(i: u64) -> PlanKey {
        let model = BertConfig {
            layers: 1,
            hidden: 64,
            heads: 2,
            seq: 16,
            vocab: 100,
        };
        PlanKey::of(&PlanBody {
            model: model.build("tiny"),
            topology: rtx_titan_node(8),
            budget_bytes: (i + 1) << 20,
        })
    }

    #[test]
    fn stable_hash_matches_fnv1a_reference_values() {
        // Pinned FNV-1a test vectors (offset 0xcbf29ce484222325, prime
        // 0x100000001b3). A change to the algorithm breaks cross-process
        // routing, so the exact values are part of the contract.
        assert_eq!(stable_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn routing_is_deterministic_and_order_independent() {
        let forward = HashRing::with_members(&[0, 1, 2, 3]);
        let mut reversed = HashRing::new(DEFAULT_VNODES);
        for id in [3, 2, 0, 1] {
            reversed.add(id);
        }
        for i in 0..256 {
            let k = key(i);
            assert_eq!(forward.route(&k), reversed.route(&k));
        }
    }

    #[test]
    fn remove_only_remaps_the_dead_replicas_keys() {
        let full = HashRing::with_members(&[0, 1, 2]);
        let mut without_1 = full.clone();
        without_1.remove(1);
        for i in 0..512 {
            let k = key(i);
            let owner = full.route(&k).unwrap();
            if owner != 1 {
                assert_eq!(without_1.route(&k), Some(owner), "key {i} moved needlessly");
            } else {
                assert_ne!(without_1.route(&k), Some(1));
            }
        }
    }

    #[test]
    fn successors_are_distinct_and_start_at_the_owner() {
        let ring = HashRing::with_members(&[0, 1, 2, 3]);
        for i in 0..64 {
            let h = plan_key_hash(&key(i));
            let succ = ring.successors(h, 4);
            assert_eq!(succ.len(), 4);
            assert_eq!(succ[0], ring.route_hash(h).unwrap());
            let mut sorted = succ.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "successors must be distinct: {succ:?}");
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(DEFAULT_VNODES);
        assert!(ring.route_hash(42).is_none());
        assert!(ring.successors(42, 3).is_empty());
    }
}
