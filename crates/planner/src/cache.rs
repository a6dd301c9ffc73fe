//! The shared stage-DP memoization cache.
//!
//! Algorithm 1's sweep re-poses the same Eq. 1 sub-problem many times: a
//! stage's DP result depends only on its layer range, the runnable strategy
//! set, the batch/micro shape, the budget and the granularity — not on
//! which `(batch, PP, partitioner)` candidate asked. Two partitioner
//! guidelines that agree on a cut, two PP degrees that share a stage shape,
//! or two service requests over the same model all re-solve identical
//! stages. The cache keys the *complete* [`StageDpQuery`] (with interned
//! fingerprints of the model/topology/estimator context — see
//! [`galvatron_core::context_fingerprint`] — and of the strategy set) and
//! returns the memoized [`DpResult`] verbatim, so a hit is bit-identical to
//! a recompute and cannot change any plan. [`CachedStageDp`] layers it over
//! the planner's [`ArenaStageDp`](galvatron_core::ArenaStageDp).

use galvatron_core::incremental::Sharded;
use galvatron_core::{DpResult, StageDp, StageDpQuery};
use galvatron_estimator::CostEstimator;
use galvatron_model::ModelSpec;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The complete input of one stage-DP query. `context` and `set` are
/// interner ids standing for the full (model, topology, estimator config)
/// and strategy-set representations — interning compares the full strings,
/// so distinct inputs never share an id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StageDpKey {
    context: usize,
    set: usize,
    layer_start: usize,
    layer_end: usize,
    base_device: usize,
    stage_batch: u64,
    usable_budget: u64,
    granularity: u64,
    micro_batches: usize,
    act_stash_batch: u64,
    /// [`RecomputeMode::as_u8`](galvatron_core::RecomputeMode::as_u8) —
    /// answers under different recompute planes never alias.
    recompute: u8,
}

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Queries answered from the cache.
    pub hits: usize,
    /// Queries that ran the DP.
    pub misses: usize,
}

impl CacheCounters {
    /// Counter difference (for per-request deltas).
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// A sharded, thread-safe memoization cache for Eq. 1 stage solutions,
/// shared by every worker of a sweep and (through [`crate::PlanService`])
/// across requests.
///
/// By default the cache grows without bound — correct for one-shot studies,
/// where every memoized answer may still be asked again. Long-lived owners
/// (the plan service behind `galvatron-serve`) construct it with
/// [`DpCache::bounded`], which evicts the least-recently-touched entries
/// once the entry count exceeds the bound. Eviction only forgets memoized
/// work — a later identical query recomputes the same bit-identical answer
/// — so no bound setting can ever change a plan.
#[derive(Debug, Default)]
pub struct DpCache {
    interner: Mutex<HashMap<String, usize>>,
    entries: Sharded<StageDpKey, Option<DpResult>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl DpCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        DpCache::default()
    }

    /// An empty cache that holds at most `max_entries` memoized stage
    /// solutions, evicting least-recently-used entries beyond that. The
    /// bound is enforced per shard (`max_entries / 16`, at least 1), so the
    /// total can transiently undershoot the configured value when the key
    /// distribution is skewed; it never overshoots.
    pub fn bounded(max_entries: usize) -> Self {
        let mut cache = DpCache::default();
        cache.entries.set_cap(max_entries);
        cache
    }

    /// Entries evicted by the [`bounded`](DpCache::bounded) LRU policy so
    /// far (always 0 for an unbounded cache).
    pub fn evictions(&self) -> usize {
        self.entries.evictions()
    }

    /// Intern a full textual representation, returning a compact id. Equal
    /// strings get equal ids; distinct strings never collide.
    pub fn intern(&self, repr: &str) -> usize {
        let mut interner = self.interner.lock();
        if let Some(&id) = interner.get(repr) {
            return id;
        }
        let id = interner.len();
        interner.insert(repr.to_string(), id);
        id
    }

    /// Memoized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn get(&self, key: &StageDpKey) -> Option<Option<DpResult>> {
        let found = self.entries.get(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: StageDpKey, value: Option<DpResult>) {
        self.entries.insert(key, value);
    }
}

/// The memoizing [`StageDp`]: look the query up in the shared cache, run
/// the wrapped solver on a miss, and store the answer. The planner wraps
/// its [`ArenaStageDp`](galvatron_core::ArenaStageDp), so whole-query
/// memoization layers over kernel interning.
pub struct CachedStageDp<'a> {
    cache: &'a DpCache,
    context: usize,
    inner: &'a dyn StageDp,
}

impl<'a> CachedStageDp<'a> {
    /// Build a cached solver that delegates misses to `inner`. The context
    /// id must come from [`DpCache::intern`] of
    /// [`galvatron_core::context_fingerprint`] on the same cache.
    pub fn over(cache: &'a DpCache, context: usize, inner: &'a dyn StageDp) -> Self {
        CachedStageDp {
            cache,
            context,
            inner,
        }
    }
}

impl StageDp for CachedStageDp<'_> {
    fn solve(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        query: &StageDpQuery<'_>,
    ) -> Result<Option<DpResult>, galvatron_cluster::ClusterError> {
        let set = self.cache.intern(&format!("{:?}", query.set));
        let key = StageDpKey {
            context: self.context,
            set,
            layer_start: query.layer_start,
            layer_end: query.layer_end,
            base_device: query.base_device,
            stage_batch: query.stage_batch,
            usable_budget: query.usable_budget,
            granularity: query.granularity,
            micro_batches: query.micro_batches,
            act_stash_batch: query.act_stash_batch,
            recompute: query.recompute.as_u8(),
        };
        if let Some(found) = self.cache.get(&key) {
            return Ok(found);
        }
        let computed = self.inner.solve(estimator, model, query)?;
        self.cache.insert(key, computed.clone());
        Ok(computed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use galvatron_core::context_fingerprint;
    use galvatron_core::incremental::SHARDS;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn interning_is_stable_and_collision_free() {
        let cache = DpCache::new();
        let a = cache.intern("alpha");
        let b = cache.intern("beta");
        assert_ne!(a, b);
        assert_eq!(cache.intern("alpha"), a);
        assert_eq!(cache.intern("beta"), b);
    }

    #[test]
    fn degraded_topologies_key_disjoint_cache_regions() {
        use galvatron_cluster::rtx_titan_node;
        use galvatron_estimator::{CostEstimator, EstimatorConfig};
        use galvatron_model::BertConfig;

        let model = BertConfig {
            layers: 4,
            hidden: 512,
            heads: 8,
            seq: 128,
            vocab: 30522,
        }
        .build("bert-4");
        let healthy = rtx_titan_node(8);
        let degraded = [
            healthy.without_devices(&[6, 7]).unwrap().topology,
            healthy.with_degraded_link(0, 0.5).unwrap(),
            healthy.with_straggler(3, 2.0).unwrap(),
        ];
        let print = |t: &galvatron_cluster::ClusterTopology| {
            context_fingerprint(
                &CostEstimator::new(t.clone(), EstimatorConfig::default()),
                &model,
            )
        };
        let cache = DpCache::new();
        let healthy_id = cache.intern(&print(&healthy));
        for t in &degraded {
            let fp = print(t);
            assert!(fp.starts_with(&format!("topo#{:016x}", t.fingerprint())));
            assert_ne!(
                cache.intern(&fp),
                healthy_id,
                "degraded topology must not share the healthy cluster's cache keys"
            );
        }
        // Same degradation re-derived → same region (the cache stays warm
        // across identical re-planning requests).
        let again = healthy.without_devices(&[6, 7]).unwrap().topology;
        assert_eq!(
            cache.intern(&print(&again)),
            cache.intern(&print(&degraded[0]))
        );
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let cache = DpCache::new();
        let key = StageDpKey {
            context: 0,
            set: 0,
            layer_start: 0,
            layer_end: 4,
            base_device: 0,
            stage_batch: 8,
            usable_budget: 1 << 30,
            granularity: 1 << 24,
            micro_batches: 1,
            act_stash_batch: 8,
            recompute: 0,
        };
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), None);
        assert_eq!(cache.get(&key), Some(None));
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses), (1, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    fn key_with_budget(budget: u64) -> StageDpKey {
        StageDpKey {
            context: 0,
            set: 0,
            layer_start: 0,
            layer_end: 4,
            base_device: 0,
            stage_batch: 8,
            usable_budget: budget,
            granularity: 1 << 24,
            micro_batches: 1,
            act_stash_batch: 8,
            recompute: 0,
        }
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        // Per-shard cap of 1 (16 / SHARDS): every shard holds its most
        // recently touched entry only.
        let cache = DpCache::bounded(16);
        for budget in 0..64u64 {
            cache.insert(key_with_budget(budget), None);
        }
        assert!(cache.len() <= 16, "len {} exceeds the bound", cache.len());
        assert_eq!(cache.evictions(), 64 - cache.len());
        // The newest entry of its shard survived; re-inserting an evicted
        // key works and stays within the bound.
        let before = cache.counters();
        cache.insert(key_with_budget(0), None);
        assert!(cache.len() <= 16);
        assert!(cache.get(&key_with_budget(0)).is_some());
        assert_eq!(cache.counters().since(&before).hits, 1);
    }

    #[test]
    fn recently_touched_entries_survive_eviction() {
        // Two entries per shard; three keys landing in one shard. Touching
        // the first before the third insert makes the *second* the victim.
        let cache = DpCache::bounded(2 * SHARDS);
        let keys: Vec<StageDpKey> = (0..1024u64).map(key_with_budget).collect();
        let shard_of = |k: &StageDpKey| {
            let mut h = DefaultHasher::new();
            k.hash(&mut h);
            (h.finish() as usize) % SHARDS
        };
        let target = shard_of(&keys[0]);
        let same_shard: Vec<&StageDpKey> = keys
            .iter()
            .filter(|k| shard_of(k) == target)
            .take(3)
            .collect();
        assert_eq!(same_shard.len(), 3, "need three colliding keys");
        cache.insert(same_shard[0].clone(), None);
        cache.insert(same_shard[1].clone(), None);
        cache.get(same_shard[0]); // refresh: [1] is now least recent
        cache.insert(same_shard[2].clone(), None);
        assert!(
            cache.get(same_shard[0]).is_some(),
            "refreshed entry evicted"
        );
        assert!(cache.get(same_shard[1]).is_none(), "LRU entry survived");
        assert!(cache.get(same_shard[2]).is_some());
    }
}
