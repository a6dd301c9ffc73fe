//! The byte-budget LRU response cache, with optional disk persistence.
//!
//! Keyed on [`PlanKey`] — the request's semantic identity: the model's
//! canonical JSON, the topology's stable [`fingerprint`], and the budget.
//! Values are the *stable* answer ([`WireResult::Plan`] or the
//! deterministic [`ErrorCode::Infeasible`](crate::protocol::ErrorCode)
//! error) — never transient failures, which must be retried, and never the
//! envelope flags.
//!
//! Capacity is a **byte** budget, not an entry count: one 64-layer plan
//! dwarfs a hundred infeasibility verdicts, and the operator reasons in
//! resident memory. Each entry is charged its serialized key + value size;
//! inserting past the budget evicts least-recently-used entries until it
//! fits (an entry larger than the whole budget is simply not cached).
//!
//! Persistence is a JSON snapshot (`version`, the serving optimizer
//! config's fingerprint, the entries). Loading a snapshot whose version or
//! config fingerprint differs is a silent no-op — a restarted daemon with
//! different estimator constants must not serve stale plans.
//!
//! [`fingerprint`]: galvatron_cluster::ClusterTopology::fingerprint
//! [`WireResult::Plan`]: crate::protocol::WireResult::Plan

use crate::protocol::{PlanBody, WireResult, PROTOCOL_VERSION};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

/// The semantic identity of a planning question.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanKey {
    /// The model's canonical single-line JSON (serde round-trips are
    /// byte-stable, so this is restart-safe).
    pub model_json: String,
    /// [`ClusterTopology::fingerprint`](galvatron_cluster::ClusterTopology::fingerprint),
    /// stable across processes by contract.
    pub topology_fingerprint: u64,
    /// Per-device budget, bytes.
    pub budget_bytes: u64,
}

impl PlanKey {
    /// The key of a plan question — the one derivation every replica,
    /// router, persisted cache and ring position agrees on.
    pub fn of(body: &PlanBody) -> Self {
        PlanKey {
            // Derived `Serialize` over plain structs, strings and numbers
            // cannot fail.
            model_json: serde_json::to_string(&body.model).expect("ModelSpec serializes"),
            topology_fingerprint: body.topology.fingerprint(),
            budget_bytes: body.budget_bytes,
        }
    }
}

struct Entry {
    result: WireResult,
    bytes: u64,
    stamp: u64,
}

struct Inner {
    entries: HashMap<PlanKey, Entry>,
    total_bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Resident entries.
    pub entries: usize,
    /// Bytes charged against the budget.
    pub bytes: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Entries evicted to stay under budget.
    pub evictions: u64,
}

/// The LRU response cache.
pub struct ResponseCache {
    inner: Mutex<Inner>,
    max_bytes: u64,
}

/// The on-disk snapshot format.
#[derive(Serialize, Deserialize)]
struct Snapshot {
    version: u32,
    config_fingerprint: String,
    entries: Vec<SnapshotEntry>,
}

#[derive(Serialize, Deserialize)]
struct SnapshotEntry {
    key: PlanKey,
    result: WireResult,
}

impl ResponseCache {
    /// A cache bounded at `max_bytes` of serialized key+value payload.
    pub fn new(max_bytes: u64) -> Self {
        ResponseCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                total_bytes: 0,
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            max_bytes,
        }
    }

    /// Look up a key, refreshing its recency on hit.
    pub fn get(&self, key: &PlanKey) -> Option<WireResult> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.entries.get_mut(key) {
            Some(entry) => {
                entry.stamp = stamp;
                let result = entry.result.clone();
                inner.hits += 1;
                Some(result)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert an answer, evicting LRU entries until the budget holds. An
    /// answer larger than the whole budget is not cached at all.
    pub fn insert(&self, key: PlanKey, result: WireResult) {
        let bytes = entry_cost(&key, &result);
        if bytes > self.max_bytes {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old) = inner.entries.insert(
            key,
            Entry {
                result,
                bytes,
                stamp,
            },
        ) {
            inner.total_bytes -= old.bytes;
        }
        inner.total_bytes += bytes;
        while inner.total_bytes > self.max_bytes {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(key, _)| key.clone());
            let Some(victim) = victim else { break };
            if let Some(evicted) = inner.entries.remove(&victim) {
                inner.total_bytes -= evicted.bytes;
                inner.evictions += 1;
            }
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            entries: inner.entries.len(),
            bytes: inner.total_bytes,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// Export up to `max_entries` resident answers, **most recently used
    /// first** — the fleet's cache-warming hook. A gossip push or a
    /// warm-join snapshot wants the hot end of the cache; an importer that
    /// itself evicts should insert in reverse (oldest first), which
    /// [`import`](ResponseCache::import) does.
    pub fn export_recent(&self, max_entries: usize) -> Vec<(PlanKey, WireResult)> {
        let inner = self.inner.lock().unwrap();
        let mut ordered: Vec<(&PlanKey, &Entry)> = inner.entries.iter().collect();
        ordered.sort_by_key(|(_, entry)| std::cmp::Reverse(entry.stamp));
        ordered
            .into_iter()
            .take(max_entries)
            .map(|(key, entry)| (key.clone(), entry.result.clone()))
            .collect()
    }

    /// Import answers exported by a peer's
    /// [`export_recent`](ResponseCache::export_recent). Entries are
    /// inserted coldest-first so that if this cache evicts during the
    /// import, the peer's hottest entries survive. Only *stable* answers
    /// are admitted (plans and deterministic `Infeasible` verdicts);
    /// anything else in the batch is skipped, so a malicious or buggy peer
    /// cannot poison the cache with transient errors. Returns the number
    /// of entries accepted.
    pub fn import(&self, entries: Vec<(PlanKey, WireResult)>) -> usize {
        let mut imported = 0;
        for (key, result) in entries.into_iter().rev() {
            if !result.is_stable_answer() {
                continue;
            }
            self.insert(key, result);
            imported += 1;
        }
        imported
    }

    /// Write a snapshot to `path`. `config_fingerprint` identifies the
    /// serving planner configuration (estimator constants included); a
    /// loader with a different fingerprint ignores the file.
    ///
    /// The write is **atomic**: the snapshot goes to a `.tmp` sibling
    /// first and is renamed into place, so a crash mid-persist leaves
    /// either the previous complete snapshot or none — never a torn JSON
    /// file. (A torn file would be rejected by
    /// [`load`](ResponseCache::load) anyway, but it would silently cost
    /// the next restart its warm start.)
    pub fn persist(&self, path: &Path, config_fingerprint: &str) -> std::io::Result<()> {
        let inner = self.inner.lock().unwrap();
        let mut ordered: Vec<(&PlanKey, &Entry)> = inner.entries.iter().collect();
        // Oldest first, so a loader that itself evicts keeps the newest.
        ordered.sort_by_key(|(_, entry)| entry.stamp);
        let snapshot = Snapshot {
            version: PROTOCOL_VERSION,
            config_fingerprint: config_fingerprint.to_string(),
            entries: ordered
                .into_iter()
                .map(|(key, entry)| SnapshotEntry {
                    key: key.clone(),
                    result: entry.result.clone(),
                })
                .collect(),
        };
        drop(inner);
        let json = serde_json::to_string(&snapshot)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = match path.file_name() {
            Some(name) => {
                let mut tmp_name = name.to_os_string();
                tmp_name.push(".tmp");
                path.with_file_name(tmp_name)
            }
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "snapshot path has no file name",
                ))
            }
        };
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }

    /// Load a snapshot written by [`persist`](ResponseCache::persist).
    /// Returns the number of entries loaded; mismatched versions or config
    /// fingerprints (and unreadable, truncated, or otherwise corrupt
    /// files) load nothing.
    pub fn load(&self, path: &Path, config_fingerprint: &str) -> usize {
        let Ok(json) = std::fs::read_to_string(path) else {
            return 0;
        };
        let Ok(snapshot) = serde_json::from_str::<Snapshot>(&json) else {
            return 0;
        };
        if snapshot.version != PROTOCOL_VERSION || snapshot.config_fingerprint != config_fingerprint
        {
            return 0;
        }
        let mut loaded = 0;
        for entry in snapshot.entries {
            self.insert(entry.key, entry.result);
            loaded += 1;
        }
        loaded
    }
}

/// Bytes an entry is charged: serialized key + serialized value.
fn entry_cost(key: &PlanKey, result: &WireResult) -> u64 {
    let key_bytes = serde_json::to_string(key).map(|s| s.len()).unwrap_or(0);
    let value_bytes = serde_json::to_string(result).map(|s| s.len()).unwrap_or(0);
    (key_bytes + value_bytes) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ErrorCode, ServeError};

    fn key(i: u64) -> PlanKey {
        PlanKey {
            model_json: format!("{{\"model\":{i}}}"),
            topology_fingerprint: 0xabcd,
            budget_bytes: 8 << 30,
        }
    }

    fn verdict(i: u64) -> WireResult {
        WireResult::Error(ServeError {
            code: ErrorCode::Infeasible,
            message: format!("nothing fits budget {i}"),
            retry_after_ms: None,
        })
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let one_entry = entry_cost(&key(0), &verdict(0));
        // Room for two entries, not three.
        let cache = ResponseCache::new(2 * one_entry + one_entry / 2);
        cache.insert(key(1), verdict(1));
        cache.insert(key(2), verdict(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), verdict(3));
        assert!(cache.get(&key(1)).is_some(), "recently used survives");
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(3)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= 2 * one_entry + one_entry / 2);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = ResponseCache::new(8);
        cache.insert(key(1), verdict(1));
        assert_eq!(cache.stats().entries, 0);
        assert!(cache.get(&key(1)).is_none());
    }

    #[test]
    fn persistence_round_trips_and_gates_on_fingerprint() {
        let dir = std::env::temp_dir().join("galvatron-serve-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");

        let cache = ResponseCache::new(1 << 20);
        cache.insert(key(1), verdict(1));
        cache.insert(key(2), verdict(2));
        cache.persist(&path, "config-A").unwrap();

        let warm = ResponseCache::new(1 << 20);
        assert_eq!(warm.load(&path, "config-A"), 2);
        assert_eq!(warm.get(&key(1)), Some(verdict(1)));
        assert_eq!(warm.get(&key(2)), Some(verdict(2)));

        // A daemon running different planner constants must ignore it.
        let mismatched = ResponseCache::new(1 << 20);
        assert_eq!(mismatched.load(&path, "config-B"), 0);
        assert_eq!(mismatched.stats().entries, 0);

        // Corruption loads nothing rather than erroring.
        std::fs::write(&path, "{not json").unwrap();
        let corrupt = ResponseCache::new(1 << 20);
        assert_eq!(corrupt.load(&path, "config-A"), 0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_is_atomic_and_truncated_snapshots_are_rejected() {
        let dir = std::env::temp_dir().join(format!(
            "galvatron-serve-atomic-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");

        let cache = ResponseCache::new(1 << 20);
        cache.insert(key(1), verdict(1));
        cache.insert(key(2), verdict(2));
        cache.persist(&path, "config-A").unwrap();

        // The temp file must not survive a successful persist.
        let tmp = dir.join("snapshot.json.tmp");
        assert!(!tmp.exists(), "temp file must be renamed away");

        // Simulate a crash mid-persist: truncate the snapshot at every
        // prefix length. A warm restart must reject each cleanly (load 0)
        // instead of serving from — or choking on — a torn file.
        let full = std::fs::read_to_string(&path).unwrap();
        for cut in [1, full.len() / 4, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let warm = ResponseCache::new(1 << 20);
            assert_eq!(
                warm.load(&path, "config-A"),
                0,
                "truncated snapshot (cut at {cut}) must load nothing"
            );
            assert_eq!(warm.stats().entries, 0);
        }

        // And a persist over a corrupt file replaces it wholesale: the new
        // snapshot round-trips even though the old bytes were garbage.
        cache.persist(&path, "config-A").unwrap();
        let recovered = ResponseCache::new(1 << 20);
        assert_eq!(recovered.load(&path, "config-A"), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_recent_is_mru_first_and_import_round_trips() {
        let cache = ResponseCache::new(1 << 20);
        cache.insert(key(1), verdict(1));
        cache.insert(key(2), verdict(2));
        cache.insert(key(3), verdict(3));
        // Touch 1 so recency order is 1 > 3 > 2.
        assert!(cache.get(&key(1)).is_some());

        let hot = cache.export_recent(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, key(1), "hottest entry first");
        assert_eq!(hot[1].0, key(3));

        let peer = ResponseCache::new(1 << 20);
        assert_eq!(peer.import(hot), 2);
        assert!(peer.get(&key(1)).is_some());
        assert!(peer.get(&key(3)).is_some());
        assert!(peer.get(&key(2)).is_none(), "cold tail not exported");
    }

    #[test]
    fn import_rejects_unstable_answers() {
        let cache = ResponseCache::new(1 << 20);
        let transient = WireResult::Error(ServeError {
            code: ErrorCode::Overloaded,
            message: "queue full".to_string(),
            retry_after_ms: Some(50),
        });
        let accepted = cache.import(vec![(key(1), transient), (key(2), verdict(2))]);
        assert_eq!(accepted, 1, "only the stable verdict is admitted");
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(2)).is_some());
    }
}
