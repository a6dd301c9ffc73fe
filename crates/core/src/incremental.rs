//! The incremental DP engine: structure-shared kernel interning plus a
//! monotone-memory feasibility ledger for Algorithm 1's outer sweep.
//!
//! Algorithm 1 re-runs the Eq. 1 DP from scratch for every
//! `(batch, PP degree, stage bounds, micro-batch count)` candidate, yet
//! adjacent candidates share almost all of their per-layer cost structure:
//!
//! * the per-layer cost kernel `c(l, s)` depends on the *micro*-batch, and
//!   the same micro-batch recurs across many `(batch, m)` pairs
//!   (`batch=8, m=1` and `batch=16, m=2` price identical micro-batches);
//! * the memory kernel `O(l, s)` depends on the activation-stash batch,
//!   which likewise recurs across batches, schedules and stage depths;
//! * the transformation kernel `R(l, s_i, s_j)` depends only on the stage
//!   batch, shared by every PP degree and partitioner guideline at that
//!   batch.
//!
//! [`EvalTable`] interns each kernel evaluation once per
//! (model, topology, estimator-config) *context* and replays the exact
//! stored value on every later query, so a DP solve through the table is
//! bit-identical to a direct solve — the table stores the estimator's own
//! earlier returns, never an approximation.
//!
//! [`FeasibilityLedger`] exploits the monotonicity the paper itself leans
//! on (memory use is monotone in batch size, Algorithm 1 lines 14–18): if a
//! stage query was memory-infeasible at activation stash `b`, it is
//! infeasible at every `b' ≥ b`, and if it was feasible at `b`, it is
//! feasible at every `b' ≤ b`. The ledger keeps, per
//! `(context, stage shape, strategy set, budget, granularity)`, the largest
//! stash known feasible and the smallest known infeasible, and answers
//! queries outside the unknown window without touching the estimator. The
//! planner's enumeration phase screens every candidate stage through it
//! ([`BoundIncrementalDp::feasible`]) before dispatching any solve. Eq. 1
//! admits an assignment exactly when the cheapest-memory strategy per layer
//! fits the quantized budget (time never gates reachability), so
//! feasibility of the *solve* and of the
//! [`dp_feasible`](crate::dp::dp_feasible) screen coincide — which is why
//! no dispatched solve ever comes back infeasible and the ledger needs no
//! second gate at solve time. The `estimator_invariants` property suite
//! checks the monotonicity assumption, and the `dp_oracle` conformance
//! suite checks every path against brute force.
//!
//! [`IncrementalEngine::bind`] hands out the engine's two roles for one
//! (estimator, model) context: the interning [`StageCostProvider`] the
//! planner's [`ArenaStageDp`](crate::arena::ArenaStageDp) draws kernels
//! from, and the ledger-backed feasibility screen.

use crate::dp::{dp_feasible, StageCostProvider, StageDpQuery};
use galvatron_cluster::{ClusterError, DeviceId};
use galvatron_estimator::{CostEstimator, LayerCost, LayerMemory};
use galvatron_model::ModelSpec;
use galvatron_strategy::{IntraStageStrategy, StrategySet};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shards per [`Sharded`] map; a key lives in shard
/// `DefaultHasher(key) % SHARDS`.
pub const SHARDS: usize = 16;

/// The fingerprint of everything a kernel evaluation depends on beyond its
/// own coordinates: the model, the topology (prefixed with its structural
/// hash so degraded clusters can never share entries with healthy ones) and
/// the estimator configuration. Equal strings ⇒ equal evaluation functions.
pub fn context_fingerprint(estimator: &CostEstimator, model: &ModelSpec) -> String {
    format!(
        "topo#{:016x}|{:?}|{:?}|{:?}",
        estimator.topology().fingerprint(),
        model,
        estimator.topology(),
        estimator.config()
    )
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CostKey {
    ctx: u32,
    layer: u32,
    strat: u32,
    micro: u64,
    base: u32,
    /// Recompute plane of the decision; stash (`false`) entries are keyed
    /// exactly as before the BMW extension.
    recompute: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MemKey {
    ctx: u32,
    layer: u32,
    strat: u32,
    act_stash: u64,
    recompute: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct XformKey {
    ctx: u32,
    prev_layer: u32,
    prev: u32,
    next: u32,
    stage_batch: u64,
    base: u32,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LedgerKey {
    ctx: u32,
    layer_start: u32,
    layer_end: u32,
    set: u32,
    usable_budget: u64,
    granularity: u64,
    /// [`RecomputeMode::as_u8`](crate::dp::RecomputeMode::as_u8) — the available planes change the
    /// cheapest-memory assignment, so feasibility windows never cross
    /// modes.
    recompute: u8,
}

/// An interned value plus its last-touch stamp (a tick of the table-wide
/// logical clock), the recency order bounded tables evict by.
#[derive(Debug, Clone)]
struct Stamped<V> {
    value: V,
    stamp: u64,
}

/// A sharded hash map: short critical sections, concurrent shards. The
/// memo store behind the kernel intern tables, the feasibility ledger and
/// the planner's stage-DP cache. Unbounded by default; [`Sharded::set_cap`]
/// arms per-shard LRU eviction for long-lived owners (the serve daemon's
/// engine and cache), with evictions counted in the shared counter.
/// Evicting only forgets memoized work — the next ask recomputes the
/// identical value — so no cap setting can change a plan.
#[derive(Debug)]
pub struct Sharded<K, V> {
    shards: [Mutex<HashMap<K, Stamped<V>>>; SHARDS],
    clock: AtomicU64,
    evictions: AtomicUsize,
    /// Maximum entries per shard; `None` is unbounded.
    shard_cap: Option<usize>,
}

impl<K, V> Default for Sharded<K, V> {
    fn default() -> Self {
        Sharded {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            clock: AtomicU64::new(0),
            evictions: AtomicUsize::new(0),
            shard_cap: None,
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Sharded<K, V> {
    /// Bound the map to `max_entries` (enforced per shard as
    /// `max_entries / SHARDS`, at least 1, so the total never overshoots),
    /// evicting the least recently touched entries beyond it.
    pub fn set_cap(&mut self, max_entries: usize) {
        self.shard_cap = Some((max_entries / SHARDS).max(1));
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Stamped<V>>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// The value under `key`, refreshing its recency stamp.
    pub fn get(&self, key: &K) -> Option<V> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock();
        shard.get_mut(key).map(|entry| {
            entry.stamp = stamp;
            entry.value.clone()
        })
    }

    /// Store `value` under `key`, evicting beyond the cap.
    pub fn insert(&self, key: K, value: V) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(&key).lock();
        shard.insert(key, Stamped { value, stamp });
        if let Some(cap) = self.shard_cap {
            while shard.len() > cap {
                let oldest = shard
                    .iter()
                    .min_by_key(|(_, entry)| entry.stamp)
                    .map(|(key, _)| key.clone())
                    .expect("non-empty shard above its cap");
                shard.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Entries evicted by the cap so far (always 0 unbounded).
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq + Clone, V: Clone + Default> Sharded<K, V> {
    /// Mutate (inserting a default first if absent) the value under `key`,
    /// refreshing its recency stamp and applying the eviction policy.
    fn update(&self, key: &K, mutate: impl FnOnce(&mut V)) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock();
        let entry = shard.entry(key.clone()).or_insert_with(|| Stamped {
            value: V::default(),
            stamp,
        });
        entry.stamp = stamp;
        mutate(&mut entry.value);
        if let Some(cap) = self.shard_cap {
            while shard.len() > cap {
                let oldest = shard
                    .iter()
                    .min_by_key(|(_, entry)| entry.stamp)
                    .map(|(key, _)| key.clone())
                    .expect("non-empty shard above its cap");
                shard.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Reuse accounting of an [`IncrementalEngine`], cumulative since
/// construction. Use [`since`](IncrementalCounters::since) for per-search
/// deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalCounters {
    /// Kernel evaluations answered from the intern table.
    pub intern_hits: usize,
    /// Kernel evaluations that called the estimator (and were interned).
    pub intern_misses: usize,
    /// Feasibility questions answered by the monotone-memory ledger.
    pub ledger_hits: usize,
    /// Feasibility questions that had to be computed.
    pub ledger_misses: usize,
}

impl IncrementalCounters {
    /// Counter difference (for per-search deltas).
    pub fn since(&self, earlier: &IncrementalCounters) -> IncrementalCounters {
        IncrementalCounters {
            intern_hits: self.intern_hits - earlier.intern_hits,
            intern_misses: self.intern_misses - earlier.intern_misses,
            ledger_hits: self.ledger_hits - earlier.ledger_hits,
            ledger_misses: self.ledger_misses - earlier.ledger_misses,
        }
    }

    /// Intern-table hit rate in `[0, 1]`, or `None` when nothing was asked.
    pub fn intern_hit_rate(&self) -> Option<f64> {
        let total = self.intern_hits + self.intern_misses;
        (total > 0).then(|| self.intern_hits as f64 / total as f64)
    }
}

/// The structure-shared kernel intern table (see module docs). Thread-safe;
/// one instance is shared by every worker of a sweep and, through the plan
/// service, across requests.
#[derive(Debug, Default)]
pub struct EvalTable {
    contexts: Mutex<HashMap<String, u32>>,
    strategies: Mutex<HashMap<IntraStageStrategy, u32>>,
    sets: Mutex<HashMap<(usize, Vec<u32>), u32>>,
    costs: Sharded<CostKey, LayerCost>,
    mems: Sharded<MemKey, LayerMemory>,
    xforms: Sharded<XformKey, f64>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl EvalTable {
    fn intern_context(&self, fingerprint: &str) -> u32 {
        let mut contexts = self.contexts.lock();
        if let Some(&id) = contexts.get(fingerprint) {
            return id;
        }
        let id = u32::try_from(contexts.len()).expect("context interner overflow");
        contexts.insert(fingerprint.to_string(), id);
        id
    }

    fn intern_strategy(&self, strategy: &IntraStageStrategy) -> u32 {
        let mut strategies = self.strategies.lock();
        if let Some(&id) = strategies.get(strategy) {
            return id;
        }
        let id = u32::try_from(strategies.len()).expect("strategy interner overflow");
        strategies.insert(strategy.clone(), id);
        id
    }

    /// Intern a strategy set as (group size, ordered member ids). Order is
    /// part of the identity: the DP's tie-breaking follows set order.
    fn intern_set(&self, set: &StrategySet) -> u32 {
        let ids: Vec<u32> = set.iter().map(|s| self.intern_strategy(s)).collect();
        let key = (set.group_size(), ids);
        let mut sets = self.sets.lock();
        if let Some(&id) = sets.get(&key) {
            return id;
        }
        let id = u32::try_from(sets.len()).expect("set interner overflow");
        sets.insert(key, id);
        id
    }

    /// Arm per-kernel-table LRU bounds: at most `max_entries` interned
    /// evaluations across the cost, memory and transformation tables (each
    /// gets a third). The id interners (contexts, strategies, sets) stay
    /// unbounded — they are tiny and ids must stay stable for the lifetime
    /// of the engine.
    fn set_cap(&mut self, max_entries: usize) {
        let per_table = (max_entries / 3).max(1);
        self.costs.set_cap(per_table);
        self.mems.set_cap(per_table);
        self.xforms.set_cap(per_table);
    }

    /// Interned kernel evaluations currently held.
    pub fn len(&self) -> usize {
        self.costs.len() + self.mems.len() + self.xforms.len()
    }

    /// Kernel evaluations evicted by the LRU bound so far (always 0 for an
    /// unbounded table).
    pub fn evictions(&self) -> usize {
        self.costs.evictions() + self.mems.evictions() + self.xforms.evictions()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct FeasibilityWindow {
    /// Largest activation stash known feasible.
    max_feasible: Option<u64>,
    /// Smallest activation stash known infeasible.
    min_infeasible: Option<u64>,
}

/// The monotone-memory feasibility ledger (see module docs).
#[derive(Debug, Default)]
pub struct FeasibilityLedger {
    windows: Sharded<LedgerKey, FeasibilityWindow>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl FeasibilityLedger {
    /// The ledger's answer for `act_stash`, if the monotone window covers
    /// it: `Some(true)` below the feasible watermark, `Some(false)` above
    /// the infeasible one, `None` inside the unknown gap.
    fn lookup(&self, key: &LedgerKey, act_stash: u64) -> Option<bool> {
        let window = self.windows.get(key)?;
        if window.max_feasible.is_some_and(|b| act_stash <= b) {
            return Some(true);
        }
        if window.min_infeasible.is_some_and(|b| act_stash >= b) {
            return Some(false);
        }
        None
    }

    /// Record an observed feasibility answer, widening the window.
    fn record(&self, key: &LedgerKey, act_stash: u64, feasible: bool) {
        self.windows.update(key, |window| {
            if feasible {
                window.max_feasible =
                    Some(window.max_feasible.map_or(act_stash, |b| b.max(act_stash)));
            } else {
                window.min_infeasible = Some(
                    window
                        .min_infeasible
                        .map_or(act_stash, |b| b.min(act_stash)),
                );
            }
        });
    }

    /// Tracked (context, stage shape, set, budget) windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Windows evicted by the LRU bound so far (always 0 unbounded).
    pub fn evictions(&self) -> usize {
        self.windows.evictions()
    }

    /// Whether no window has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The incremental DP engine: one [`EvalTable`] plus one
/// [`FeasibilityLedger`], shared across candidates, batches, workers and —
/// when owned by a plan service — requests.
#[derive(Debug, Default)]
pub struct IncrementalEngine {
    table: EvalTable,
    ledger: FeasibilityLedger,
}

impl IncrementalEngine {
    /// An empty, unbounded engine (one-shot studies: nothing memoized is
    /// ever wasted).
    pub fn new() -> Self {
        IncrementalEngine::default()
    }

    /// An empty engine whose kernel intern tables hold at most
    /// `max_entries` evaluations and whose feasibility ledger holds at most
    /// `max_entries` windows, both with LRU-ish eviction — what a
    /// long-lived daemon needs to keep its footprint flat. Evictions only
    /// forget memoized work (the estimator recomputes identical values), so
    /// plans are unaffected; [`IncrementalEngine::evictions`] counts them.
    pub fn bounded(max_entries: usize) -> Self {
        let mut engine = IncrementalEngine::default();
        engine.table.set_cap(max_entries);
        engine.ledger.windows.set_cap(max_entries);
        engine
    }

    /// Entries evicted across the kernel tables and the ledger so far.
    pub fn evictions(&self) -> usize {
        self.table.evictions() + self.ledger.evictions()
    }

    /// Bind the engine to one (estimator, model) context. The returned
    /// handle is the interning [`StageCostProvider`] and the ledger-backed
    /// [`feasible`](BoundIncrementalDp::feasible) screen.
    pub fn bind<'a>(
        &'a self,
        estimator: &CostEstimator,
        model: &ModelSpec,
    ) -> BoundIncrementalDp<'a> {
        let ctx = self
            .table
            .intern_context(&context_fingerprint(estimator, model));
        BoundIncrementalDp { engine: self, ctx }
    }

    /// Cumulative reuse counters.
    pub fn counters(&self) -> IncrementalCounters {
        IncrementalCounters {
            intern_hits: self.table.hits.load(Ordering::Relaxed),
            intern_misses: self.table.misses.load(Ordering::Relaxed),
            ledger_hits: self.ledger.hits.load(Ordering::Relaxed),
            ledger_misses: self.ledger.misses.load(Ordering::Relaxed),
        }
    }

    /// The kernel intern table.
    pub fn table(&self) -> &EvalTable {
        &self.table
    }

    /// The feasibility ledger.
    pub fn ledger(&self) -> &FeasibilityLedger {
        &self.ledger
    }
}

/// An [`IncrementalEngine`] bound to one (estimator, model) context.
#[derive(Debug, Clone, Copy)]
pub struct BoundIncrementalDp<'a> {
    engine: &'a IncrementalEngine,
    ctx: u32,
}

impl BoundIncrementalDp<'_> {
    /// Ledger-accelerated [`dp_feasible`]: answer from the monotone window
    /// of the query's (stage shape, set, budget, granularity, recompute)
    /// key when it covers the query's stash, otherwise compute through the
    /// intern table and widen the window.
    pub fn feasible(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        q: &StageDpQuery<'_>,
    ) -> bool {
        let key = LedgerKey {
            ctx: self.ctx,
            layer_start: q.layer_start as u32,
            layer_end: q.layer_end as u32,
            set: self.engine.table.intern_set(q.set),
            usable_budget: q.usable_budget,
            granularity: q.granularity,
            recompute: q.recompute.as_u8(),
        };
        if let Some(answer) = self.engine.ledger.lookup(&key, q.act_stash_batch) {
            self.engine.ledger.hits.fetch_add(1, Ordering::Relaxed);
            return answer;
        }
        self.engine.ledger.misses.fetch_add(1, Ordering::Relaxed);
        let answer = dp_feasible(estimator, model, q, self);
        self.engine.ledger.record(&key, q.act_stash_batch, answer);
        answer
    }
}

impl StageCostProvider for BoundIncrementalDp<'_> {
    fn layer_cost(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        layer: usize,
        strategy: &IntraStageStrategy,
        micro: u64,
        base: DeviceId,
    ) -> Result<LayerCost, ClusterError> {
        let key = CostKey {
            ctx: self.ctx,
            layer: layer as u32,
            strat: self.engine.table.intern_strategy(strategy),
            micro,
            base: base as u32,
            recompute: false,
        };
        if let Some(found) = self.engine.table.costs.get(&key) {
            self.engine.table.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(found);
        }
        self.engine.table.misses.fetch_add(1, Ordering::Relaxed);
        let computed =
            estimator.layer_cost(&model.layers[layer], model.dtype, strategy, micro, base)?;
        self.engine.table.costs.insert(key, computed);
        Ok(computed)
    }

    fn layer_cost_rc(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        layer: usize,
        strategy: &IntraStageStrategy,
        micro: u64,
        base: DeviceId,
        recompute: bool,
    ) -> Result<LayerCost, ClusterError> {
        if !recompute {
            // Keyed identically to the pre-BMW table, so stash-plane entries
            // are shared with historical queries.
            return self.layer_cost(estimator, model, layer, strategy, micro, base);
        }
        let key = CostKey {
            ctx: self.ctx,
            layer: layer as u32,
            strat: self.engine.table.intern_strategy(strategy),
            micro,
            base: base as u32,
            recompute: true,
        };
        if let Some(found) = self.engine.table.costs.get(&key) {
            self.engine.table.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(found);
        }
        self.engine.table.misses.fetch_add(1, Ordering::Relaxed);
        let computed = estimator.layer_cost_with_recompute(
            &model.layers[layer],
            model.dtype,
            strategy,
            micro,
            base,
            true,
        )?;
        self.engine.table.costs.insert(key, computed);
        Ok(computed)
    }

    fn layer_memory_rc(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        layer: usize,
        strategy: &IntraStageStrategy,
        act_stash_batch: u64,
        recompute: bool,
    ) -> LayerMemory {
        if !recompute {
            return self.layer_memory(estimator, model, layer, strategy, act_stash_batch);
        }
        let key = MemKey {
            ctx: self.ctx,
            layer: layer as u32,
            strat: self.engine.table.intern_strategy(strategy),
            act_stash: act_stash_batch,
            recompute: true,
        };
        if let Some(found) = self.engine.table.mems.get(&key) {
            self.engine.table.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        self.engine.table.misses.fetch_add(1, Ordering::Relaxed);
        let computed = estimator.layer_memory_with_recompute(
            &model.layers[layer],
            model.dtype,
            strategy,
            act_stash_batch,
            true,
        );
        self.engine.table.mems.insert(key, computed);
        computed
    }

    fn layer_memory(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        layer: usize,
        strategy: &IntraStageStrategy,
        act_stash_batch: u64,
    ) -> LayerMemory {
        let key = MemKey {
            ctx: self.ctx,
            layer: layer as u32,
            strat: self.engine.table.intern_strategy(strategy),
            act_stash: act_stash_batch,
            recompute: false,
        };
        if let Some(found) = self.engine.table.mems.get(&key) {
            self.engine.table.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        self.engine.table.misses.fetch_add(1, Ordering::Relaxed);
        let computed =
            estimator.layer_memory(&model.layers[layer], model.dtype, strategy, act_stash_batch);
        self.engine.table.mems.insert(key, computed);
        computed
    }

    fn transformation(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        prev_layer: usize,
        prev: &IntraStageStrategy,
        next: &IntraStageStrategy,
        stage_batch: u64,
        base: DeviceId,
    ) -> Result<f64, ClusterError> {
        let key = XformKey {
            ctx: self.ctx,
            prev_layer: prev_layer as u32,
            prev: self.engine.table.intern_strategy(prev),
            next: self.engine.table.intern_strategy(next),
            stage_batch,
            base: base as u32,
        };
        if let Some(found) = self.engine.table.xforms.get(&key) {
            self.engine.table.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(found);
        }
        self.engine.table.misses.fetch_add(1, Ordering::Relaxed);
        let computed = estimator.transformation_cost(
            &model.layers[prev_layer],
            model.dtype,
            prev,
            next,
            stage_batch,
            base,
        )?;
        self.engine.table.xforms.insert(key, computed);
        Ok(computed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ArenaStageDp;
    use crate::dp::{DirectCosts, StageDp};
    use crate::reference::DirectStageDp;
    use galvatron_cluster::{rtx_titan_node, GIB, MIB};
    use galvatron_estimator::EstimatorConfig;
    use galvatron_model::BertConfig;
    use galvatron_strategy::DecisionTreeBuilder;

    fn estimator() -> CostEstimator {
        CostEstimator::new(rtx_titan_node(8), EstimatorConfig::default())
    }

    fn tiny_bert(layers: usize) -> ModelSpec {
        BertConfig {
            layers,
            hidden: 1280,
            heads: 20,
            seq: 512,
            vocab: 30522,
        }
        .build("tiny")
    }

    fn query<'a>(set: &'a StrategySet, model: &ModelSpec, stash: u64) -> StageDpQuery<'a> {
        StageDpQuery {
            micro_batches: 2,
            act_stash_batch: stash,
            ..StageDpQuery::new(0..model.n_layers(), set, 16, 12 * GIB, 32 * MIB)
        }
    }

    #[test]
    fn interned_solve_is_bit_identical_to_direct() {
        let est = estimator();
        let model = tiny_bert(4);
        let set = DecisionTreeBuilder::new(8).strategies();
        let engine = IncrementalEngine::new();
        let bound = engine.bind(&est, &model);
        let interned = ArenaStageDp::new(&bound);
        for stash in [4u64, 8, 16] {
            let q = query(&set, &model, stash);
            let direct = DirectStageDp.solve(&est, &model, &q).unwrap();
            let incremental = interned.solve(&est, &model, &q).unwrap();
            assert_eq!(direct, incremental, "stash {stash}");
            // And again, now fully from the intern table.
            let replay = interned.solve(&est, &model, &q).unwrap();
            assert_eq!(direct, replay, "stash {stash} (replay)");
        }
        let counters = engine.counters();
        assert!(counters.intern_hits > 0, "{counters:?}");
        assert!(counters.intern_misses > 0, "{counters:?}");
    }

    #[test]
    fn bounded_engine_evicts_but_stays_bit_identical() {
        // A cap far below the working set: the tables thrash, yet every
        // solve still replays exact estimator values or recomputes them —
        // the answers must match the direct DP bit for bit.
        let est = estimator();
        let model = tiny_bert(4);
        let set = DecisionTreeBuilder::new(8).strategies();
        let engine = IncrementalEngine::bounded(48);
        let bound = engine.bind(&est, &model);
        let interned = ArenaStageDp::new(&bound);
        for stash in [4u64, 8, 16, 4, 8, 16] {
            let q = query(&set, &model, stash);
            let direct = DirectStageDp.solve(&est, &model, &q).unwrap();
            let incremental = interned.solve(&est, &model, &q).unwrap();
            assert_eq!(direct, incremental, "stash {stash}");
        }
        assert!(engine.evictions() > 0, "cap of 48 must force evictions");
        assert!(
            engine.table().len() <= 48 + 3,
            "table size {} far exceeds the bound",
            engine.table().len()
        );
        // Unbounded engines never evict.
        assert_eq!(IncrementalEngine::new().evictions(), 0);
    }

    #[test]
    fn ledger_feasibility_matches_dp_feasible() {
        let est = estimator();
        let model = tiny_bert(4);
        let set = DecisionTreeBuilder::new(8).strategies();
        let engine = IncrementalEngine::new();
        let bound = engine.bind(&est, &model);
        for budget in [2 * GIB, 6 * GIB, 12 * GIB] {
            // Descending stash order: the second and third answers come
            // straight from the monotone window when the first was decisive.
            for stash in [32u64, 16, 8] {
                let q = StageDpQuery::new(0..model.n_layers(), &set, stash, budget, 32 * MIB);
                let expected = dp_feasible(&est, &model, &q, &DirectCosts);
                assert_eq!(
                    bound.feasible(&est, &model, &q),
                    expected,
                    "budget {budget} stash {stash}"
                );
            }
        }
        let counters = engine.counters();
        assert!(counters.ledger_hits > 0, "{counters:?}");
        assert!(counters.ledger_misses > 0, "{counters:?}");
    }

    #[test]
    fn contexts_do_not_share_entries() {
        let est = estimator();
        let model_a = tiny_bert(2);
        let model_b = tiny_bert(4);
        let engine = IncrementalEngine::new();
        let a = engine.bind(&est, &model_a);
        let b = engine.bind(&est, &model_b);
        assert_ne!(a.ctx, b.ctx);
        // Same model re-bound → same context.
        assert_eq!(engine.bind(&est, &model_a).ctx, a.ctx);
        let set = DecisionTreeBuilder::new(8).strategies();
        let qa = query(&set, &model_a, 8);
        ArenaStageDp::new(&a).solve(&est, &model_a, &qa).unwrap();
        let before = engine.counters();
        let qb = query(&set, &model_b, 8);
        ArenaStageDp::new(&b).solve(&est, &model_b, &qb).unwrap();
        let delta = engine.counters().since(&before);
        assert_eq!(
            delta.intern_hits, 0,
            "a different model must not hit the other context's entries"
        );
    }

    #[test]
    fn stale_batch_results_are_not_replayed_across_micro_shapes() {
        // Same stash, different micro-batch count: the intern table may
        // share memory kernels but costs are keyed by micro, so the solve
        // must match direct in both shapes.
        let est = estimator();
        let model = tiny_bert(4);
        let set = DecisionTreeBuilder::new(8).strategies();
        let engine = IncrementalEngine::new();
        let bound = engine.bind(&est, &model);
        let interned = ArenaStageDp::new(&bound);
        for micro_batches in [1usize, 2, 4] {
            let q = StageDpQuery {
                micro_batches,
                ..query(&set, &model, 16)
            };
            let direct = DirectStageDp.solve(&est, &model, &q).unwrap();
            let incremental = interned.solve(&est, &model, &q).unwrap();
            assert_eq!(direct, incremental, "micro_batches {micro_batches}");
        }
    }
}
