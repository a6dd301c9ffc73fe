//! The arena DP solver: the Eq. 1 search of
//! [`reference::solve`](crate::reference::solve) rebuilt for the planning
//! hot path, bit-identical by construction.
//!
//! The reference solver is simple, obviously faithful to Eq. 1, and kept
//! untouched as the oracle every other path is differenced against. This
//! module is the production path — [`ArenaStageDp`] is the one solver the
//! planner runs, over the [`StageCostProvider`] it is handed
//! ([`DirectCosts`](crate::dp::DirectCosts) in production). It computes the
//! exact same
//! [`DpResult`] (every `f64` bit, every tie-break) while removing the four
//! dominant costs of a cold solve:
//!
//! 1. **Contiguous pre-sized arenas.** All working storage — the
//!    structure-of-arrays cost/memory kernel tables, the flat
//!    transformation matrix, the `dp`/`next` wavefronts, the min-plus
//!    scratch and the backpointers — lives in one reusable [`DpArena`] of
//!    flat `Vec`s that are resized (never reallocated once warm) per solve.
//!    No per-cell or per-layer allocation survives on the hot path.
//!
//! 2. **Layer-class deduplication.** Kernel values depend on a layer's
//!    geometry ([`LayerKind`](galvatron_model::LayerKind)), not its display
//!    name, so the `L` stage layers collapse into `C` *classes* (deep
//!    uniform transformers have `C ≈ 3`: embedding, encoder, head). Cost,
//!    memory and transformation kernels are fetched once per class instead
//!    of once per layer — `O(C·|S|²)` provider queries instead of
//!    `O(L·|S|²)`. The replayed values are the provider's own returns for a
//!    layer of identical geometry, so every table entry is bit-equal to
//!    what the reference solver would have fetched.
//!
//! 3. **Dominance prefilter + min-plus inner loop.** Per layer, strategies
//!    that provably cannot appear in any optimal assignment (see
//!    [`dominated_mask`]) are dropped before the `O(E·|S|²)` sweep, and the
//!    inner recurrence is restructured as a shared min-plus pass
//!    (`g[rem][s] = min_p dp[rem][p] + r[p][s]`) computed once per
//!    remaining-memory row instead of once per `(e, s)` cell. Both
//!    transformations preserve the reference solver's first-wins strict-`<`
//!    tie-breaking exactly — the argmin sequence is unchanged, so the
//!    reconstruction walks the same backpointers.
//!
//! 4. **Row-delta min-plus.** Consecutive memory rows mostly agree: on
//!    deep BMW stages most `(layer, rem)` rows equal row `rem − 1` on every
//!    surviving predecessor. Per layer, the min-plus row `(g, argmin)` is
//!    therefore kept across the `rem` loop: the first reachable row runs
//!    the full ascending scan, and every later row folds in only the
//!    predecessors whose `dp` bits changed since the row before, with the
//!    rule `v < g || (v == g && p < gp)`. A row with no changed
//!    predecessor costs one `O(|A_prev|)` compare pass and no
//!    `|A_prev|·|A_cur|` work. The monotone-row lemma below is why the
//!    fold lands on the full scan's value *and* first-wins argmin.
//!    [`DpArena::minplus_pairs`] and [`DpArena::minplus_pairs_dense`]
//!    count the pairs folded against the pairs a dense per-row scan would
//!    have visited.
//!
//! ## The dominance lemma
//!
//! For one layer `l` of the stage, say strategy `s_i` *dominates* `s_j`
//! when `i < j` in set order and, component-wise,
//!
//! * `cost(l, s_i) ≤ cost(l, s_j)`,
//! * `units(l, s_i) ≤ units(l, s_j)` (quantized memory),
//! * if `l` has a predecessor: `R(l−1, p, s_i) ≤ R(l−1, p, s_j)` for
//!   **every** `p` in the set,
//! * if `l` has a successor: `R(l, s_i, q) ≤ R(l, s_j, q)` for **every**
//!   `q` in the set.
//!
//! Then removing `s_j` at layer `l` cannot change the DP's returned value
//! or plan. Induction over layers: the memory condition gives
//! `e − units(s_i) ≥ e − units(s_j)`, and `dp[e][·]` is non-increasing in
//! `e` ("at most `e`" semantics), so every incoming path priced through
//! `s_j` has a counterpart through `s_i` that is no more expensive —
//! `dp[e][s_i] ≤ dp[e][s_j]` for all `e`. The outgoing condition extends
//! the same inequality through the next boundary, so in every strict-`<`
//! argmin scan (the per-cell predecessor choice and the terminal scan) the
//! earlier `s_i` is reached first with a value `≤` `s_j`'s: `s_j` can never
//! be *selected*, and skipping it leaves every computed min value — and the
//! first-wins argmin — bit-identical. Domination is transitive and the
//! earliest strategy of any tie group has no earlier dominator, so the
//! surviving set is never empty. The `dp_fuzz_differential` suite asserts
//! this lemma empirically against the reference solver on randomized
//! instances.
//!
//! ## The monotone-row lemma
//!
//! Every `dp` column is non-increasing in `rem`: `dp[rem][p] ≤
//! dp[rem − 1][p]` for every layer and decision `p`. Induction over
//! layers: layer 0 seeds each decision's "at most `e`" suffix (INF below
//! its need, its cost at and above). For a later layer, each contribution
//! `dp[rem][p] + R[p][d]` is non-increasing in `rem` because IEEE addition
//! of a fixed addend is monotone, so `g[rem][d]` — a `min` over them — is
//! too; `next[rem + need][d] = g[rem][d] + cost(d)` shifts that column up
//! by a fixed offset, and the clamped tail above `hi_prev + need` copies
//! the top row, which keeps it non-increasing.
//!
//! Consequently, going from row `rem − 1` to `rem`, every changed
//! contribution strictly fell and every unchanged one kept its bits. Write
//! `(g, gp)` for row `rem − 1`'s minimum and lowest attaining index. The
//! new minimum is `min(g, changed contributions)`: an unchanged
//! contribution is `≥ g`, and if `gp` itself changed its new contribution
//! is `≤ g`. The lowest index attaining the new minimum is the lowest of
//! `gp` (when the minimum stayed `g`) and the changed predecessors that
//! attain it: an unchanged predecessor attaining `g` has index `≥ gp`,
//! since `gp` was the lowest attaining `g` before. That is exactly the
//! value and argmin the reference's ascending strict-`<` scan returns, so
//! folding the changed predecessors with `v < g || (v == g && p < gp)`
//! is bit-identical to rescanning the row. Debug builds assert every
//! changed value strictly decreased; the `dp_fuzz_differential` deep-stage
//! lane pins the result against the reference solver on real-size models.

use crate::dp::{DpResult, RecomputeMode, StageCostProvider, StageDp, StageDpQuery};
use galvatron_cluster::{ClusterError, DeviceId};
use galvatron_estimator::CostEstimator;
use galvatron_model::ModelSpec;
use galvatron_strategy::StrategySet;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

const INF: f64 = f64::INFINITY;

/// Hard cap on per-layer *decision*-space size on the arena path
/// (backpointers are `u8`, and the fused inner loop keeps one stack row of
/// this width). A decision is `(strategy, recompute-plane)`, so with
/// [`RecomputeMode::Auto`]'s two planes the strategy-set cap halves.
const MAX_STRATEGIES: usize = 256;

/// Reusable flat scratch for [`dp_search_arena`]. One arena serves any
/// number of solves of any shape; buffers grow to the high-water mark and
/// are reused thereafter. Obtain a thread-local instance with
/// [`with_thread_arena`].
#[derive(Debug, Default)]
pub struct DpArena {
    /// Per stage layer: its class id.
    class_of: Vec<u32>,
    /// Per class: the global index of its representative (first) layer.
    class_rep: Vec<usize>,
    /// `cost[c·S + s]` — per-class per-strategy stage-time kernel.
    cost: Vec<f64>,
    /// `mem[c·S + s]` — per-class per-strategy quantized memory units.
    mem: Vec<u32>,
    /// `r[c·S·S + p·S + s]` — transformation across the boundary *after* a
    /// layer of class `c`.
    r: Vec<f64>,
    /// Whether class `c`'s row of `r` has been computed this solve.
    r_ready: Vec<bool>,
    /// Deduplicated dominance keys `(prev_class, class, has_next)`;
    /// `u32::MAX` encodes "no predecessor".
    keys: Vec<(u32, u32, bool)>,
    /// Per stage layer: index into `keys`.
    layer_key: Vec<u32>,
    /// `active[k·S ..]` — the surviving strategy indices for key `k`
    /// (ascending set order), `active_len[k]` of them.
    active: Vec<u8>,
    active_len: Vec<usize>,
    /// Per layer: the smallest reachable total memory draw of the prefix
    /// through that layer (rows below are INF).
    lo: Vec<usize>,
    /// Per layer: `min(e_max, largest reachable prefix draw)` — dp rows
    /// above it are bit-equal to the row at it ("at most e" semantics).
    hi: Vec<usize>,
    dp: Vec<f64>,
    next: Vec<f64>,
    choice: Vec<u8>,
    solves: u64,
    dominated_slots: u64,
    minplus_pairs: u64,
    minplus_pairs_dense: u64,
}

impl DpArena {
    /// A fresh arena (no storage reserved yet).
    pub fn new() -> Self {
        DpArena::default()
    }

    /// Solves run through this arena since construction.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Cumulative `(layer, strategy)` slots removed by the dominance
    /// prefilter across all solves.
    pub fn dominated_slots(&self) -> u64 {
        self.dominated_slots
    }

    /// Cumulative `(predecessor, decision)` pairs the row-delta min-plus
    /// folded across all solves.
    pub fn minplus_pairs(&self) -> u64 {
        self.minplus_pairs
    }

    /// Cumulative `(predecessor, decision)` pairs a dense per-row min-plus
    /// over the same windows and survivors would have visited.
    pub fn minplus_pairs_dense(&self) -> u64 {
        self.minplus_pairs_dense
    }
}

thread_local! {
    static THREAD_ARENA: RefCell<DpArena> = RefCell::new(DpArena::new());
}

/// Run `f` with this thread's shared [`DpArena`] scratch.
pub fn with_thread_arena<R>(f: impl FnOnce(&mut DpArena) -> R) -> R {
    THREAD_ARENA.with(|arena| f(&mut arena.borrow_mut()))
}

/// The per-layer dominance mask for a stage solve, for differential
/// testing: `mask[li][dj]` is `true` iff decision `dj` (indexed
/// `plane·|S| + s`, stash plane first) is *removed* at stage layer `li` by
/// the dominance prefilter. Uses the same kernel tables (and therefore the
/// same provider calls) as [`dp_search_arena`]. With
/// [`RecomputeMode::Off`] decisions coincide with strategies.
pub fn dominance_masks(
    estimator: &CostEstimator,
    model: &ModelSpec,
    q: &StageDpQuery<'_>,
    provider: &dyn StageCostProvider,
) -> Result<Vec<Vec<bool>>, ClusterError> {
    let mut arena = DpArena::new();
    let n_dec = q.set.len() * q.recompute.planes().len();
    let tables = build_tables(
        estimator,
        model,
        q.layers(),
        q.base_device,
        q.set,
        q.stage_batch,
        q.granularity,
        q.micro_batches,
        q.act_stash_batch,
        q.recompute,
        provider,
        &mut arena,
    )?;
    let Some(Tables { n_layers, .. }) = tables else {
        return Ok(Vec::new());
    };
    let mut out = Vec::with_capacity(n_layers);
    for li in 0..n_layers {
        let k = arena.layer_key[li] as usize;
        let survivors = &arena.active[k * n_dec..k * n_dec + arena.active_len[k]];
        let mut mask = vec![true; n_dec];
        for &s in survivors {
            mask[s as usize] = false;
        }
        out.push(mask);
    }
    Ok(out)
}

/// What [`build_tables`] produced (when the instance is non-trivial).
struct Tables {
    n_layers: usize,
    reserve: u64,
}

/// Fill the arena's kernel tables, transformation matrix and dominance
/// lists for one solve. Returns `None` for the trivial empty instance.
#[allow(clippy::too_many_arguments)]
fn build_tables(
    estimator: &CostEstimator,
    model: &ModelSpec,
    layer_range: Range<usize>,
    base_device: DeviceId,
    set: &StrategySet,
    stage_batch: u64,
    granularity: u64,
    micro_batches: usize,
    act_stash_batch: u64,
    recompute: RecomputeMode,
    provider: &dyn StageCostProvider,
    arena: &mut DpArena,
) -> Result<Option<Tables>, ClusterError> {
    assert!(granularity > 0);
    let planes = recompute.planes();
    let n_layers = layer_range.len();
    let n_strats = set.len();
    let n_dec = n_strats * planes.len();
    if n_layers == 0 || n_strats == 0 {
        return Ok(None);
    }
    assert!(
        n_dec <= u8::MAX as usize,
        "arena DP caps the per-layer decision space at {} (got {n_dec})",
        u8::MAX
    );

    // Layer classes: kernels depend on geometry (`LayerKind`), not the
    // display name, so equal-kind layers share one table row.
    arena.class_of.clear();
    arena.class_rep.clear();
    for l in layer_range.clone() {
        let kind = &model.layers[l].kind;
        match arena
            .class_rep
            .iter()
            .position(|&rep| model.layers[rep].kind == *kind)
        {
            Some(c) => arena.class_of.push(c as u32),
            None => {
                arena.class_of.push(arena.class_rep.len() as u32);
                arena.class_rep.push(l);
            }
        }
    }
    let n_classes = arena.class_rep.len();

    // Per-class cost and quantized-memory kernels over the full decision
    // space (`d = plane·|S| + s`, stash plane first), plus the transient
    // reserve. The max over (class, decision) equals the reference max
    // over (layer, decision): equal-kind layers report equal transients.
    arena.cost.resize(n_classes * n_dec, 0.0);
    arena.mem.resize(n_classes * n_dec, 0);
    let micro = (stage_batch / micro_batches.max(1) as u64).max(1);
    let mut reserve = 0u64;
    for c in 0..n_classes {
        let l = arena.class_rep[c];
        for (plane, &rc) in planes.iter().enumerate() {
            for (si, s) in set.iter().enumerate() {
                let di = plane * n_strats + si;
                let lc = provider.layer_cost_rc(estimator, model, l, s, micro, base_device, rc)?;
                arena.cost[c * n_dec + di] = lc.total(estimator.config(), micro_batches);
                let m = provider.layer_memory_rc(estimator, model, l, s, act_stash_batch, rc);
                arena.mem[c * n_dec + di] =
                    u32::try_from(m.persistent().div_ceil(granularity)).unwrap_or(u32::MAX);
                reserve = reserve.max(m.transient);
            }
        }
    }
    // Transformation matrix per *predecessor* class: the boundary after
    // stage layer `li` is priced from `model.layers[global(li)]`, which is
    // class `class_of[li]`'s geometry.
    arena.r.resize(n_classes * n_strats * n_strats, 0.0);
    arena.r_ready.clear();
    arena.r_ready.resize(n_classes, false);
    for li in 0..n_layers.saturating_sub(1) {
        let c = arena.class_of[li] as usize;
        if arena.r_ready[c] {
            continue;
        }
        arena.r_ready[c] = true;
        let l = arena.class_rep[c];
        for (pi, p) in set.iter().enumerate() {
            for (si, s) in set.iter().enumerate() {
                arena.r[(c * n_strats + pi) * n_strats + si] =
                    provider.transformation(estimator, model, l, p, s, stage_batch, base_device)?;
            }
        }
    }

    // Dominance lists, one per (prev_class, class, has_next) key.
    arena.keys.clear();
    arena.layer_key.clear();
    for li in 0..n_layers {
        let pc = if li > 0 {
            arena.class_of[li - 1]
        } else {
            u32::MAX
        };
        let key = (pc, arena.class_of[li], li + 1 < n_layers);
        let k = match arena.keys.iter().position(|&existing| existing == key) {
            Some(k) => k,
            None => {
                arena.keys.push(key);
                arena.keys.len() - 1
            }
        };
        arena.layer_key.push(k as u32);
    }
    let n_keys = arena.keys.len();
    arena.active.resize(n_keys * n_dec, 0);
    arena.active_len.clear();
    arena.active_len.resize(n_keys, 0);
    // Dominance over *decisions*: `di` removes `dj` (`di < dj` in
    // plane-major order, stash plane first) when its cost, its quantized
    // memory and — through the strategy parts, since `R` is blind to the
    // recompute plane — every incoming and outgoing transformation are all
    // `≤`. The memory axis is what keeps the lemma sound across planes: a
    // stash decision usually beats its recompute twin on cost but loses on
    // memory, so the pair survives together unless one is worse on both.
    for k in 0..n_keys {
        let (pc, c, has_next) = arena.keys[k];
        let c = c as usize;
        let cost = &arena.cost[c * n_dec..(c + 1) * n_dec];
        let mem = &arena.mem[c * n_dec..(c + 1) * n_dec];
        let mut len = 0usize;
        for dj in 0..n_dec {
            let sj = dj % n_strats;
            let dominated = (0..dj).any(|di| {
                if !(cost[di] <= cost[dj] && mem[di] <= mem[dj]) {
                    return false;
                }
                let si = di % n_strats;
                if pc != u32::MAX {
                    let rin = &arena.r[(pc as usize) * n_strats * n_strats..];
                    if !(0..n_strats).all(|p| rin[p * n_strats + si] <= rin[p * n_strats + sj]) {
                        return false;
                    }
                }
                if has_next {
                    let rout = &arena.r[c * n_strats * n_strats..];
                    if !(0..n_strats).all(|q| rout[si * n_strats + q] <= rout[sj * n_strats + q]) {
                        return false;
                    }
                }
                true
            });
            if !dominated {
                arena.active[k * n_dec + len] = dj as u8;
                len += 1;
            }
        }
        debug_assert!(len >= 1, "the earliest decision is never dominated");
        arena.active_len[k] = len;
    }
    for &k in &arena.layer_key {
        arena.dominated_slots += (n_dec - arena.active_len[k as usize]) as u64;
    }

    Ok(Some(Tables { n_layers, reserve }))
}

/// The arena fast path for [`reference::solve`](crate::reference::solve),
/// with the query's fields spelled out: same inputs, same provider
/// contract, bit-identical output. See the module docs for why the answer
/// cannot differ. [`ArenaStageDp`] runs it per query on the thread-local
/// arena.
#[allow(clippy::too_many_arguments)]
pub fn dp_search_arena(
    estimator: &CostEstimator,
    model: &ModelSpec,
    layer_range: Range<usize>,
    base_device: DeviceId,
    set: &StrategySet,
    stage_batch: u64,
    usable_budget: u64,
    granularity: u64,
    micro_batches: usize,
    act_stash_batch: u64,
    recompute: RecomputeMode,
    provider: &dyn StageCostProvider,
    arena: &mut DpArena,
) -> Result<Option<DpResult>, ClusterError> {
    let planes = recompute.planes();
    let n_strats = set.len();
    let n_dec = n_strats * planes.len();
    let tables = build_tables(
        estimator,
        model,
        layer_range,
        base_device,
        set,
        stage_batch,
        granularity,
        micro_batches,
        act_stash_batch,
        recompute,
        provider,
        arena,
    )?;
    let Some(Tables { n_layers, reserve }) = tables else {
        return Ok(Some(DpResult {
            cost: 0.0,
            strategies: Vec::new(),
            recompute: Vec::new(),
            memory_bytes: 0,
        }));
    };
    arena.solves += 1;

    // Same budget arithmetic as the reference solver, bit for bit.
    let budget_units = usable_budget.saturating_sub(2 * reserve) / granularity;
    let e_max = usize::try_from(budget_units)
        .unwrap_or(usize::MAX)
        .min(1 << 22);
    let width = e_max + 1;
    let cells = width * n_dec;

    // Reachable-memory windows over the surviving *placeable* strategies
    // (those whose quantized draw fits the budget at all — a strategy
    // with `need > e_max` can never be assigned, so it cannot widen any
    // reachable row): through layer `li`, every feasible prefix draws at
    // least `lo[li]` and at most `Σ max_need` quantized units, so dp rows
    // below `lo[li]` are INF and rows at or above that max are bit-equal
    // to each other ("at most e" semantics make dp constant once every
    // placeable strategy fits). The wavefront therefore only materializes
    // rows in `[lo, hi]` with `hi = min(e_max, Σ max_need)`; reads above
    // `hi` clamp to it, which returns the identical bits the full-width
    // table would hold. Dominance keeps these bounds exact: a dominating
    // strategy never needs more memory than the one it removes, so the
    // min over survivors equals the min over the whole set.
    arena.lo.clear();
    arena.hi.clear();
    let mut lo_sum = 0u64;
    let mut hi_sum = 0u64;
    for li in 0..n_layers {
        let c = arena.class_of[li] as usize;
        let k = arena.layer_key[li] as usize;
        let act = &arena.active[k * n_dec..k * n_dec + arena.active_len[k]];
        let mut mn = u64::MAX;
        let mut mx = 0u64;
        for &s in act {
            let m = arena.mem[c * n_dec + s as usize] as u64;
            if m > e_max as u64 {
                continue;
            }
            mn = mn.min(m);
            mx = mx.max(m);
        }
        // `mn` stays MAX when no strategy is placeable at this layer; the
        // saturating prefix then exceeds `e_max` and the solve reports
        // the same infeasibility the reference's all-INF row would.
        lo_sum = lo_sum.saturating_add(mn);
        hi_sum = hi_sum.saturating_add(mx);
        arena.lo.push(usize::try_from(lo_sum).unwrap_or(usize::MAX));
        arena
            .hi
            .push(usize::try_from(hi_sum).unwrap_or(usize::MAX).min(e_max));
    }
    if arena.lo[n_layers - 1] > e_max {
        // Even the minimum-memory assignment exceeds the budget; the
        // reference solver reaches the same all-INF terminal row.
        return Ok(None);
    }

    // Every read is confined to the current layer's `[lo, hi]` window,
    // which is INF-filled (dp here, next per layer) before use — so the
    // scratch buffers only ever grow; rows outside the windows may hold
    // stale bits from earlier solves that are provably never observed.
    if arena.dp.len() < cells {
        arena.dp.resize(cells, INF);
    }
    if arena.next.len() < cells {
        arena.next.resize(cells, INF);
    }
    // `choice` is only ever read at slots the scatter wrote this solve
    // (every slot on the optimal path holds a finite dp value, hence was
    // written), so it needs sizing but not clearing. Debug builds clear
    // it to keep the missing-backpointer assert meaningful.
    if arena.choice.len() < n_layers * cells {
        arena.choice.resize(n_layers * cells, u8::MAX);
    }
    #[cfg(debug_assertions)]
    arena.choice[..n_layers * cells].fill(u8::MAX);

    // Layer 0: every surviving decision that fits seeds its "at most e"
    // suffix with its own cost.
    {
        let k0 = arena.layer_key[0] as usize;
        let c0 = arena.class_of[0] as usize;
        let hi0 = arena.hi[0];
        arena.dp[arena.lo[0] * n_dec..(hi0 + 1) * n_dec].fill(INF);
        for i in 0..arena.active_len[k0] {
            let di = arena.active[k0 * n_dec + i] as usize;
            let need = arena.mem[c0 * n_dec + di] as usize;
            if need <= e_max {
                let v = arena.cost[c0 * n_dec + di];
                for e in need..=hi0 {
                    arena.dp[e * n_dec + di] = v;
                }
            }
        }
    }

    for li in 1..n_layers {
        let lo_prev = arena.lo[li - 1];
        let hi_prev = arena.hi[li - 1];
        let lo_cur = arena.lo[li];
        let hi_cur = arena.hi[li];
        arena.next[lo_cur * n_dec..(hi_cur + 1) * n_dec].fill(INF);
        let c = arena.class_of[li] as usize;
        let pc = arena.class_of[li - 1] as usize;
        let k_cur = arena.layer_key[li] as usize;
        let k_prev = arena.layer_key[li - 1] as usize;
        let act_cur = &arena.active[k_cur * n_dec..k_cur * n_dec + arena.active_len[k_cur]];
        let act_prev = &arena.active[k_prev * n_dec..k_prev * n_dec + arena.active_len[k_prev]];
        // Row-delta min-plus + scatter over the previous layer's reachable
        // rows. Per row, g[d] = min over surviving predecessor decisions p
        // of dp[rem][p] + r[strat(p)][strat(d)], first-wins on ties. `R` is
        // blind to the recompute plane, so decisions index the
        // transformation matrix through their strategy parts. The first
        // row runs the reference's full ascending strict-< scan; every
        // later row starts from the row before's (g, argmin) and folds in
        // only the predecessors whose dp bits changed — by the monotone-row
        // lemma (module docs) those only fell, so the fold
        // `v < g || (v == g && p < gp)` lands on the full scan's value and
        // lowest attaining index. Each finite g[d] immediately seeds
        // next[rem + need(d)][d] = g[d] + cost(d); rows past `hi_prev`
        // would all read the clamped `hi_prev` row, so that row's pass
        // additionally fills the `(hi_prev + need, hi_cur]` tail.
        let rbase = &arena.r[pc * n_strats * n_strats..(pc + 1) * n_strats * n_strats];
        let mut g_row = [INF; MAX_STRATEGIES];
        let mut gp_row = [u8::MAX; MAX_STRATEGIES];
        let mut folded = 0u64;
        for rem in lo_prev..=hi_prev {
            let row = rem * n_dec;
            for &p in act_prev {
                let prior = arena.dp[row + p as usize];
                if rem == lo_prev {
                    if !prior.is_finite() {
                        continue;
                    }
                } else {
                    let before = arena.dp[row - n_dec + p as usize];
                    if prior.to_bits() == before.to_bits() {
                        continue;
                    }
                    debug_assert!(
                        prior < before,
                        "dp column rose from row {} to {rem}: {before} -> {prior}",
                        rem - 1
                    );
                }
                folded += 1;
                let ps = p as usize % n_strats;
                let rrow = &rbase[ps * n_strats..(ps + 1) * n_strats];
                for &s in act_cur {
                    let (g, gp) = (g_row[s as usize], gp_row[s as usize]);
                    let v = prior + rrow[s as usize % n_strats];
                    if v < g || (v == g && p < gp) {
                        g_row[s as usize] = v;
                        gp_row[s as usize] = p;
                    }
                }
            }
            for &s in act_cur {
                let di = s as usize;
                let v = g_row[di];
                if !v.is_finite() {
                    continue;
                }
                let need = arena.mem[c * n_dec + di] as usize;
                let lcost = arena.cost[c * n_dec + di];
                let e = rem + need;
                if e <= hi_cur {
                    arena.next[e * n_dec + di] = v + lcost;
                    arena.choice[(li * width + e) * n_dec + di] = gp_row[di];
                }
                if rem == hi_prev {
                    for e in (hi_prev + need + 1)..=hi_cur {
                        arena.next[e * n_dec + di] = v + lcost;
                        arena.choice[(li * width + e) * n_dec + di] = gp_row[di];
                    }
                }
            }
        }
        let n_cur = act_cur.len() as u64;
        arena.minplus_pairs += folded * n_cur;
        arena.minplus_pairs_dense += (hi_prev - lo_prev + 1) as u64 * act_prev.len() as u64 * n_cur;
        std::mem::swap(&mut arena.dp, &mut arena.next);
    }

    // Terminal scan: strict-<, ascending decision order — dominated
    // decisions are INF here, and by the lemma they could never have been
    // selected. Rows above `hi` are bit-equal to the row at `hi`, so
    // scanning the clamped row is the reference's `e_max` scan.
    let e_top = arena.hi[n_layers - 1];
    let mut best = INF;
    let mut best_d = usize::MAX;
    for di in 0..n_dec {
        let v = arena.dp[e_top * n_dec + di];
        if v < best {
            best = v;
            best_d = di;
        }
    }
    if !best.is_finite() {
        return Ok(None);
    }

    // Reconstruction, identical to the reference walk.
    let mut strategies_rev = Vec::with_capacity(n_layers);
    let mut recompute_rev = Vec::with_capacity(n_layers);
    let mut di = best_d;
    let mut e = e_max;
    let mut mem_total_units = 0u64;
    for li in (0..n_layers).rev() {
        strategies_rev.push(set.strategies()[di % n_strats].clone());
        recompute_rev.push(planes[di / n_strats]);
        let need = arena.mem[arena.class_of[li] as usize * n_dec + di] as usize;
        mem_total_units += need as u64;
        if li == 0 {
            break;
        }
        let parent = arena.choice[(li * width + e.min(arena.hi[li])) * n_dec + di];
        debug_assert_ne!(parent, u8::MAX, "backpointer missing");
        e -= need;
        di = parent as usize;
    }
    strategies_rev.reverse();
    recompute_rev.reverse();
    if recompute_rev.iter().all(|&rc| !rc) {
        recompute_rev = Vec::new();
    }

    Ok(Some(DpResult {
        cost: best,
        strategies: strategies_rev,
        recompute: recompute_rev,
        memory_bytes: mem_total_units * granularity + 2 * reserve,
    }))
}

/// The production [`StageDp`]: every query runs [`dp_search_arena`] on the
/// thread-local scratch, with kernels from the provider it was built over —
/// the planner hands it [`DirectCosts`](crate::dp::DirectCosts). Counts its
/// solves, the
/// dominance prefilter's removed slots and the min-plus pairs folded
/// against the dense count.
pub struct ArenaStageDp<'p> {
    provider: &'p (dyn StageCostProvider + Sync),
    solves: AtomicUsize,
    dominated: AtomicUsize,
    minplus_pairs: AtomicUsize,
    minplus_pairs_dense: AtomicUsize,
}

impl<'p> ArenaStageDp<'p> {
    /// A solver over `provider`'s kernels, with zeroed counters.
    pub fn new(provider: &'p (dyn StageCostProvider + Sync)) -> Self {
        ArenaStageDp {
            provider,
            solves: AtomicUsize::new(0),
            dominated: AtomicUsize::new(0),
            minplus_pairs: AtomicUsize::new(0),
            minplus_pairs_dense: AtomicUsize::new(0),
        }
    }

    /// Stage solves answered so far.
    pub fn solves(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Cumulative `(layer, strategy)` slots removed by the dominance
    /// prefilter.
    pub fn dominated(&self) -> usize {
        self.dominated.load(Ordering::Relaxed)
    }

    /// Cumulative min-plus pairs folded (see [`DpArena::minplus_pairs`]).
    pub fn minplus_pairs(&self) -> usize {
        self.minplus_pairs.load(Ordering::Relaxed)
    }

    /// Cumulative min-plus pairs a dense per-row scan would have visited
    /// (see [`DpArena::minplus_pairs_dense`]).
    pub fn minplus_pairs_dense(&self) -> usize {
        self.minplus_pairs_dense.load(Ordering::Relaxed)
    }
}

impl StageDp for ArenaStageDp<'_> {
    fn solve(
        &self,
        estimator: &CostEstimator,
        model: &ModelSpec,
        q: &StageDpQuery<'_>,
    ) -> Result<Option<DpResult>, ClusterError> {
        with_thread_arena(|arena| {
            let dominated = arena.dominated_slots();
            let pairs = arena.minplus_pairs();
            let dense = arena.minplus_pairs_dense();
            let out = dp_search_arena(
                estimator,
                model,
                q.layers(),
                q.base_device,
                q.set,
                q.stage_batch,
                q.usable_budget,
                q.granularity,
                q.micro_batches,
                q.act_stash_batch,
                q.recompute,
                self.provider,
                arena,
            )?;
            self.solves.fetch_add(1, Ordering::Relaxed);
            self.dominated.fetch_add(
                (arena.dominated_slots() - dominated) as usize,
                Ordering::Relaxed,
            );
            self.minplus_pairs
                .fetch_add((arena.minplus_pairs() - pairs) as usize, Ordering::Relaxed);
            self.minplus_pairs_dense.fetch_add(
                (arena.minplus_pairs_dense() - dense) as usize,
                Ordering::Relaxed,
            );
            Ok(out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::DirectCosts;
    use crate::reference;
    use galvatron_cluster::{rtx_titan_node, GIB, MIB};
    use galvatron_estimator::{EstimatorConfig, LayerCost, LayerMemory};
    use galvatron_model::BertConfig;
    use galvatron_strategy::{DecisionTreeBuilder, IntraStageStrategy};

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

    fn arena_solve(
        est: &CostEstimator,
        model: &ModelSpec,
        q: &StageDpQuery<'_>,
        provider: &dyn StageCostProvider,
        arena: &mut DpArena,
    ) -> Option<DpResult> {
        dp_search_arena(
            est,
            model,
            q.layers(),
            q.base_device,
            q.set,
            q.stage_batch,
            q.usable_budget,
            q.granularity,
            q.micro_batches,
            q.act_stash_batch,
            q.recompute,
            provider,
            arena,
        )
        .unwrap()
    }

    #[test]
    fn arena_matches_reference_bit_for_bit() {
        let est = estimator();
        let model = tiny_bert(6);
        let mut arena = DpArena::new();
        for group in [2usize, 4, 8] {
            let set = DecisionTreeBuilder::new(group).strategies();
            for budget in [512 * MIB, 2 * GIB, 8 * GIB, 20 * GIB] {
                for micro_batches in [1usize, 2, 4] {
                    let q = StageDpQuery {
                        micro_batches,
                        ..StageDpQuery::new(0..model.n_layers(), &set, 16, budget, 32 * MIB)
                    };
                    let reference = reference::solve(&est, &model, &q, &DirectCosts).unwrap();
                    let fast = arena_solve(&est, &model, &q, &DirectCosts, &mut arena);
                    match (&reference, &fast) {
                        (Some(a), Some(b)) => {
                            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
                            assert_eq!(a.strategies, b.strategies);
                            assert_eq!(a.memory_bytes, b.memory_bytes);
                        }
                        (None, None) => {}
                        other => panic!("feasibility drift: {other:?}"),
                    }
                }
            }
        }
        assert!(arena.solves() > 0);
    }

    #[test]
    fn empty_instances_are_trivial() {
        let est = estimator();
        let model = tiny_bert(2);
        let set = DecisionTreeBuilder::new(8).strategies();
        let mut arena = DpArena::new();
        let q = StageDpQuery::new(0..0, &set, 8, GIB, MIB);
        let out = arena_solve(&est, &model, &q, &DirectCosts, &mut arena).unwrap();
        assert_eq!(out.cost, 0.0);
        assert!(out.strategies.is_empty());
        let empty = StrategySet::new(8, Vec::new());
        let q = StageDpQuery::new(0..model.n_layers(), &empty, 8, GIB, MIB);
        let out = arena_solve(&est, &model, &q, &DirectCosts, &mut arena).unwrap();
        assert!(out.strategies.is_empty());
    }

    #[test]
    fn dominance_masks_never_remove_the_reference_choice() {
        let est = estimator();
        let model = tiny_bert(4);
        let set = DecisionTreeBuilder::new(8).strategies();
        for budget in [2 * GIB, 8 * GIB, 16 * GIB] {
            let q = StageDpQuery {
                micro_batches: 2,
                ..StageDpQuery::new(0..model.n_layers(), &set, 16, budget, 32 * MIB)
            };
            let reference = reference::solve(&est, &model, &q, &DirectCosts).unwrap();
            let masks = dominance_masks(&est, &model, &q, &DirectCosts).unwrap();
            if let Some(reference) = reference {
                for (li, chosen) in reference.strategies.iter().enumerate() {
                    let si = set.strategies().iter().position(|s| s == chosen).unwrap();
                    assert!(
                        !masks[li][si],
                        "budget {budget}: dominance removed the optimal strategy \
                         {chosen} at layer {li}"
                    );
                }
            }
        }
    }

    /// Every strategy costs the same and no boundary costs anything, so
    /// the surviving strategies differ only in memory and every predecessor
    /// that fits ties with every other. Rows are walked upwards, so a
    /// lower-index (bigger) predecessor starts to fit only after a
    /// higher-index one has claimed the argmin: the row-delta fold must
    /// hand the tie back to the lower index, as the reference's ascending
    /// scan does.
    struct FlatCosts;

    impl StageCostProvider for FlatCosts {
        fn layer_cost(
            &self,
            _: &CostEstimator,
            _: &ModelSpec,
            _: usize,
            _: &IntraStageStrategy,
            _: u64,
            _: DeviceId,
        ) -> Result<LayerCost, ClusterError> {
            Ok(LayerCost {
                forward_compute: 1.0,
                ..LayerCost::zero()
            })
        }

        fn layer_memory(
            &self,
            estimator: &CostEstimator,
            model: &ModelSpec,
            layer: usize,
            strategy: &IntraStageStrategy,
            act_stash_batch: u64,
        ) -> LayerMemory {
            DirectCosts.layer_memory(estimator, model, layer, strategy, act_stash_batch)
        }

        fn transformation(
            &self,
            _: &CostEstimator,
            _: &ModelSpec,
            _: usize,
            _: &IntraStageStrategy,
            _: &IntraStageStrategy,
            _: u64,
            _: DeviceId,
        ) -> Result<f64, ClusterError> {
            Ok(0.0)
        }
    }

    #[test]
    fn row_delta_hands_ties_to_the_lowest_predecessor() {
        let est = estimator();
        let model = tiny_bert(4);
        let set = DecisionTreeBuilder::new(8).strategies();
        let mut arena = DpArena::new();
        for budget in [2 * GIB, 4 * GIB, 8 * GIB, 16 * GIB] {
            let q = StageDpQuery::new(0..model.n_layers(), &set, 16, budget, 32 * MIB);
            let reference = reference::solve(&est, &model, &q, &FlatCosts).unwrap();
            let fast = arena_solve(&est, &model, &q, &FlatCosts, &mut arena);
            assert_eq!(reference, fast, "budget {budget}");
        }
    }

    #[test]
    fn arena_stage_dp_counts_its_work() {
        let est = estimator();
        let model = tiny_bert(4);
        let set = DecisionTreeBuilder::new(8).strategies();
        let dp = ArenaStageDp::new(&DirectCosts);
        let q = StageDpQuery {
            micro_batches: 2,
            ..StageDpQuery::new(0..model.n_layers(), &set, 16, 12 * GIB, 32 * MIB)
        };
        let direct = reference::DirectStageDp.solve(&est, &model, &q).unwrap();
        let fast = dp.solve(&est, &model, &q).unwrap();
        assert_eq!(direct, fast);
        assert_eq!(dp.solves(), 1);
        assert!(dp.minplus_pairs() > 0);
        assert!(dp.minplus_pairs() <= dp.minplus_pairs_dense());
    }
}
