//! Memoization of oracle probes on the query hot path.
//!
//! The branch-and-bound bound computation probes a *small* set of
//! keyword-match nodes against a *large* set of candidate roots, over and
//! over (every candidate sharing a root repeats the lookups). The memo
//! store exploits exactly that shape: a flat two-level slab keyed by
//! dense `NodeId`s — one *row* per probe endpoint that owns cached state
//! (in practice the keyword-match nodes, pre-assigned by
//! [`OracleCache::begin_query`]), with each row a dense vector of
//! 32-byte slots indexed by the other endpoint's node id. A probe is two
//! array indexings; there is no hashing anywhere, and the single
//! `RefCell` is borrowed once per probe.
//!
//! Each slot caches both directions of its `(row owner, column)` pair
//! independently (`dist_lb`/`retention_ub` are not symmetric), so a
//! probe `(u, v)` is served from `u`'s row when `u` owns one and from
//! the reverse half of `v`'s row otherwise. Invalidation is a
//! generation stamp: [`OracleCache::clear`] bumps the generation, which
//! invalidates every slot in O(1) while keeping all allocations for
//! reuse by the next query in the session.
//!
//! Correctness does not depend on any of this: the cache only memoizes a
//! pure function of the immutable snapshot, so hits, misses, and
//! budget-overflow pass-throughs all return bit-identical values.

use std::cell::RefCell;

use ci_graph::NodeId;
use ci_index::DistanceOracle;

/// Row sentinel: the node owns no cache row.
const NO_ROW: u32 = u32::MAX;

/// Probe-level counters of one [`OracleCache`], reported per query
/// through [`crate::SearchStats::cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from a memoized slot.
    pub hits: usize,
    /// Probes forwarded to the inner oracle (first sight of a pair, or
    /// overflow pass-through).
    pub misses: usize,
    /// Misses whose result could not be stored because
    /// [`crate::QueryBudget::max_cache_entries`] was reached. Overflow
    /// never changes results — the inner oracle's answer is returned
    /// either way.
    pub overflow: usize,
    /// Cache slots currently allocated (each caches both directions of
    /// one node pair; allocations persist across [`OracleCache::clear`]).
    pub entries: usize,
}

impl CacheStats {
    /// Counter-wise difference (`self - earlier`), for per-run deltas
    /// over a session-owned cache. `entries` is a level, not a counter,
    /// so the later value is kept as-is.
    #[must_use]
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            overflow: self.overflow.saturating_sub(earlier.overflow),
            entries: self.entries,
        }
    }
}

/// One (row owner, column) slot; caches both probe directions with
/// independent generation stamps (stamp == current generation ⇒ valid;
/// slots default to stamp 0, generations start at 1).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    stamp_fwd: u32,
    stamp_rev: u32,
    dist_fwd: u32,
    dist_rev: u32,
    ret_fwd: f64,
    ret_rev: f64,
}

#[derive(Debug)]
struct CacheState {
    /// Current generation; only slots stamped with it are valid.
    generation: u32,
    /// Dense node id → row index (`NO_ROW` = none). Survives `clear()`.
    row_of: Vec<u32>,
    /// Per-row dense column vectors, indexed by the non-owner node id.
    rows: Vec<Vec<Slot>>,
    /// Total slots allocated across rows (the budgeted quantity).
    allocated: usize,
    /// Slot-allocation cap (`None` = unbounded).
    budget: Option<usize>,
    /// Valid directional entries in the current generation.
    live: usize,
    hits: usize,
    misses: usize,
    overflow: usize,
}

impl Default for CacheState {
    fn default() -> Self {
        CacheState {
            generation: 1,
            row_of: Vec::new(),
            rows: Vec::new(),
            allocated: 0,
            budget: None,
            live: 0,
            hits: 0,
            misses: 0,
            overflow: 0,
        }
    }
}

impl CacheState {
    fn row_index(&self, node: usize) -> Option<usize> {
        match self.row_of.get(node) {
            Some(&r) if r != NO_ROW => Some(r as usize),
            _ => None,
        }
    }

    /// Assigns a fresh (empty) row to `node`. Returns `None` only on row
    /// index exhaustion (> `u32::MAX - 1` rows), which degrades to
    /// pass-through rather than failing.
    fn assign_row(&mut self, node: usize) -> Option<usize> {
        let r = u32::try_from(self.rows.len()).ok()?;
        if r == NO_ROW {
            return None;
        }
        if self.row_of.len() <= node {
            self.row_of.resize(node + 1, NO_ROW);
        }
        *self.row_of.get_mut(node)? = r;
        self.rows.push(Vec::new());
        Some(r as usize)
    }

    /// Locates (or creates) the slot coordinates serving probe `(u, v)`:
    /// `(row, column, forward?)`. Prefers an existing row for either
    /// endpoint; otherwise the left argument gets a new row.
    fn locate(&mut self, u: NodeId, v: NodeId) -> Option<(usize, usize, bool)> {
        let (ui, vi) = (u.0 as usize, v.0 as usize);
        if let Some(r) = self.row_index(ui) {
            return Some((r, vi, true));
        }
        if let Some(r) = self.row_index(vi) {
            return Some((r, ui, false));
        }
        Some((self.assign_row(ui)?, vi, true))
    }

    /// Reads the memoized value at `(row, col)` in direction `fwd`, if it
    /// is valid in the current generation.
    fn read(&self, row: usize, col: usize, fwd: bool) -> Option<(u32, f64)> {
        let slot = self.rows.get(row)?.get(col)?;
        if fwd && slot.stamp_fwd == self.generation {
            Some((slot.dist_fwd, slot.ret_fwd))
        } else if !fwd && slot.stamp_rev == self.generation {
            Some((slot.dist_rev, slot.ret_rev))
        } else {
            None
        }
    }

    /// Stores `value` at `(row, col)` in direction `fwd`, growing the row
    /// if the slot budget allows. Returns false (and stores nothing) on
    /// overflow.
    fn write(&mut self, row: usize, col: usize, fwd: bool, value: (u32, f64)) -> bool {
        let generation = self.generation;
        let Some(r) = self.rows.get_mut(row) else {
            return false;
        };
        if r.len() <= col {
            let growth = col + 1 - r.len();
            if let Some(cap) = self.budget {
                if self.allocated.saturating_add(growth) > cap {
                    return false;
                }
            }
            r.resize(col + 1, Slot::default());
            self.allocated += growth;
        }
        let Some(slot) = r.get_mut(col) else {
            return false;
        };
        if fwd {
            slot.stamp_fwd = generation;
            slot.dist_fwd = value.0;
            slot.ret_fwd = value.1;
        } else {
            slot.stamp_rev = generation;
            slot.dist_rev = value.0;
            slot.ret_rev = value.1;
        }
        true
    }

    fn entry(&mut self, u: NodeId, v: NodeId, probe: impl FnOnce() -> (u32, f64)) -> (u32, f64) {
        match self.locate(u, v) {
            Some((row, col, fwd)) => {
                if let Some(hit) = self.read(row, col, fwd) {
                    self.hits += 1;
                    return hit;
                }
                let value = probe();
                self.misses += 1;
                if self.write(row, col, fwd, value) {
                    self.live += 1;
                } else {
                    self.overflow += 1;
                }
                value
            }
            None => {
                self.misses += 1;
                self.overflow += 1;
                probe()
            }
        }
    }

    fn clear(&mut self) {
        self.live = 0;
        if self.generation == u32::MAX {
            // Generation wrap (needs 2^32 - 1 clears): hard-reset every
            // stamp so stale entries cannot alias the restarted counter.
            for row in &mut self.rows {
                for slot in row.iter_mut() {
                    slot.stamp_fwd = 0;
                    slot.stamp_rev = 0;
                }
            }
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }
}

/// Memo store for [`CachedOracle`], separable from the wrapper so a query
/// session can own the cache and reuse it across several search runs over
/// the same snapshot (the oracle answers are immutable once the engine is
/// built, so entries never go stale within a session).
///
/// Interior mutability keeps the oracle interface `&self`; the store is
/// intentionally `!Sync` — each session is single-threaded, snapshots are
/// what cross threads. See the module docs for the flat slab layout.
#[derive(Debug, Default)]
pub struct OracleCache {
    state: RefCell<CacheState>,
}

impl OracleCache {
    /// An empty cache.
    pub fn new() -> Self {
        OracleCache::default()
    }

    /// Number of currently-valid cached directional probes (diagnostics).
    pub fn len(&self) -> usize {
        self.state.borrow().live
    }

    /// True if nothing is cached in the current generation.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Invalidates all cached probes in O(1) (generation bump). Row and
    /// slot allocations are kept for reuse, which is what makes a
    /// session-owned cache cheap to recycle between queries.
    pub fn clear(&self) {
        self.state.borrow_mut().clear();
    }

    /// Pre-assigns cache rows to the given nodes — callers pass the
    /// query's keyword-match nodes so that every bound-computation probe
    /// `(matcher, root)` lands in a matcher-owned row and the slab stays
    /// at (matchers × touched roots) slots. Does *not* invalidate
    /// existing entries: a session replaying related queries keeps its
    /// memo. Nodes that already own rows are left untouched.
    pub fn begin_query(&self, nodes: impl IntoIterator<Item = NodeId>) {
        let mut s = self.state.borrow_mut();
        for n in nodes {
            let ni = n.0 as usize;
            if s.row_index(ni).is_none() {
                let _ = s.assign_row(ni);
            }
        }
    }

    /// Caps the number of allocated slots (`None` = unbounded). Probes
    /// beyond the cap fall through to the inner oracle and are counted in
    /// [`CacheStats::overflow`]; already-allocated slots are kept even if
    /// they exceed a newly-lowered cap.
    pub fn set_entry_budget(&self, cap: Option<usize>) {
        self.state.borrow_mut().budget = cap;
    }

    /// Cumulative probe counters (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        let s = self.state.borrow();
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            overflow: s.overflow,
            entries: s.allocated,
        }
    }

    fn get_or_insert_with(
        &self,
        u: NodeId,
        v: NodeId,
        probe: impl FnOnce() -> (u32, f64),
    ) -> (u32, f64) {
        self.state.borrow_mut().entry(u, v, probe)
    }
}

/// Memoizing wrapper around a [`DistanceOracle`].
///
/// The branch-and-bound search probes the same (matcher, root) pairs over
/// and over — every candidate sharing a root repeats the lookups, and star
/// index case 3 (two non-star endpoints) costs `O(deg × deg)` per probe.
/// Caching turns that into one probe per distinct pair, and the flat slab
/// behind [`OracleCache`] serves repeats without hashing.
///
/// The wrapper is generic over the inner oracle so the memo layer adds no
/// virtual dispatch of its own; the inner [`DistanceOracle::probe`]
/// (both bounds from one lookup) inlines into the cache-miss path.
pub struct CachedOracle<'a, O: DistanceOracle + ?Sized> {
    inner: &'a O,
    store: &'a OracleCache,
}

impl<'a, O: DistanceOracle + ?Sized> CachedOracle<'a, O> {
    /// Wraps an oracle with an [`OracleCache`] the caller owns, letting
    /// several runs within one query session share their memoized probes.
    pub fn with_store(inner: &'a O, store: &'a OracleCache) -> Self {
        CachedOracle { inner, store }
    }

    fn entry(&self, u: NodeId, v: NodeId) -> (u32, f64) {
        self.store
            .get_or_insert_with(u, v, || self.inner.probe(u, v))
    }
}

impl<'a, O: DistanceOracle + ?Sized> DistanceOracle for CachedOracle<'a, O> {
    fn dist_lb(&self, u: NodeId, v: NodeId) -> u32 {
        self.entry(u, v).0
    }

    fn retention_ub(&self, u: NodeId, v: NodeId) -> f64 {
        self.entry(u, v).1
    }

    fn probe(&self, u: NodeId, v: NodeId) -> (u32, f64) {
        self.entry(u, v)
    }

    fn probe_counters(&self) -> Option<(u64, u64)> {
        let stats = self.store.stats();
        let hits = u64::try_from(stats.hits).unwrap_or(u64::MAX);
        let misses = u64::try_from(stats.misses).unwrap_or(u64::MAX);
        Some((hits, misses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting(RefCell<usize>);
    impl DistanceOracle for Counting {
        fn dist_lb(&self, _u: NodeId, _v: NodeId) -> u32 {
            *self.0.borrow_mut() += 1;
            3
        }
        fn retention_ub(&self, _u: NodeId, _v: NodeId) -> f64 {
            0.5
        }
    }

    #[test]
    fn caches_after_first_probe() {
        let inner = Counting(RefCell::new(0));
        let store = OracleCache::new();
        let cached = CachedOracle::with_store(&inner, &store);
        assert!(store.is_empty());
        for _ in 0..10 {
            assert_eq!(cached.dist_lb(NodeId(1), NodeId(2)), 3);
            assert_eq!(cached.retention_ub(NodeId(1), NodeId(2)), 0.5);
        }
        assert_eq!(*inner.0.borrow(), 1, "inner probed exactly once");
        assert_eq!(store.len(), 1);
        // A different ordered pair probes again (bounds are directional).
        cached.dist_lb(NodeId(2), NodeId(1));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn shared_store_survives_the_wrapper() {
        let inner = Counting(RefCell::new(0));
        let store = OracleCache::new();
        {
            let cached = CachedOracle::with_store(&inner, &store);
            cached.dist_lb(NodeId(1), NodeId(2));
        }
        assert_eq!(store.len(), 1);
        // A second wrapper over the same store hits the memo, not the inner.
        let cached = CachedOracle::with_store(&inner, &store);
        assert_eq!(cached.dist_lb(NodeId(1), NodeId(2)), 3);
        assert_eq!(*inner.0.borrow(), 1, "second run reused the shared entry");
        store.clear();
        assert!(store.is_empty());
        cached.dist_lb(NodeId(1), NodeId(2));
        assert_eq!(*inner.0.borrow(), 2, "cleared store probes again");
    }

    #[test]
    fn works_behind_a_trait_object() {
        // `?Sized` keeps dynamic inner oracles possible where static types
        // are unavailable (the hot path itself never does this).
        let inner = Counting(RefCell::new(0));
        let dyn_inner: &dyn DistanceOracle = &inner;
        let store = OracleCache::new();
        let cached = CachedOracle::with_store(dyn_inner, &store);
        cached.dist_lb(NodeId(0), NodeId(1));
        cached.dist_lb(NodeId(0), NodeId(1));
        assert_eq!(*inner.0.borrow(), 1);
    }

    #[test]
    fn both_directions_share_one_slot() {
        let inner = Counting(RefCell::new(0));
        let store = OracleCache::new();
        let cached = CachedOracle::with_store(&inner, &store);
        cached.dist_lb(NodeId(7), NodeId(3));
        // The reverse probe is a miss (directional bounds) but must reuse
        // node 7's row rather than allocating a row for node 3.
        cached.dist_lb(NodeId(3), NodeId(7));
        assert_eq!(*inner.0.borrow(), 2);
        assert_eq!(store.len(), 2);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        // One row of 4 slots (columns 0..=3): the reverse probe reuses
        // the forward probe's slot, just the other direction half.
        assert_eq!(stats.entries, 4);
        cached.dist_lb(NodeId(7), NodeId(3));
        cached.dist_lb(NodeId(3), NodeId(7));
        assert_eq!(*inner.0.borrow(), 2, "both directions now memoized");
        assert_eq!(store.stats().hits, 2);
    }

    #[test]
    fn begin_query_preassigns_rows_without_invalidating() {
        let inner = Counting(RefCell::new(0));
        let store = OracleCache::new();
        store.begin_query([NodeId(2), NodeId(5)]);
        let cached = CachedOracle::with_store(&inner, &store);
        // Probe with the matcher on the right: lands in node 5's row
        // (reverse direction) instead of allocating a row for node 9.
        cached.dist_lb(NodeId(9), NodeId(5));
        assert_eq!(store.stats().entries, 10, "one row grew to column 9");
        cached.dist_lb(NodeId(2), NodeId(5));
        // Re-announcing the same matchers keeps every memoized probe.
        store.begin_query([NodeId(2), NodeId(5)]);
        cached.dist_lb(NodeId(9), NodeId(5));
        cached.dist_lb(NodeId(2), NodeId(5));
        assert_eq!(*inner.0.borrow(), 2, "begin_query kept the memo");
    }

    #[test]
    fn entry_budget_overflows_gracefully() {
        let inner = Counting(RefCell::new(0));
        let store = OracleCache::new();
        store.set_entry_budget(Some(4));
        let cached = CachedOracle::with_store(&inner, &store);
        // Row for node 0, columns 0..=3: exactly the 4-slot budget.
        assert_eq!(cached.dist_lb(NodeId(0), NodeId(3)), 3);
        // Column 8 would need 9 slots: over budget, served uncached.
        assert_eq!(cached.dist_lb(NodeId(0), NodeId(8)), 3);
        assert_eq!(cached.dist_lb(NodeId(0), NodeId(8)), 3);
        let stats = store.stats();
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.overflow, 2, "uncacheable probes counted");
        assert_eq!(*inner.0.borrow(), 3, "overflow probes hit the inner");
        // The budgeted slots still memoize.
        assert_eq!(cached.dist_lb(NodeId(0), NodeId(3)), 3);
        assert_eq!(*inner.0.borrow(), 3);
    }

    #[test]
    fn clear_is_generational_and_reuses_allocations() {
        let inner = Counting(RefCell::new(0));
        let store = OracleCache::new();
        let cached = CachedOracle::with_store(&inner, &store);
        cached.dist_lb(NodeId(1), NodeId(6));
        let allocated = store.stats().entries;
        assert!(allocated > 0);
        store.clear();
        assert!(store.is_empty(), "generation bump invalidates everything");
        assert_eq!(
            store.stats().entries,
            allocated,
            "allocations survive clear()"
        );
        cached.dist_lb(NodeId(1), NodeId(6));
        assert_eq!(*inner.0.borrow(), 2, "cleared entries re-probe");
        assert_eq!(
            store.stats().entries,
            allocated,
            "re-filling reuses the same slots"
        );
    }

    #[test]
    fn stats_delta_subtracts_counters_but_keeps_entries() {
        let before = CacheStats {
            hits: 10,
            misses: 4,
            overflow: 1,
            entries: 100,
        };
        let after = CacheStats {
            hits: 25,
            misses: 9,
            overflow: 1,
            entries: 160,
        };
        let d = after.delta_since(&before);
        assert_eq!(
            d,
            CacheStats {
                hits: 15,
                misses: 5,
                overflow: 0,
                entries: 160,
            }
        );
    }
}

#[cfg(test)]
mod transparency_props {
    //! The cache-transparency contract: wrapping any oracle in
    //! [`CachedOracle`] (cold or warm store, budgeted or not) changes *no*
    //! observable output of the search — same top-k trees, bitwise-equal
    //! scores, identical `SearchStats` counters. Memoization is allowed to
    //! change how fast answers arrive, never which answers.

    use proptest::prelude::*;

    use ci_graph::{GraphBuilder, NodeId};
    use ci_index::NaiveIndex;
    use ci_rwmp::{Dampening, Scorer};

    use crate::bnb::bnb_search;
    use crate::cache::{CachedOracle, OracleCache};
    use crate::query::QuerySpec;
    use crate::SearchOptions;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn cached_search_is_observably_identical(
            weights in proptest::collection::vec(1u32..8, 8),
            imp in proptest::collection::vec(1u32..100, 6),
            matcher_sel in proptest::collection::vec(0u8..8, 6),
            budget_raw in 0usize..64,
        ) {
            // 0 plays the role of "no budget" (the shim has no option strategy).
            let budget = (budget_raw != 0).then_some(budget_raw);
            let mut b = GraphBuilder::new();
            let n: Vec<NodeId> = (0..6).map(|_| b.add_node(0, vec![])).collect();
            let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (2, 5)];
            for (i, &(x, y)) in edges.iter().enumerate() {
                let w = f64::from(weights[i % weights.len()]);
                b.add_pair(n[x], n[y], w, w * 0.5);
            }
            let g = b.build();
            let p: Vec<f64> = imp.iter().map(|&x| f64::from(x) / 100.0).collect();
            let p_min = p.iter().copied().fold(f64::INFINITY, f64::min);
            let scorer = Scorer::new(&g, &p, p_min, Dampening::paper_default());
            let matches: Vec<(NodeId, u32, u32)> = matcher_sel
                .iter()
                .enumerate()
                .filter_map(|(i, &sel)| {
                    let mask = u32::from(sel) & 0b111;
                    (mask != 0).then_some((NodeId(i as u32), mask, 2))
                })
                .collect();
            if matches.is_empty() {
                return Ok(());
            }
            let query = QuerySpec::from_matches(
                &scorer,
                vec!["a".into(), "b".into(), "c".into()],
                matches,
            );
            let damp: Vec<f64> = g.nodes().map(|v| scorer.dampening(v)).collect();
            let oracle = NaiveIndex::build(&g, &damp, 4);
            let opts = SearchOptions::default();

            let (plain_answers, plain_stats) = bnb_search(&scorer, &query, &oracle, &opts);

            let store = OracleCache::new();
            store.set_entry_budget(budget);
            for run in ["cold", "warm"] {
                let cached = CachedOracle::with_store(&oracle, &store);
                let (answers, stats) = bnb_search(&scorer, &query, &cached, &opts);
                prop_assert_eq!(stats, plain_stats, "stats diverged ({} cache)", run);
                prop_assert_eq!(
                    answers.len(),
                    plain_answers.len(),
                    "answer count diverged ({} cache)",
                    run
                );
                for (a, b) in answers.iter().zip(&plain_answers) {
                    prop_assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "score diverged ({} cache)",
                        run
                    );
                    prop_assert_eq!(a.tree.nodes(), b.tree.nodes(), "tree diverged ({} cache)", run);
                    prop_assert_eq!(a.tree.canonical_key(), b.tree.canonical_key());
                }
            }
        }
    }
}
