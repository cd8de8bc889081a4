//! Reusable branch-and-bound working memory.
//!
//! Every structure the search loop touches per candidate lives here and is
//! recycled across runs: the candidate arena, the priority queue, the
//! flat dedup set, the per-root partner chains, the registration worklist,
//! and a freelist ("pool") of candidate slots. [`crate::bnb_search_in`] takes a `&mut SearchScratch`;
//! the engine's query session owns one per session, so repeated queries
//! reach a steady state where candidate construction (grow/merge/seed)
//! performs **no heap allocation at all** — slots come from the pool and
//! their `Vec` buffers retain capacity. [`SearchScratch::slots_allocated`]
//! counts slot constructions so tests can assert that steady state.
//!
//! The per-root partner index is an intrusive linked list over arena
//! indices (`root_head[node] → next_same_root[idx] → …`), dense by node
//! id with a run-generation stamp instead of per-run clearing — the same
//! design as the flat oracle cache, and for the same reason: no hashing
//! and no `HashMap` churn in the inner loop. Chains are built newest-first
//! and reversed into a buffer on read, preserving the admission-order
//! iteration the previous `HashMap<NodeId, Vec<usize>>` provided (the
//! merge order is observable through `SearchStats::merges` and the
//! replay fingerprints, so it must not change).
//!
//! The admission dedup set ([`DedupSet`]) follows the same pattern: a flat
//! open-addressing table of run-stamped entry indices over one shared key
//! buffer, with every hash hit verified by an exact key comparison.

use std::collections::BinaryHeap;

use ci_graph::NodeId;
use ci_rwmp::FlowState;

use crate::bnb::{HeapItem, Pending};
use crate::candidate::Candidate;
use crate::trace::SearchTrace;

/// Sentinel for "no arena index" in the root chains.
pub(crate) const NO_IDX: u32 = u32::MAX;

/// A pooled candidate plus its incrementally maintained flow state.
#[derive(Debug)]
pub(crate) struct CandSlot {
    pub(crate) cand: Candidate,
    pub(crate) flows: FlowState,
    /// Complete estimate `ce(C)` stored at admission, so tracing can
    /// report the bound decomposition at pop time without re-probing the
    /// oracle (an extra probe would perturb the cache counters).
    pub(crate) ce: f64,
    /// Damped potential estimate `pe(C)` stored at admission
    /// (`-inf` when the potential path was not applicable).
    pub(crate) pe: f64,
    /// 64-bit bloom signature of the candidate's non-root nodes (bit
    /// `node % 64`): disjoint signatures prove disjoint node sets, so most
    /// merge attempts skip the exact overlap scan.
    pub(crate) sig: u64,
}

/// The signature bit of one node (see [`CandSlot::sig`]).
#[inline]
pub(crate) fn node_bit(node: NodeId) -> u64 {
    1 << (node.0 % 64)
}

impl Default for CandSlot {
    fn default() -> CandSlot {
        CandSlot::new()
    }
}

impl CandSlot {
    fn new() -> CandSlot {
        CandSlot {
            cand: Candidate::empty(),
            flows: FlowState::default(),
            ce: f64::NAN,
            pe: f64::NAN,
            sig: 0,
        }
    }

    /// True if the graph node appears in the candidate; the signature
    /// answers most misses without scanning.
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        node == self.cand.root() || (self.sig & node_bit(node) != 0 && self.cand.contains(node))
    }

    /// Buffer-reusing copy of another slot's contents.
    pub(crate) fn assign_from(&mut self, src: &CandSlot) {
        self.cand.assign_from(&src.cand);
        self.flows.assign_from(&src.flows);
        self.ce = src.ce;
        self.pe = src.pe;
        self.sig = src.sig;
    }
}

/// Reusable working memory for [`crate::bnb_search_in`]. One per query
/// session (sessions are single-threaded); `Default`/`new` give an empty
/// scratch that warms up over the first queries.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Freelist of candidate slots (buffers keep their capacity).
    pool: Vec<CandSlot>,
    /// Total slots ever constructed — stable once the pool covers the
    /// working set (the steady-state no-allocation property).
    allocated: usize,
    /// Live candidates of the current run, append-only within a run.
    pub(crate) arena: Vec<CandSlot>,
    /// Max-heap over `(ub, arena idx)`.
    pub(crate) queue: BinaryHeap<HeapItem>,
    /// Dedup set over candidate identities (`Candidate::identity_into`).
    pub(crate) dedup: DedupSet,
    /// Identity buffer for the dedup probe.
    pub(crate) key_buf: Vec<u64>,
    /// Has-child bitset scratch for the leaf-feasibility check.
    pub(crate) has_child: Vec<u64>,
    /// Newest arena index rooted at a node, dense by node id.
    root_head: Vec<u32>,
    /// Run stamp per `root_head` entry (stale stamp ⇒ empty chain).
    root_gen: Vec<u64>,
    /// Current run stamp (bumped by [`SearchScratch::begin`]).
    run_gen: u64,
    /// Per-arena-index link to the next-older candidate with the same root.
    next_same_root: Vec<u32>,
    /// Registration cascade worklist: unbuilt seeds, grows and merges.
    pub(crate) worklist: Vec<Pending>,
    /// Partner-index read buffer (admission order).
    pub(crate) partners: Vec<u32>,
    /// Root-neighbor read buffer for the expansion loop.
    pub(crate) neighbors: Vec<NodeId>,
    /// Copy of the currently popped candidate (the arena may grow — and
    /// reallocate — underneath while its expansions register).
    pub(crate) pop_slot: CandSlot,
    /// Bounded per-run trace event buffer, re-armed by the search prologue
    /// from [`crate::SearchOptions::trace`]. Stays unallocated for scratches
    /// that only ever run at [`crate::TraceLevel::Off`].
    pub(crate) trace: SearchTrace,
}

impl SearchScratch {
    /// An empty scratch; equivalent to [`SearchScratch::default`].
    pub fn new() -> SearchScratch {
        SearchScratch::default()
    }

    /// Number of candidate slots constructed over the scratch's lifetime.
    /// Once warm, repeated identical searches leave this constant — the
    /// allocation-free steady state the pool exists for.
    pub fn slots_allocated(&self) -> usize {
        self.allocated
    }

    /// The trace recorded by the most recent run through this scratch —
    /// empty unless that run's [`crate::SearchOptions::trace`] enabled
    /// tracing.
    pub fn trace(&self) -> &SearchTrace {
        &self.trace
    }

    /// Prepares for a new run: recycles all live slots into the pool and
    /// empties every per-run structure, keeping allocations.
    pub(crate) fn begin(&mut self) {
        self.run_gen = self.run_gen.wrapping_add(1);
        if self.run_gen == 0 {
            // u64 wrap is unreachable in practice; stay correct anyway.
            self.root_gen.fill(0);
            self.run_gen = 1;
        }
        self.pool.append(&mut self.arena);
        self.worklist.clear();
        self.queue.clear();
        self.dedup.clear();
        self.next_same_root.clear();
        self.partners.clear();
        self.neighbors.clear();
    }

    /// Takes a slot from the pool, constructing one only when empty.
    pub(crate) fn acquire(&mut self) -> CandSlot {
        self.pool.pop().unwrap_or_else(|| {
            self.allocated += 1;
            CandSlot::new()
        })
    }

    /// Returns a slot to the pool.
    pub(crate) fn release(&mut self, slot: CandSlot) {
        self.pool.push(slot);
    }

    /// Head of the root chain for `node` in the current run.
    fn root_chain_head(&self, node: NodeId) -> Option<u32> {
        let id = usize::try_from(node.0).ok()?;
        if self.root_gen.get(id).copied() != Some(self.run_gen) {
            return None;
        }
        self.root_head.get(id).copied().filter(|&h| h != NO_IDX)
    }

    /// Links freshly admitted arena index `idx` (the current `arena.len() -
    /// 1`) into its root's chain. Must be called exactly once per arena
    /// push, in order.
    pub(crate) fn push_root_chain(&mut self, node: NodeId, idx: usize) {
        debug_assert_eq!(self.next_same_root.len(), idx, "one link per arena push");
        let idx32 = u32::try_from(idx).unwrap_or(NO_IDX);
        debug_assert!(idx32 != NO_IDX, "arena index fits in u32");
        let Ok(id) = usize::try_from(node.0) else {
            self.next_same_root.push(NO_IDX);
            return;
        };
        if self.root_head.len() <= id {
            self.root_head.resize(id + 1, NO_IDX);
            self.root_gen.resize(id + 1, 0);
        }
        let prev = if self.root_gen.get(id).copied() == Some(self.run_gen) {
            self.root_head.get(id).copied().unwrap_or(NO_IDX)
        } else {
            NO_IDX
        };
        self.next_same_root.push(prev);
        if let Some(h) = self.root_head.get_mut(id) {
            *h = idx32;
        }
        if let Some(g) = self.root_gen.get_mut(id) {
            *g = self.run_gen;
        }
    }

    /// Fills [`SearchScratch::partners`] with every arena index rooted at
    /// `node`, oldest (lowest index) first — admission order, matching the
    /// `Vec` the per-root `HashMap` used to hold.
    pub(crate) fn collect_partners(&mut self, node: NodeId) {
        self.partners.clear();
        let mut cur = self.root_chain_head(node);
        while let Some(i) = cur {
            self.partners.push(i);
            cur = self
                .next_same_root
                .get(i as usize)
                .copied()
                .filter(|&nxt| nxt != NO_IDX);
        }
        self.partners.reverse();
    }
}

/// Flat open-addressing set of word-slice keys — the per-run admission
/// dedup set. Keys live back to back in one buffer; the table holds
/// `stamp << 32 | entry` words, where a slot whose stamp is not the current
/// run's is empty, so [`DedupSet::clear`] is a stamp bump and every buffer
/// keeps its capacity across runs. A hash hit is confirmed by comparing the
/// key words exactly, so collisions can never merge distinct keys.
#[derive(Debug, Default)]
pub(crate) struct DedupSet {
    /// Stored keys, back to back.
    words: Vec<u64>,
    /// `(hash, start, len)` of each stored key, in insertion order.
    entries: Vec<(u64, usize, usize)>,
    /// Open-addressing slots (length zero or a power of two, load ≤ ½).
    table: Vec<u64>,
    /// Current run stamp; never zero once a run has begun.
    stamp: u32,
    /// Test hook: hash every key to one value so every probe walks the
    /// exact-comparison path.
    #[cfg(test)]
    pub(crate) constant_hash: bool,
}

impl DedupSet {
    /// Empties the set, keeping every allocation.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.entries.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped (after 2^32 runs): stale stamps could read as live.
            self.table.fill(0);
            self.stamp = 1;
        }
    }

    fn hash(&self, key: &[u64]) -> u64 {
        #[cfg(test)]
        if self.constant_hash {
            return 0x5eed;
        }
        // Multiply-rotate over the words, then a murmur3 finalizer so the
        // low bits the table indexes by depend on every word.
        let mut h = key.len() as u64;
        for &w in key {
            h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    /// First table index probed for `hash` (`table.len()` is a power of
    /// two, so masking keeps the low bits).
    fn home(&self, hash: u64) -> usize {
        let mask = self.table.len().saturating_sub(1);
        usize::try_from(hash & mask as u64).unwrap_or(0)
    }

    /// Inserts `key`; returns false if an equal key is already present.
    pub(crate) fn insert(&mut self, key: &[u64]) -> bool {
        if self.stamp == 0 {
            self.clear();
        }
        if (self.entries.len() + 1) * 2 > self.table.len() {
            self.grow();
        }
        let hash = self.hash(key);
        let live = u64::from(self.stamp) << 32;
        let mask = self.table.len() - 1;
        let mut i = self.home(hash);
        loop {
            let Some(&slot) = self.table.get(i) else {
                return true;
            };
            if slot & !0xffff_ffff != live {
                // Empty: store the key and claim the slot.
                let entry = self.entries.len() as u64;
                self.entries.push((hash, self.words.len(), key.len()));
                self.words.extend_from_slice(key);
                if let Some(s) = self.table.get_mut(i) {
                    *s = live | entry;
                }
                return true;
            }
            let e = usize::try_from(slot & 0xffff_ffff).unwrap_or(usize::MAX);
            if let Some(&(h, start, len)) = self.entries.get(e) {
                if h == hash && self.words.get(start..start + len) == Some(key) {
                    return false;
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table and re-inserts this run's entries.
    fn grow(&mut self) {
        let len = (self.table.len() * 2).max(64);
        self.table.clear();
        self.table.resize(len, 0);
        let live = u64::from(self.stamp) << 32;
        let mask = len - 1;
        for (e, &(hash, _, _)) in self.entries.iter().enumerate() {
            let mut i = usize::try_from(hash & mask as u64).unwrap_or(0);
            while self.table.get(i).is_some_and(|&s| s & !0xffff_ffff == live) {
                i = (i + 1) & mask;
            }
            if let Some(s) = self.table.get_mut(i) {
                *s = live | e as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{MatcherInfo, QuerySpec};
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn dedup_set_survives_growth_and_runs() {
        for constant_hash in [false, true] {
            let mut d = DedupSet {
                constant_hash,
                ..DedupSet::default()
            };
            for _run in 0..3 {
                d.clear();
                for k in 0..200u64 {
                    assert!(d.insert(&[k, k * 7]), "fresh key {k}");
                }
                for k in 0..200u64 {
                    assert!(!d.insert(&[k, k * 7]), "duplicate key {k}");
                    assert!(d.insert(&[k, k * 7, 1]), "longer key {k}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Random candidates built by grows and merges (merges in both
        /// operand orders, so equal trees arrive with different position
        /// orders): the flat dedup set accepts exactly the candidates a
        /// `HashSet` over `(root, Jtt::canonical_key())` accepts — also
        /// with every key hashed alike, where only the exact key
        /// comparison tells them apart.
        #[test]
        fn flat_dedup_agrees_with_canonical_keys(
            ops in proptest::collection::vec((0u8..3, 0usize..64, 0usize..64, 0u32..7), 1..60),
        ) {
            let q = QuerySpec::new(
                vec!["a".into(), "b".into()],
                (0..7u32)
                    .map(|v| MatcherInfo {
                        node: NodeId(v),
                        mask: if v % 2 == 0 { 0b01 } else { 0b10 },
                        match_count: 1,
                        word_count: 1,
                        gen: 1.0,
                    })
                    .collect(),
            );
            let mut pool: Vec<Candidate> = (0..7u32)
                .map(|v| Candidate::seed(NodeId(v), q.mask_of(NodeId(v))))
                .collect();
            let mut hashed = DedupSet::default();
            let mut colliding = DedupSet { constant_hash: true, ..DedupSet::default() };
            hashed.clear();
            colliding.clear();
            let mut reference = HashSet::new();
            let mut key = Vec::new();
            for &(op, a, b, v) in &ops {
                let x = &pool[a % pool.len()];
                let y = &pool[b % pool.len()];
                let built = match op {
                    0 if !x.contains(NodeId(v)) && x.size() < 6 => Some(x.grow(NodeId(v), &q)),
                    1 if x.root() == y.root() => x.merge(y),
                    2 if x.root() == y.root() => y.merge(x),
                    _ => None,
                };
                let Some(c) = built else { continue };
                c.identity_into(&mut key);
                let want = reference.insert((c.root(), c.to_jtt().canonical_key()));
                prop_assert_eq!(hashed.insert(&key), want);
                prop_assert_eq!(colliding.insert(&key), want);
                pool.push(c);
            }
        }
    }

    #[test]
    fn pool_reuses_slots_across_runs() {
        let mut s = SearchScratch::new();
        s.begin();
        let a = s.acquire();
        let b = s.acquire();
        assert_eq!(s.slots_allocated(), 2);
        s.arena.push(a);
        s.release(b);
        s.begin(); // recycles the arena
        let _a = s.acquire();
        let _b = s.acquire();
        assert_eq!(s.slots_allocated(), 2, "no new slots in steady state");
        let _c = s.acquire();
        assert_eq!(s.slots_allocated(), 3);
    }

    #[test]
    fn root_chains_iterate_in_admission_order_and_reset_per_run() {
        let mut s = SearchScratch::new();
        s.begin();
        s.push_root_chain(NodeId(7), 0);
        s.push_root_chain(NodeId(3), 1);
        s.push_root_chain(NodeId(7), 2);
        s.push_root_chain(NodeId(7), 3);
        s.collect_partners(NodeId(7));
        assert_eq!(s.partners, vec![0, 2, 3], "oldest first");
        s.collect_partners(NodeId(3));
        assert_eq!(s.partners, vec![1]);
        s.collect_partners(NodeId(99));
        assert!(s.partners.is_empty());
        // A new run sees empty chains without any clearing pass.
        s.begin();
        s.collect_partners(NodeId(7));
        assert!(s.partners.is_empty());
        s.push_root_chain(NodeId(7), 0);
        s.collect_partners(NodeId(7));
        assert_eq!(s.partners, vec![0]);
    }
}
