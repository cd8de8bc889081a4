//! Reusable branch-and-bound working memory.
//!
//! Every structure the search loop touches per candidate lives here and is
//! recycled across runs: the candidate store, the priority queue, the flat
//! dedup set, the same-root partner index, the root table, the
//! registration worklist, and two working slots. [`crate::bnb_search_in`] takes a `&mut
//! SearchScratch`; the engine's query session owns one per session, so
//! repeated queries reach a steady state where candidate construction
//! (grow/merge/seed) performs **no heap allocation at all**.
//!
//! **The candidate store.** Within a run the set of admitted candidates
//! only grows, and an admitted candidate never changes. So [`CandStore`]
//! keeps each one as a fixed-size [`Record`] — offsets into run-wide
//! `nodes`/`parent`/flow-source/flow-value buffers, plus its shape, mask
//! and stored bounds — and a dense [`MergeKey`] per arena index holding
//! everything a merge attempt reads first. A candidate is built into the
//! reusable build slot, checked there, and copied into the store only if
//! admitted; the candidate being expanded is copied back out into the pop
//! slot. Merges read their operands through [`CandidateRef`] views of the
//! store. Only a candidate's flow rows are stored, not the per-position
//! edge table its [`FlowState`] fills them from: the pop slot reloads
//! that at its first grow. The buffers keep their capacity across runs, so a session's
//! memory is the largest query's live set.
//! [`SearchScratch::slots_allocated`] and [`SearchScratch::capacity_bytes`]
//! let tests assert that steady state.
//!
//! **Merge keys.** A merge attempt needs only `(sig, msig)`: the 64-bit
//! node signature `sig` (bit `node % 64` per non-root node) proves most
//! pairs disjoint, and the matcher signature `msig` (bit `i` per non-root
//! node that is the `i`-th matcher of
//! [`crate::QuerySpec::matchers_sorted`], `i < 64`) proves most of the
//! rest overlapping. Only pairs neither settles reach the exact scan
//! ([`Candidate::disjoint_from`]). Answers may hold more matchers than
//! keywords, so keyword masks play no part in a merge.
//!
//! **The partner index.** [`PartnerIndex`] holds, per root, one intrusive
//! newest-first chain of arena indices per candidate depth, plus the
//! root's candidate count — the per-node, per-distance bucket layout of a
//! reachability index. A merge of `a` and `b` fits `D` and
//! `max_tree_nodes` exactly when `depth_a + depth_b ≤ D` and
//! `size_a + size_b − 1 ≤ max_tree_nodes` (both operands were admitted, so
//! each fits on its own). A lookup therefore reads only the buckets of
//! depth ≤ `D − depth_a`, drops partners over the size limit, and merges
//! the bucket chains into ascending arena index — admission order, which
//! the LIFO registration worklist, and through it every admission and
//! replay fingerprint, depends on. The root count gives
//! `SearchStats::merges` in O(1), whether or not a partner is visited.
//! Roots are stamped with the run generation instead of being cleared per
//! run ([`NodeBlocks`], shared with the root table), like the flat oracle
//! cache: no hashing and no `HashMap` churn in the inner loop.
//!
//! **The root table.** [`RootTable`] memoizes the two admission terms
//! that depend only on `(root, keyword)` — the distance floor and the
//! missing-keyword bound term — for the run.
//!
//! The admission dedup set ([`DedupSet`]) follows the same pattern: a flat
//! open-addressing table of run-stamped entry indices over one shared key
//! buffer, with every hash hit verified by an exact key comparison. It
//! holds seed and merge identities only: a grow is never a duplicate (see
//! `SearchRun::admit`), so grows neither probe nor fill it.

use std::collections::BinaryHeap;
use std::mem::size_of;

use ci_graph::NodeId;
use ci_rwmp::FlowState;

use crate::bnb::{HeapItem, Pending};
use crate::candidate::{Candidate, CandidateRef};
use crate::query::QuerySpec;
use crate::roots::{NodeBlocks, RootTable};
use crate::trace::{SearchTrace, TraceEvent};

/// Sentinel for "no arena index" in the partner chains.
const NO_IDX: u32 = u32::MAX;

/// A working candidate — the build slot or the pop slot — with its
/// incrementally maintained flow state.
#[derive(Debug)]
pub(crate) struct CandSlot {
    pub(crate) cand: Candidate,
    pub(crate) flows: FlowState,
    /// Complete estimate `ce(C)` stored at admission, so tracing can
    /// report the bound decomposition at pop time without re-probing the
    /// oracle (an extra probe would perturb the cache counters).
    pub(crate) ce: f64,
    /// Damped potential estimate `pe(C)` stored at admission.
    pub(crate) pe: f64,
    /// Node signature (see [`MergeKey::sig`]).
    pub(crate) sig: u64,
    /// Matcher signature (see [`MergeKey::msig`]).
    pub(crate) msig: u64,
}

/// The signature bit of one node (see [`MergeKey::sig`]).
#[inline]
pub(crate) fn node_bit(node: NodeId) -> u64 {
    1 << (node.0 % 64)
}

impl Default for CandSlot {
    fn default() -> CandSlot {
        CandSlot {
            cand: Candidate::empty(),
            flows: FlowState::default(),
            ce: f64::NAN,
            pe: f64::NAN,
            sig: 0,
            msig: 0,
        }
    }
}

impl CandSlot {
    /// True if the graph node appears in the candidate; the signature
    /// answers most misses without scanning.
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        node == self.cand.root() || (self.sig & node_bit(node) != 0 && self.cand.contains(node))
    }

    /// Sets the signatures of a candidate grown from `pop` by a new root:
    /// `pop`'s root becomes a non-root node.
    pub(crate) fn grow_sigs(&mut self, pop: &CandSlot, query: &QuerySpec) {
        let old_root = pop.cand.root();
        self.sig = pop.sig | node_bit(old_root);
        self.msig = pop.msig | query.matcher_bit(old_root);
    }

    /// Sets the signatures of the merge of two candidates: their non-root
    /// node sets are united.
    pub(crate) fn merge_sigs(&mut self, a: MergeKey, b: MergeKey) {
        self.sig = a.sig | b.sig;
        self.msig = a.msig | b.msig;
    }

    fn capacity_bytes(&self) -> usize {
        self.cand.nodes.capacity() * size_of::<NodeId>()
            + self.cand.parent.capacity() * size_of::<u32>()
            + self.flows.capacity_bytes()
    }
}

/// What a merge attempt reads before it touches a candidate: one dense
/// entry per arena index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MergeKey {
    /// 64-bit bloom signature of the non-root nodes (bit `node % 64`):
    /// disjoint signatures prove disjoint node sets.
    pub(crate) sig: u64,
    /// Exact signature of the non-root matcher nodes: bit `i` for the
    /// `i`-th matcher of [`crate::QuerySpec::matchers_sorted`], `i < 64`.
    /// A shared bit proves a shared node; matchers past the 64th have no
    /// bit, so pairs sharing only those fall through to the scan.
    pub(crate) msig: u64,
}

/// How a merge attempt's overlap test was settled.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Overlap {
    /// Disjoint node signatures: disjoint, no scan.
    SigDisjoint,
    /// A shared matcher-signature bit: overlapping, no scan.
    SharedMatcher,
    /// The exact scan found a shared node.
    ScanShared,
    /// The exact scan found none.
    ScanDisjoint,
}

impl Overlap {
    /// True when the two candidates' non-root node sets are disjoint.
    pub(crate) fn disjoint(self) -> bool {
        matches!(self, Overlap::SigDisjoint | Overlap::ScanDisjoint)
    }
}

/// One admitted candidate in the [`CandStore`]: where its arrays live in
/// the run-wide buffers, and its fixed-size fields.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Start of its positions in `nodes` and `parent`.
    at: usize,
    /// Start of its source positions in `flow_sources`.
    src_at: usize,
    /// Start of its row-major flow matrix in `flow_values`.
    val_at: usize,
    /// Number of nodes (the flow matrix's row width).
    size: u32,
    /// Number of flow sources.
    sources: u32,
    mask: u32,
    depth: u32,
    diameter: u32,
    ce: f64,
    pe: f64,
}

/// The admitted candidates of one run, flat: append-only within a run,
/// emptied (keeping capacity) by [`SearchScratch::begin`].
#[derive(Debug, Default)]
pub(crate) struct CandStore {
    records: Vec<Record>,
    /// Merge keys, parallel to `records`.
    keys: Vec<MergeKey>,
    nodes: Vec<NodeId>,
    parent: Vec<u32>,
    flow_sources: Vec<u32>,
    flow_values: Vec<f64>,
}

impl CandStore {
    fn clear(&mut self) {
        self.records.clear();
        self.keys.clear();
        self.nodes.clear();
        self.parent.clear();
        self.flow_sources.clear();
        self.flow_values.clear();
    }

    /// Number of stored candidates (the next arena index).
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Stores a copy of `slot` and returns its arena index.
    pub(crate) fn push(&mut self, slot: &CandSlot) -> usize {
        let idx = self.records.len();
        let cand = &slot.cand;
        let (sources, values) = slot.flows.parts();
        self.records.push(Record {
            at: self.nodes.len(),
            src_at: self.flow_sources.len(),
            val_at: self.flow_values.len(),
            size: u32::try_from(cand.size()).unwrap_or(u32::MAX),
            sources: u32::try_from(sources.len()).unwrap_or(u32::MAX),
            mask: cand.mask,
            depth: cand.depth,
            diameter: cand.diameter,
            ce: slot.ce,
            pe: slot.pe,
        });
        self.keys.push(MergeKey {
            sig: slot.sig,
            msig: slot.msig,
        });
        self.nodes.extend_from_slice(&cand.nodes);
        self.parent.extend_from_slice(&cand.parent);
        self.flow_sources.extend_from_slice(sources);
        self.flow_values.extend_from_slice(values);
        idx
    }

    /// The merge key of arena index `idx`.
    pub(crate) fn key(&self, idx: usize) -> Option<MergeKey> {
        self.keys.get(idx).copied()
    }

    /// Arena index `idx` as a borrowed candidate.
    pub(crate) fn view(&self, idx: usize) -> Option<CandidateRef<'_>> {
        let r = self.records.get(idx)?;
        let span = r.at..r.at + r.size as usize;
        Some(CandidateRef {
            nodes: self.nodes.get(span.clone())?,
            parent: self.parent.get(span)?,
            mask: r.mask,
            depth: r.depth,
            diameter: r.diameter,
        })
    }

    /// Copies arena index `idx` into a working slot; false if absent.
    pub(crate) fn load(&self, idx: usize, out: &mut CandSlot) -> bool {
        let (Some(r), Some(key), Some(view)) =
            (self.records.get(idx), self.keys.get(idx), self.view(idx))
        else {
            return false;
        };
        let n = r.size as usize;
        let sources = self
            .flow_sources
            .get(r.src_at..r.src_at + r.sources as usize);
        let values = self
            .flow_values
            .get(r.val_at..r.val_at + r.sources as usize * n);
        let (Some(sources), Some(values)) = (sources, values) else {
            return false;
        };
        out.cand.assign(view);
        out.flows.assign_parts(sources, values, n);
        out.ce = r.ce;
        out.pe = r.pe;
        out.sig = key.sig;
        out.msig = key.msig;
        true
    }

    /// Settles whether same-rooted arena candidates `a` and `b` have
    /// disjoint non-root node sets: node signatures, then matcher
    /// signatures, then the exact scan.
    pub(crate) fn overlap(&self, a: usize, b: usize) -> Overlap {
        if let (Some(ka), Some(kb)) = (self.keys.get(a), self.keys.get(b)) {
            if ka.sig & kb.sig == 0 {
                return Overlap::SigDisjoint;
            }
            if ka.msig & kb.msig != 0 {
                return Overlap::SharedMatcher;
            }
        }
        match (self.view(a), self.view(b)) {
            (Some(va), Some(vb)) if Candidate::disjoint_from(va, vb) => Overlap::ScanDisjoint,
            _ => Overlap::ScanShared,
        }
    }

    fn capacity_bytes(&self) -> usize {
        self.records.capacity() * size_of::<Record>()
            + self.keys.capacity() * size_of::<MergeKey>()
            + self.nodes.capacity() * size_of::<NodeId>()
            + self.parent.capacity() * size_of::<u32>()
            + self.flow_sources.capacity() * size_of::<u32>()
            + self.flow_values.capacity() * size_of::<f64>()
    }
}

/// Reusable working memory for [`crate::bnb_search_in`]. One per query
/// session (sessions are single-threaded); `Default`/`new` give an empty
/// scratch that warms up over the first queries.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Admitted candidates of the current run, by arena index.
    pub(crate) store: CandStore,
    /// Most candidates any finished run stored.
    high_water: usize,
    /// Max-heap over `(ub, arena idx)`.
    pub(crate) queue: BinaryHeap<HeapItem>,
    /// Dedup set over seed and merge identities
    /// (`Candidate::identity_into`).
    pub(crate) dedup: DedupSet,
    /// Identity buffer for the dedup probe.
    pub(crate) key_buf: Vec<u64>,
    /// Has-child bitset scratch for the leaf-feasibility check.
    pub(crate) has_child: Vec<u64>,
    /// Same-root merge partners of the current run, by depth.
    pub(crate) partner_index: PartnerIndex,
    /// `(root, keyword)` distance floors and missing-keyword terms of the
    /// current run.
    pub(crate) roots: RootTable,
    /// Registration cascade worklist: unbuilt seeds, grows and merges.
    pub(crate) worklist: Vec<Pending>,
    /// Partner-index read buffer (admission order).
    pub(crate) partners: Vec<u32>,
    /// Root-neighbor read buffer for the expansion loop.
    pub(crate) neighbors: Vec<NodeId>,
    /// Copy of the currently popped candidate, which its grows extend.
    pub(crate) pop_slot: CandSlot,
    /// Where each worklist entry is built and checked before admission.
    pub(crate) build_slot: CandSlot,
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

    /// The most candidates one run through this scratch has stored — the
    /// candidate records its store has had to hold. Once warm, repeated
    /// identical searches leave this constant: the store's buffers already
    /// fit, so no run allocates.
    pub fn slots_allocated(&self) -> usize {
        self.high_water.max(self.store.len())
    }

    /// Heap bytes the scratch's buffers hold (their capacity, not their
    /// length). Buffers never shrink, so this is the high-water memory of
    /// the runs so far; repeating a workload leaves it constant.
    pub fn capacity_bytes(&self) -> usize {
        self.store.capacity_bytes()
            + self.queue.capacity() * size_of::<HeapItem>()
            + self.dedup.capacity_bytes()
            + self.key_buf.capacity() * size_of::<u64>()
            + self.has_child.capacity() * size_of::<u64>()
            + self.partner_index.capacity_bytes()
            + self.roots.capacity_bytes()
            + self.worklist.capacity() * size_of::<Pending>()
            + self.partners.capacity() * size_of::<u32>()
            + self.neighbors.capacity() * size_of::<NodeId>()
            + self.pop_slot.capacity_bytes()
            + self.build_slot.capacity_bytes()
            + self.trace.buffer_capacity() * size_of::<TraceEvent>()
    }

    /// The trace recorded by the most recent run through this scratch —
    /// empty unless that run's [`crate::SearchOptions::trace`] enabled
    /// tracing.
    pub fn trace(&self) -> &SearchTrace {
        &self.trace
    }

    /// Prepares for a new run over a query with `keywords` keywords whose
    /// candidates have depth at most `max_depth`: empties the store and
    /// every per-run structure, keeping allocations.
    pub(crate) fn begin(&mut self, keywords: usize, max_depth: u32) {
        self.high_water = self.slots_allocated();
        self.store.clear();
        self.partner_index.begin(max_depth);
        self.roots.begin(keywords);
        self.worklist.clear();
        self.queue.clear();
        self.dedup.clear();
        self.partners.clear();
        self.neighbors.clear();
    }

    /// Fills [`SearchScratch::partners`] with the arena indices rooted at
    /// `root` whose depth is at most `max_depth` and whose size is at most
    /// `max_size`, oldest (lowest index) first — admission order.
    pub(crate) fn collect_partners(&mut self, root: NodeId, max_depth: u32, max_size: usize) {
        self.partner_index
            .collect(root, max_depth, max_size, &mut self.partners);
    }
}

/// One arena index's entry in its root's depth chain.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Next-older arena index with the same root and depth, or [`NO_IDX`].
    next: u32,
    /// Candidate size in nodes.
    size: u32,
}

/// The same-root partner index (see the module docs): per root touched in
/// the run, a block `[count, head_0, …, head_max_depth]` in `blocks`, found
/// through a run-stamped per-node offset; per arena index, a [`Link`].
#[derive(Debug, Default)]
pub(crate) struct PartnerIndex {
    /// Depth buckets per root in the current run.
    buckets: usize,
    /// Offset in `blocks` of each root with a candidate this run.
    roots: NodeBlocks,
    /// Per-root blocks of the current run, back to back.
    blocks: Vec<u32>,
    /// Per arena index, its chain link.
    links: Vec<Link>,
    /// One chain cursor per visited bucket during [`PartnerIndex::collect`].
    cursors: Vec<u32>,
}

impl PartnerIndex {
    /// Empties the index for a run whose candidates have depth at most
    /// `max_depth`.
    fn begin(&mut self, max_depth: u32) {
        self.roots.begin();
        self.buckets = max_depth as usize + 1;
        self.blocks.clear();
        self.links.clear();
    }

    /// Indexes freshly admitted arena index `idx` (the current
    /// `store.len() - 1`) under its root. Must be called exactly once per
    /// store push, in order.
    pub(crate) fn push(&mut self, root: NodeId, idx: usize, depth: u32, size: usize) {
        debug_assert_eq!(self.links.len(), idx, "one link per store push");
        debug_assert!((depth as usize) < self.buckets, "depth within D");
        let base = match self.roots.get(root) {
            Some(base) => base,
            None => {
                let base = self.blocks.len();
                self.blocks.push(0);
                self.blocks.resize(base + 1 + self.buckets, NO_IDX);
                self.roots.set(root, base);
                base
            }
        };
        if let Some(count) = self.blocks.get_mut(base) {
            *count += 1;
        }
        let bucket = (depth as usize).min(self.buckets - 1);
        let head = self.blocks.get_mut(base + 1 + bucket);
        let next = head.as_deref().copied().unwrap_or(NO_IDX);
        if let Some(h) = head {
            *h = u32::try_from(idx).unwrap_or(NO_IDX);
        }
        let size = u32::try_from(size).unwrap_or(u32::MAX);
        self.links.push(Link { next, size });
    }

    /// Candidates admitted under `root` this run.
    pub(crate) fn count(&self, root: NodeId) -> usize {
        self.roots
            .get(root)
            .and_then(|base| self.blocks.get(base))
            .map_or(0, |&c| c as usize)
    }

    /// Writes into `out` the arena indices rooted at `root` with depth at
    /// most `max_depth` and size at most `max_size`, in ascending order.
    fn collect(&mut self, root: NodeId, max_depth: u32, max_size: usize, out: &mut Vec<u32>) {
        out.clear();
        let Some(base) = self.roots.get(root) else {
            return;
        };
        let last = (max_depth as usize).min(self.buckets - 1);
        self.cursors.clear();
        self.cursors
            .extend_from_slice(self.blocks.get(base + 1..=base + 1 + last).unwrap_or(&[]));
        // Each chain runs newest first: repeatedly take the newest head
        // of all chains (`NO_IDX + 1` wraps to 0, so an ended chain never
        // wins), then reverse.
        loop {
            let mut best = 0;
            let mut key = 0;
            for (b, &c) in self.cursors.iter().enumerate() {
                if c.wrapping_add(1) > key {
                    key = c.wrapping_add(1);
                    best = b;
                }
            }
            if key == 0 {
                break;
            }
            let idx = key - 1;
            let Some(&link) = self.links.get(idx as usize) else {
                break;
            };
            if link.size as usize <= max_size {
                out.push(idx);
            }
            if let Some(c) = self.cursors.get_mut(best) {
                *c = link.next;
            }
        }
        out.reverse();
    }

    fn capacity_bytes(&self) -> usize {
        self.roots.capacity_bytes()
            + (self.blocks.capacity() + self.cursors.capacity()) * size_of::<u32>()
            + self.links.capacity() * size_of::<Link>()
    }
}

/// Flat open-addressing set of word-slice keys — the per-run admission
/// dedup set of seed and merge identities (grows are never duplicates,
/// so they skip it). Keys live back to back in one buffer; the table holds
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

    fn capacity_bytes(&self) -> usize {
        self.words.capacity() * size_of::<u64>()
            + self.entries.capacity() * size_of::<(u64, usize, usize)>()
            + self.table.capacity() * size_of::<u64>()
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

    /// A small weighted graph and a query over it, for candidates with
    /// real flow matrices.
    fn path_fixture() -> (ci_graph::Graph, Vec<f64>) {
        let mut b = ci_graph::GraphBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node(0, vec![])).collect();
        for w in n.windows(2) {
            b.add_pair(w[0], w[1], 1.0, 0.5);
        }
        (b.build(), vec![0.3, 0.1, 0.2, 0.15, 0.25])
    }

    #[test]
    fn store_round_trips_and_reuses_buffers_across_runs() {
        let (g, p) = path_fixture();
        let scorer = ci_rwmp::Scorer::new(&g, &p, 0.1, ci_rwmp::Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(0), 0b01, 1), (NodeId(4), 0b10, 1)],
        );
        let fill = |cand: &Candidate, out: &mut FlowState| {
            scorer.fill_flows(cand.tree(), q.flow_sources(&cand.nodes), out);
        };
        // A grow chain from node 0, each step stored as admission would.
        let run = |s: &mut SearchScratch| {
            s.begin(2, 4);
            let mut pop = CandSlot::default();
            pop.cand.set_seed(NodeId(0), 0b01);
            fill(&pop.cand, &mut pop.flows);
            s.store.push(&pop);
            for v in 1..5u32 {
                let mut grown = CandSlot::default();
                pop.cand.grow_into(NodeId(v), &q, &mut grown.cand);
                grown.grow_sigs(&pop, &q);
                let root_gen = q.matcher(NodeId(v)).map(|m| m.gen);
                let prev = pop.cand.tree();
                scorer.grow_flows(prev, &mut pop.flows, NodeId(v), root_gen, &mut grown.flows);
                grown.ce = f64::from(v);
                s.store.push(&grown);
                pop = grown;
            }
        };
        let mut s = SearchScratch::new();
        run(&mut s);
        assert_eq!(s.slots_allocated(), 5);
        let mut out = CandSlot::default();
        assert!(s.store.load(4, &mut out));
        assert_eq!(
            out.cand.nodes,
            (0..5u32).rev().map(NodeId).collect::<Vec<_>>()
        );
        assert_eq!(out.ce, 4.0);
        assert_eq!(out.sig, 0b1111);
        assert_eq!(out.msig, 1 << q.ordinal(NodeId(0)).unwrap());
        let mut fresh = FlowState::default();
        fill(&out.cand, &mut fresh);
        assert_eq!(out.flows.parts(), fresh.parts(), "flows survive the store");
        assert!(!s.store.load(5, &mut out), "no record past the end");
        // A second identical run reuses every buffer.
        let bytes = s.capacity_bytes();
        run(&mut s);
        assert_eq!(s.capacity_bytes(), bytes);
        assert_eq!(s.slots_allocated(), 5);
        // A smaller run keeps the high-water mark.
        s.begin(2, 4);
        assert_eq!(s.store.len(), 0);
        assert_eq!(s.slots_allocated(), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Random candidates built by grows and merges over up to 96
        /// matchers (so some have no matcher-signature bit, and node
        /// signatures collide): every candidate's `msig` is the brute-force
        /// bit set of its non-root matcher ordinals, and for every
        /// same-rooted pair the store's merge-key decision agrees with the
        /// exact `Candidate::disjoint_from`.
        #[test]
        fn merge_keys_settle_overlap_exactly(
            sel in proptest::collection::vec(0u8..5, 96),
            ops in proptest::collection::vec((0u8..3, 0usize..512, 0usize..512, 0u32..96), 1..90),
        ) {
            let matchers: Vec<MatcherInfo> = (0..96u32)
                .filter(|&v| sel[v as usize] != 0)
                .map(|v| MatcherInfo {
                    node: NodeId(v),
                    mask: 1,
                    match_count: 1,
                    word_count: 1,
                    gen: f64::from(sel[v as usize]) + f64::from(v % 7),
                })
                .collect();
            if matchers.is_empty() {
                return Ok(());
            }
            let q = QuerySpec::new(vec!["a".into()], matchers);
            let ordinal = |v: NodeId| q.matchers_sorted().iter().position(|&m| m == v);
            let mut slots: Vec<CandSlot> = q
                .matchers_sorted()
                .iter()
                .take(12)
                .map(|&v| {
                    let mut slot = CandSlot::default();
                    slot.cand.set_seed(v, 1);
                    slot
                })
                .collect();
            let mut store = CandStore::default();
            for slot in &slots {
                store.push(slot);
            }
            for &(op, a, b, v) in &ops {
                let x = &slots[a % slots.len()];
                let mut out = CandSlot::default();
                match op {
                    // Grow to any node, or to one of four hub roots so
                    // that many candidates share a root.
                    0 | 1 => {
                        let v = NodeId(if op == 0 { v } else { v % 4 });
                        if x.cand.contains(v) || x.cand.size() >= 7 {
                            continue;
                        }
                        x.cand.grow_into(v, &q, &mut out.cand);
                        out.grow_sigs(x, &q);
                    }
                    _ => {
                        let i = a % slots.len();
                        let Some(j) = (0..slots.len())
                            .map(|k| (b + k) % slots.len())
                            .find(|&j| j != i && slots[j].cand.root() == x.cand.root())
                        else {
                            continue;
                        };
                        let (va, vb) = (x.cand.view(), slots[j].cand.view());
                        if !Candidate::disjoint_from(va, vb) || x.cand.size() + slots[j].cand.size() > 9 {
                            continue;
                        }
                        out.cand.merge_into(va, vb);
                        out.merge_sigs(store.key(i).unwrap(), store.key(j).unwrap());
                    }
                }
                store.push(&out);
                slots.push(out);
            }
            for (i, x) in slots.iter().enumerate() {
                let want = x.cand.nodes[1..]
                    .iter()
                    .filter_map(|&v| ordinal(v).filter(|&o| o < 64))
                    .fold(0u64, |m, o| m | 1 << o);
                prop_assert_eq!(store.key(i).unwrap().msig, want);
                for (j, y) in slots.iter().enumerate().skip(i + 1) {
                    if x.cand.root() != y.cand.root() {
                        continue;
                    }
                    let decided = store.overlap(i, j);
                    prop_assert_eq!(
                        decided.disjoint(),
                        Candidate::disjoint_from(x.cand.view(), y.cand.view()),
                        "{:?} vs {:?}: {:?}", x.cand.nodes, y.cand.nodes, decided
                    );
                }
            }
        }
    }

    #[test]
    fn root_chains_iterate_in_admission_order_and_reset_per_run() {
        let mut s = SearchScratch::new();
        s.begin(2, 4);
        s.partner_index.push(NodeId(7), 0, 0, 1);
        s.partner_index.push(NodeId(3), 1, 0, 1);
        s.partner_index.push(NodeId(7), 2, 1, 2);
        s.partner_index.push(NodeId(7), 3, 0, 1);
        s.collect_partners(NodeId(7), u32::MAX, usize::MAX);
        assert_eq!(s.partners, vec![0, 2, 3], "oldest first, across depths");
        assert_eq!(s.partner_index.count(NodeId(7)), 3);
        s.collect_partners(NodeId(7), 0, usize::MAX);
        assert_eq!(s.partners, vec![0, 3], "depth limit");
        s.collect_partners(NodeId(7), 4, 1);
        assert_eq!(s.partners, vec![0, 3], "size limit");
        s.collect_partners(NodeId(3), u32::MAX, usize::MAX);
        assert_eq!(s.partners, vec![1]);
        s.collect_partners(NodeId(99), u32::MAX, usize::MAX);
        assert!(s.partners.is_empty());
        assert_eq!(s.partner_index.count(NodeId(99)), 0);
        // A new run sees empty chains without any clearing pass.
        s.begin(2, 2);
        s.collect_partners(NodeId(7), u32::MAX, usize::MAX);
        assert!(s.partners.is_empty());
        assert_eq!(s.partner_index.count(NodeId(7)), 0);
        s.partner_index.push(NodeId(7), 0, 2, 3);
        s.collect_partners(NodeId(7), u32::MAX, usize::MAX);
        assert_eq!(s.partners, vec![0]);
        s.collect_partners(NodeId(7), 1, usize::MAX);
        assert!(s.partners.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Random admission sequences `(root, depth, size)` over two runs
        /// through one scratch (so the run stamps must empty the index):
        /// after every admission, for every root and a spread of limits,
        /// the index returns exactly the brute-force walk's partners
        /// within the limits, in ascending arena index, and its count is
        /// the walk's length.
        #[test]
        fn partner_index_agrees_with_the_walk(
            runs in proptest::collection::vec(
                (0u32..5, proptest::collection::vec((0u32..6, 0u32..5, 1usize..9), 0..80)),
                2,
            ),
        ) {
            let mut s = SearchScratch::new();
            for (d, admissions) in &runs {
                s.begin(2, *d);
                let mut walk: Vec<(u32, u32, usize)> = Vec::new();
                for (idx, &(root, depth, size)) in admissions.iter().enumerate() {
                    let depth = depth % (d + 1);
                    s.partner_index.push(NodeId(root), idx, depth, size);
                    walk.push((root, depth, size));
                    for r in 0..6u32 {
                        let same_root = || walk.iter().enumerate().filter(|(_, w)| w.0 == r);
                        prop_assert_eq!(s.partner_index.count(NodeId(r)), same_root().count());
                        for (max_depth, max_size) in [
                            (u32::MAX, usize::MAX),
                            (d - depth, 9 - size),
                            (depth, size),
                            (0, 1),
                        ] {
                            let want: Vec<u32> = same_root()
                                .filter(|(_, w)| w.1 <= max_depth && w.2 <= max_size)
                                .map(|(i, _)| i as u32)
                                .collect();
                            s.collect_partners(NodeId(r), max_depth, max_size);
                            prop_assert_eq!(&s.partners, &want, "root {} limits {:?}", r, (max_depth, max_size));
                        }
                    }
                }
            }
        }
    }
}
