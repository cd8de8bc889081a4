use ci_graph::NodeId;
use ci_index::DistanceOracle;
use ci_rwmp::Scorer;

use crate::answer::{Answer, TopK};
use crate::bounds::{bound_parts_from, distance_prune};
use crate::budget::{DeadlinePoll, TruncationReason};
use crate::candidate::Shape;
use crate::query::QuerySpec;
use crate::scratch::{Overlap, SearchScratch};
use crate::trace::{PruneReason, TraceEvent};
use crate::validity::candidate_leaves_matchable;
use crate::SearchOptions;

/// Counters describing one search run (either algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidates popped from the priority queue (grow steps).
    pub pops: usize,
    /// Candidates registered (enqueued) in total.
    pub registered: usize,
    /// Candidates rejected by the upper-bound test at registration.
    pub bound_pruned: usize,
    /// Candidates rejected by the distance-feasibility test.
    pub distance_pruned: usize,
    /// Merge attempts: for each admitted candidate, the candidates
    /// admitted before it under the same root. Counted from the partner
    /// index in O(1), whether or not the partner was visited (see
    /// [`RejectionStats::merge_shape`]).
    pub merges: usize,
    /// Candidates held in the arena when the run ended. The arena is
    /// append-only within a run, so this is its peak and always equals
    /// `registered`: the one count that both
    /// [`crate::QueryBudget::max_candidates`] and the registration cap
    /// (10× [`crate::QueryBudget::max_expansions`]) bound.
    pub candidates_peak: usize,
    /// Why the run stopped early, if it did. `None` means the search space
    /// was exhausted and the top-k guarantee (Theorem 1) holds; any
    /// truncated run still returns only valid, exactly-scored answers.
    pub truncation: Option<TruncationReason>,
    /// Oracle-cache counters for the run, when a memoizing session ran it
    /// (`None` for a bare [`bnb_search`] over an unwrapped oracle). Purely
    /// observational: identical searches produce identical counters, and
    /// no cache configuration changes any other field or any answer.
    pub cache: Option<crate::cache::CacheStats>,
    /// Rejection and merge-outcome counters for the run. Observational
    /// like [`SearchStats::cache`], and kept out of the replay
    /// fingerprints, which hash only the fields above it.
    pub rejections: RejectionStats,
}

/// What happened to the candidates and merge attempts a run did not keep:
/// the rejection classes [`SearchStats`] does not already count
/// (`bound_pruned` and `distance_pruned` are there), and the outcome of
/// every merge attempt that produced no candidate.
///
/// Every merge attempt lands in exactly one class: over the caps
/// (`merge_shape`, never visited), proved disjoint by the 64-bit node
/// signatures (`merge_sig_disjoint`, no scan), proved overlapping by the
/// matcher signatures (`merge_matcher_overlap`, no scan), rejected by the
/// exact scan (`merge_overlap`), or passed by the scan — the last is
/// `merges` minus the four merge fields. The counters are the same at every
/// [`crate::TraceLevel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionStats {
    /// Pops whose every grow exceeds the diameter or tree-size cap: they
    /// are counted in `pops`, but their neighbour walk is skipped and no
    /// grow of them is enumerated.
    pub dead_pops: usize,
    /// Merge attempts whose result would exceed the diameter or tree-size
    /// cap: same-root partners the depth-bucketed index skips, counted in
    /// O(1) as the root's count − 1 − the partners visited.
    pub merge_shape: usize,
    /// Candidates whose frozen leaves admit no keyword assignment.
    pub infeasible_leaves: usize,
    /// Candidates whose `(root, tree)` identity was already admitted:
    /// seeds and merges only, as a grow never repeats a candidate.
    pub duplicate: usize,
    /// Merge attempts whose node signatures were disjoint: accepted
    /// without the exact overlap scan.
    pub merge_sig_disjoint: usize,
    /// Merge attempts whose matcher signatures shared a bit — both
    /// operands hold the same non-root matcher: rejected without the scan.
    pub merge_matcher_overlap: usize,
    /// Merge attempts the exact overlap scan rejected.
    pub merge_overlap: usize,
}

impl SearchStats {
    /// Number of entries in [`SearchStats::counters`].
    pub const COUNTERS: usize = 19;

    /// True if the run stopped before exhausting its search space — the
    /// top-k guarantee does not hold for a truncated run.
    pub fn truncated(&self) -> bool {
        self.truncation.is_some()
    }

    /// The run's work counters as `(name, value)` pairs, in report order:
    /// the one list every aggregate of per-run counters iterates (the
    /// serving registry and its JSON, `bench_query`'s per-class table).
    /// The truncation reason reads as one `truncated_*` entry per axis
    /// (1 for the run's reason, 0 otherwise), and an absent
    /// [`SearchStats::cache`] as zero cache counters. `candidates_peak`
    /// is a level, not a counter, and `CacheStats::entries` likewise, so
    /// neither is listed.
    pub fn counters(&self) -> [(&'static str, usize); SearchStats::COUNTERS] {
        use TruncationReason::{CandidateMemory, Deadline, EnumerationCaps, Expansions};
        let r = &self.rejections;
        let cache = self.cache.unwrap_or_default();
        let truncated = |reason| usize::from(self.truncation == Some(reason));
        [
            ("pops", self.pops),
            ("registered", self.registered),
            ("bound_pruned", self.bound_pruned),
            ("distance_pruned", self.distance_pruned),
            ("merges", self.merges),
            ("dead_pops", r.dead_pops),
            ("merge_shape", r.merge_shape),
            ("rejected_infeasible_leaves", r.infeasible_leaves),
            ("rejected_duplicate", r.duplicate),
            ("merge_sig_disjoint", r.merge_sig_disjoint),
            ("merge_matcher_overlap", r.merge_matcher_overlap),
            ("merge_overlap", r.merge_overlap),
            ("truncated_expansions", truncated(Expansions)),
            ("truncated_deadline", truncated(Deadline)),
            ("truncated_candidates", truncated(CandidateMemory)),
            ("truncated_enumeration", truncated(EnumerationCaps)),
            ("cache_hits", cache.hits),
            ("cache_misses", cache.misses),
            ("cache_overflow", cache.overflow),
        ]
    }

    /// The names of [`SearchStats::counters`], in the same order.
    pub fn counter_names() -> [&'static str; SearchStats::COUNTERS] {
        SearchStats::default().counters().map(|(name, _)| name)
    }
}

/// A queue entry: candidate `idx` with upper bound `ub`, packed into one
/// integer key that orders as the queue pops. Max-heap on the upper
/// bound; among equal bounds the *smallest* arena index wins, i.e. pops
/// follow registration order. Arena indices grow monotonically within a
/// run, so successive equal-`ub` pops always carry increasing indices —
/// asserted in the pop loop. The high half holds the bits of `ub` mapped
/// so that unsigned order is [`f64::total_cmp`]'s, the low half the
/// index reversed, so one integer compare is the whole order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct HeapItem(u128);

impl HeapItem {
    const SIGN: u64 = 1 << 63;

    pub(crate) fn new(ub: f64, idx: usize) -> Self {
        let bits = ub.to_bits();
        // A negative flips every bit, a non-negative only its sign.
        let ord = if bits & Self::SIGN == 0 {
            bits | Self::SIGN
        } else {
            !bits
        };
        let rev = u64::MAX - u64::try_from(idx).unwrap_or(u64::MAX);
        HeapItem((u128::from(ord) << 64) | u128::from(rev))
    }

    /// The upper bound, bit for bit as given to [`HeapItem::new`].
    pub(crate) fn ub(self) -> f64 {
        let ord = u64::try_from(self.0 >> 64).unwrap_or(0);
        f64::from_bits(if ord & Self::SIGN == 0 {
            !ord
        } else {
            ord ^ Self::SIGN
        })
    }

    /// The arena index given to [`HeapItem::new`].
    pub(crate) fn idx(self) -> usize {
        let rev = u64::try_from(self.0 & u128::from(u64::MAX)).unwrap_or(0);
        usize::try_from(u64::MAX - rev).unwrap_or(usize::MAX)
    }
}

/// One registration-worklist entry: a candidate still to be built. Every
/// entry fits `D` and `max_tree_nodes` by construction — a seed is one
/// node, a grow comes only from a pop that is not dead, and a merge only
/// from a partner the depth-bucketed index visited — so nothing is
/// enumerated that could not be built. The candidate store is append-only
/// within a run, so merge operands stay valid while queued, and a grow
/// always extends the current pop slot, which no registration modifies.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pending {
    /// A matcher seed `(node, mask)`.
    Seed(NodeId, u32),
    /// The popped candidate grown by a new root.
    Grow(NodeId),
    /// Arena candidate `idx` merged with its same-root `partner`; their
    /// non-root node sets were checked disjoint at the merge attempt.
    Merge {
        /// The freshly admitted operand (its positions come first).
        idx: usize,
        /// The older partner.
        partner: usize,
    },
}

struct SearchRun<'a, O: DistanceOracle> {
    scorer: &'a Scorer<'a>,
    query: &'a QuerySpec,
    oracle: &'a O,
    opts: &'a SearchOptions,
    scratch: &'a mut SearchScratch,
    topk: TopK,
    stats: SearchStats,
    /// The run's wall-clock limit, armed by the prologue from the budget.
    deadline: DeadlinePoll,
    /// Last oracle `(hits, misses)` snapshot emitted into the trace, so
    /// cache events record transitions, not every pop.
    last_cache: Option<(u64, u64)>,
    /// `(ub, idx)` of the previous pop, for the pop-order assertion.
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    last_pop: Option<(f64, usize)>,
    /// Shadow of the dedup set with grows in it: every grow's identity,
    /// pruned or not, and every seed's and merge's that passed dedup.
    /// Checks the dedup proof of [`SearchRun::admit`].
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    shadow: crate::scratch::DedupSet,
}

/// Branch-and-bound top-k search (Algorithm 1 of the paper).
///
/// Seeds one candidate per matcher node, repeatedly expands the candidate
/// with the highest upper bound (tree grow), merges same-rooted candidates,
/// and stops once the best remaining bound cannot beat the current top-k.
/// With an unlimited [`crate::QueryBudget`] (`opts.budget`) the result is
/// exactly the optimal top-k (Theorem 1); any budget axis can stop the run
/// early, which is reported through [`SearchStats::truncation`].
///
/// Generic over the oracle: the `dist_lb`/`retention_ub` probes in the
/// inner loop dispatch statically and inline per oracle type. The function
/// does **not** memoize oracle probes itself — wrap the oracle in
/// [`crate::CachedOracle`] when probes are expensive (the engine's query
/// session does this automatically, sharing one cache per session).
///
/// This wrapper allocates a fresh [`SearchScratch`] per call; repeated
/// callers should hold one and use [`bnb_search_in`], which reuses all
/// working memory (the engine's query session does).
pub fn bnb_search<O: DistanceOracle>(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    oracle: &O,
    opts: &SearchOptions,
) -> (Vec<Answer>, SearchStats) {
    let mut scratch = SearchScratch::new();
    bnb_search_in(scorer, query, oracle, opts, &mut scratch)
}

/// [`bnb_search`] over caller-owned working memory. Results and statistics
/// are bit-identical to a fresh-scratch run — the scratch only recycles
/// buffers, never state: every per-run structure is (generationally)
/// cleared by the run prologue.
pub fn bnb_search_in<O: DistanceOracle>(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    oracle: &O,
    opts: &SearchOptions,
    scratch: &mut SearchScratch,
) -> (Vec<Answer>, SearchStats) {
    // An admitted candidate's depth is at most its diameter (≤ D) and
    // its size − 1 (< max_tree_nodes).
    let max_size_depth = u32::try_from(opts.max_tree_nodes.saturating_sub(1)).unwrap_or(u32::MAX);
    scratch.begin(query.keyword_count(), opts.diameter.min(max_size_depth));
    scratch.trace.begin(opts.trace, opts.trace_capacity);
    let mut run = SearchRun {
        scorer,
        query,
        oracle,
        opts,
        scratch,
        topk: TopK::new(opts.k),
        stats: SearchStats::default(),
        deadline: DeadlinePoll::arm(&opts.budget),
        last_cache: None,
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        last_pop: None,
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        shadow: crate::scratch::DedupSet::default(),
    };
    // With no room for even a seed there is nothing to enumerate.
    if !query.answerable() || opts.max_tree_nodes == 0 {
        return (Vec::new(), run.stats);
    }
    // Seed in the spec's deterministic matcher order (`matchers()` follows
    // `matchers_sorted()`): registration order is the heap's tie-break and
    // the top-k's order among equal-scored answers, so it must be
    // reproducible run to run.
    for m in query.matchers() {
        run.register(Pending::Seed(m.node, m.mask));
    }
    while let Some(item) = run.scratch.queue.pop() {
        let (ub, idx) = (item.ub(), item.idx());
        // Documented heap order (see `HeapItem`): equal-bound pops
        // follow candidate (arena) index order. Sound because anything
        // pushed after a pop has a larger index than everything popped
        // before it.
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        {
            if let Some((last_ub, last_idx)) = run.last_pop {
                if ub.total_cmp(&last_ub).is_eq() {
                    assert!(
                        idx > last_idx,
                        "equal-bound pops must follow candidate index order: \
                         idx {idx} after {last_idx} at ub {ub}"
                    );
                }
            }
            run.last_pop = Some((ub, idx));
        }
        if let Some(min) = run.topk.min_score() {
            if ub < min {
                break; // Lines 9–11: nothing left can beat the top-k.
            }
        }
        if run.stats.truncation.is_some() {
            break; // budget exhausted inside a registration cascade
        }
        if let Some(cap) = run.opts.budget.max_expansions {
            if run.stats.pops >= cap {
                run.truncate(TruncationReason::Expansions);
                break;
            }
        }
        if run.deadline_hit() {
            break;
        }
        run.stats.pops += 1;
        // Copy into the pop slot: the store grows (and may reallocate)
        // underneath while this candidate's expansions register.
        let found = {
            let SearchScratch {
                store, pop_slot, ..
            } = &mut *run.scratch;
            store.load(idx, pop_slot)
        };
        if !found {
            debug_assert!(false, "queue references a missing arena slot");
            continue;
        }
        if run.scratch.trace.level().full() {
            let pop = &run.scratch.pop_slot;
            let event = TraceEvent::Pop {
                idx,
                root: pop.cand.root(),
                size: pop.cand.size(),
                mask: pop.cand.mask,
                ub,
                ce: pop.ce,
                pe: pop.pe,
            };
            run.scratch.trace.emit(event);
            run.trace_cache_transition();
        }
        // Pop-order soundness (Theorem 1): a popped candidate that is
        // itself a complete valid answer must be dominated by the bound it
        // was enqueued with — otherwise the best-first stop rule
        // (lines 9–11) could discard a better answer. Always checked in
        // debug builds, and in release under `strict-invariants`.
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        {
            let SearchScratch {
                pop_slot,
                has_child,
                ..
            } = &mut *run.scratch;
            let cur = &pop_slot.cand;
            if cur.mask == run.query.full_mask()
                && candidate_leaves_matchable(cur, run.query, true, has_child)
            {
                if let Some(score) = pop_slot.flows.reduce(None) {
                    assert!(
                        ub >= score - 1e-9,
                        "admissibility violated at pop: ub(C) = {ub} < score(C) = {score}"
                    );
                }
            }
        }
        // A pop whose every grow exceeds a cap registers nothing: skip its
        // neighbour walk.
        if !fits(run.opts, run.scratch.pop_slot.cand.grow_shape()) {
            run.stats.rejections.dead_pops += 1;
            continue;
        }
        let root = run.scratch.pop_slot.cand.root();
        run.scratch.neighbors.clear();
        let graph = run.scorer.graph();
        run.scratch.neighbors.extend(graph.neighbors(root));
        for i in 0..run.scratch.neighbors.len() {
            let Some(&vj) = run.scratch.neighbors.get(i) else {
                break;
            };
            if run.scratch.pop_slot.contains(vj) {
                continue;
            }
            if run.scratch.trace.level().full() {
                run.scratch.trace.emit(TraceEvent::Grow {
                    from_root: root,
                    added: vj,
                });
            }
            run.register(Pending::Grow(vj));
        }
    }
    run.stats.candidates_peak = run.scratch.store.len();
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    assert_eq!(
        run.stats.candidates_peak, run.stats.registered,
        "the append-only arena holds every registered candidate"
    );
    (run.topk.into_sorted(), run.stats)
}

impl<'a, O: DistanceOracle> SearchRun<'a, O> {
    /// Records a budget truncation in the stats and, when tracing, in the
    /// trace buffer.
    fn truncate(&mut self, reason: TruncationReason) {
        self.stats.truncation = Some(reason);
        if self.scratch.trace.level().full() {
            self.scratch.trace.emit(TraceEvent::Truncated { reason });
        }
    }

    /// Emits a [`TraceEvent::Cache`] when the oracle's cumulative probe
    /// counters moved since the last emission. Observational only: reads
    /// counters the memoizing wrapper maintains anyway, never probes.
    fn trace_cache_transition(&mut self) {
        if !self.scratch.trace.level().full() {
            return;
        }
        if let Some((hits, misses)) = self.oracle.probe_counters() {
            if self.last_cache != Some((hits, misses)) {
                self.last_cache = Some((hits, misses));
                self.scratch.trace.emit(TraceEvent::Cache { hits, misses });
            }
        }
    }

    /// Counts a candidate with this root, size and mask as rejected under
    /// `reason` and, at the Full level, records a [`TraceEvent::Prune`]
    /// for it.
    fn reject(
        &mut self,
        reason: PruneReason,
        root: NodeId,
        size: usize,
        mask: u32,
    ) -> Option<usize> {
        let r = &mut self.stats.rejections;
        match reason {
            PruneReason::InfeasibleLeaves => r.infeasible_leaves += 1,
            PruneReason::Duplicate => r.duplicate += 1,
            PruneReason::Distance => self.stats.distance_pruned += 1,
            PruneReason::Bound => self.stats.bound_pruned += 1,
        }
        if self.scratch.trace.level().full() {
            let event = TraceEvent::Prune {
                reason,
                root,
                size,
                mask,
            };
            self.scratch.trace.emit(event);
        }
        None
    }

    /// [`SearchRun::reject`] for the candidate in the build slot.
    fn reject_built(&mut self, reason: PruneReason) -> Option<usize> {
        let cand = &self.scratch.build_slot.cand;
        let (root, size, mask) = (cand.root(), cand.size(), cand.mask);
        self.reject(reason, root, size, mask)
    }

    /// Polls the wall-clock deadline ([`DeadlinePoll`]) and records the
    /// truncation on expiry.
    fn deadline_hit(&mut self) -> bool {
        let hit = self.deadline.poll();
        if hit {
            self.truncate(TruncationReason::Deadline);
        }
        hit
    }

    /// The budget gate every worklist entry passes before it is built:
    /// the truncation reason if a cap is reached. Only buildable work
    /// reaches the gate, so a run is truncated only when it drops real
    /// work (or hits the pop cap or the deadline); and since both capped
    /// quantities only grow, a gate at its cap admits nothing more — an
    /// untruncated budgeted run is the unlimited run. Merge cascades at hub
    /// roots can register far more candidates than the pop cap ever
    /// touches, so the expansion budget also bounds registrations (at 10×
    /// the pop cap). The arena is append-only within a run, so the
    /// registrations are also the stored candidates the candidate-memory
    /// budget bounds: both caps bound one count.
    fn gate(&self) -> Option<TruncationReason> {
        let budget = &self.opts.budget;
        let count = self.stats.registered;
        if budget
            .max_expansions
            .is_some_and(|m| count >= m.saturating_mul(10))
        {
            return Some(TruncationReason::Expansions);
        }
        if budget.max_candidates.is_some_and(|cap| count >= cap) {
            return Some(TruncationReason::CandidateMemory);
        }
        None
    }

    /// Builds, validates, bounds, enqueues, and eagerly merges a new
    /// candidate, then every merge that cascades from it. Each worklist
    /// entry passes the budget gate ([`SearchRun::gate`]) before anything
    /// is built.
    fn register(&mut self, entry: Pending) {
        self.scratch.worklist.push(entry);
        while let Some(entry) = self.scratch.worklist.pop() {
            if let Some(reason) = self.gate() {
                self.truncate(reason);
                self.scratch.worklist.clear();
                return;
            }
            if self.deadline_hit() {
                self.scratch.worklist.clear();
                return;
            }
            if let Some(idx) = self.admit(entry) {
                self.merge_partners(idx);
            }
        }
    }

    /// Attempts to merge freshly admitted `idx` (still in the build slot)
    /// with every candidate admitted before it under the same root, in
    /// admission order, pushing each merge that succeeds. Only partners
    /// within `D − depth` and `max_tree_nodes + 1 − size` are visited; the
    /// rest are counted in O(1) as `merge_shape`. Answers may hold more
    /// matchers than keywords, so a visited pair merges exactly when its
    /// non-root node sets are disjoint.
    fn merge_partners(&mut self, idx: usize) {
        let cand = &self.scratch.build_slot.cand;
        let (root, depth, size) = (cand.root(), cand.depth, cand.size());
        let count = self.scratch.partner_index.count(root);
        self.stats.merges += count.saturating_sub(1);
        let max_depth = self.opts.diameter.saturating_sub(depth);
        let max_size = self
            .opts
            .max_tree_nodes
            .saturating_add(1)
            .saturating_sub(size);
        self.scratch.collect_partners(root, max_depth, max_size);
        let mut visited = 0;
        for t in 0..self.scratch.partners.len() {
            let Some(&p32) = self.scratch.partners.get(t) else {
                break;
            };
            let partner = p32 as usize;
            if partner == idx {
                continue;
            }
            visited += 1;
            let outcome = self.scratch.store.overlap(idx, partner);
            let r = &mut self.stats.rejections;
            match outcome {
                Overlap::SigDisjoint => r.merge_sig_disjoint += 1,
                Overlap::SharedMatcher => r.merge_matcher_overlap += 1,
                Overlap::ScanShared => r.merge_overlap += 1,
                Overlap::ScanDisjoint => {}
            }
            let merged = outcome.disjoint();
            if self.scratch.trace.level().full() {
                self.scratch.trace.emit(TraceEvent::Merge {
                    root,
                    idx,
                    partner,
                    merged,
                });
            }
            if merged {
                self.scratch.worklist.push(Pending::Merge { idx, partner });
            }
        }
        self.stats.rejections.merge_shape += count.saturating_sub(1 + visited);
    }

    /// Checks the grow proofs of [`SearchRun::admit`] on a grow, before
    /// its distance prune (debug and `strict-invariants` builds): built,
    /// it passes the leaf check, and its identity is new to the run.
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    fn check_grow(&mut self, entry: Pending) {
        self.build(entry);
        let SearchScratch {
            build_slot: slot,
            has_child,
            key_buf,
            ..
        } = &mut *self.scratch;
        assert!(
            candidate_leaves_matchable(&slot.cand, self.query, false, has_child),
            "a grow of an admitted candidate failed the leaf check"
        );
        slot.cand.identity_into(key_buf);
        assert!(
            self.shadow.insert(key_buf),
            "a grow repeated an earlier candidate: {:?}",
            slot.cand.nodes
        );
    }

    /// Builds a worklist entry's structure and signatures into the build
    /// slot; its flows wait until [`SearchRun::admit`] has passed the
    /// prunes that never read them. Returns whether it was built (a merge
    /// whose operands are not stored is not).
    fn build(&mut self, entry: Pending) -> bool {
        let SearchScratch {
            store,
            pop_slot,
            build_slot: slot,
            ..
        } = &mut *self.scratch;
        match entry {
            Pending::Seed(node, mask) => {
                slot.cand.set_seed(node, mask);
                slot.sig = 0;
                slot.msig = 0;
            }
            Pending::Grow(v) => {
                pop_slot.cand.grow_into(v, self.query, &mut slot.cand);
                slot.grow_sigs(pop_slot, self.query);
            }
            Pending::Merge { idx, partner } => {
                let (Some(a), Some(b), Some(ka), Some(kb)) = (
                    store.view(idx),
                    store.view(partner),
                    store.key(idx),
                    store.key(partner),
                ) else {
                    debug_assert!(false, "merge operands are stored candidates");
                    return false;
                };
                slot.cand.merge_into(a, b);
                slot.merge_sigs(ka, kb);
            }
        }
        // Only buildable work is enumerated (see `Pending`).
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        assert!(
            slot.cand.diameter <= self.opts.diameter
                && slot.cand.size() <= self.opts.max_tree_nodes,
            "built a candidate over the caps: diameter {} (D = {}), {} nodes (max {})",
            slot.cand.diameter,
            self.opts.diameter,
            slot.cand.size(),
            self.opts.max_tree_nodes
        );
        true
    }

    /// Fills the build slot's Eq. 2 flow matrix. A grow derives its edge
    /// table from the pop slot's (loaded at the pop's first grow, then
    /// kept while the pop's expansions register) plus the new edge;
    /// seeds and merges load theirs.
    fn fill_flows(&mut self, entry: Pending) {
        let SearchScratch {
            pop_slot,
            build_slot: slot,
            ..
        } = &mut *self.scratch;
        if let Pending::Grow(v) = entry {
            let root_gen = self.query.matcher(v).map(|m| m.gen);
            let prev = pop_slot.cand.tree();
            self.scorer
                .grow_flows(prev, &mut pop_slot.flows, v, root_gen, &mut slot.flows);
            #[cfg(any(debug_assertions, feature = "strict-invariants"))]
            assert_grow_exact(self.scorer, self.query, &slot.cand, &slot.flows);
        } else {
            let sources = self.query.flow_sources(&slot.cand.nodes);
            self.scorer
                .fill_flows(slot.cand.tree(), sources, &mut slot.flows);
        }
    }

    /// Runs a worklist entry through admission, each entry kind through
    /// only the prunes it can fail, then the bound: on success copies it
    /// into the store, offers it to the top-k (if a valid complete
    /// answer), and returns its arena index. Flows are filled only once
    /// the bound, the first step that reads them, is reached.
    ///
    /// * A seed or a merge is built, then checked for leaf feasibility,
    ///   duplicates and distance, in that order. Non-root leaves stay
    ///   leaves under root-only extension, so their keyword assignment
    ///   must be feasible in any extension.
    /// * A grow fails neither the leaf check nor the dedup check, so its
    ///   distance prune runs first, before it is built, from the pop's
    ///   depth and mask. Its non-root leaves are the popped candidate's,
    ///   which passed the leaf check when admitted, except when the pop is
    ///   a single node — then its one non-root leaf is the pop's old root,
    ///   a seed matcher, which any keyword set can match alone. And it is
    ///   never a duplicate: its root has one child, whose subtree is the
    ///   pop, and pops are distinct admitted trees whose grows add
    ///   distinct neighbours, so no two grows are equal; a seed has one
    ///   node and a merge of two non-seed operands two root children, so
    ///   neither equals a grow. Grows therefore never enter the dedup set.
    /// * The one merge that can equal a grow — one with a seed operand,
    ///   which rebuilds its other operand's tree — is therefore counted as
    ///   a duplicate from the operand sizes instead of probing for it.
    fn admit(&mut self, entry: Pending) -> Option<usize> {
        let grow = matches!(entry, Pending::Grow(_));
        let (root, size, mask, depth) = if let Pending::Grow(v) = entry {
            #[cfg(any(debug_assertions, feature = "strict-invariants"))]
            self.check_grow(entry);
            let pop = &self.scratch.pop_slot.cand;
            let mask = pop.mask | self.query.mask_of(v);
            (v, pop.size() + 1, mask, pop.depth + 1)
        } else {
            if !self.build(entry) {
                return None;
            }
            let SearchScratch {
                store,
                build_slot: slot,
                has_child,
                dedup,
                key_buf,
                ..
            } = &mut *self.scratch;
            if !candidate_leaves_matchable(&slot.cand, self.query, false, has_child) {
                return self.reject_built(PruneReason::InfeasibleLeaves);
            }
            let seed_operand = match entry {
                Pending::Merge { idx, partner } => [idx, partner]
                    .iter()
                    .any(|&i| store.view(i).is_some_and(|c| c.nodes.len() == 1)),
                _ => false,
            };
            slot.cand.identity_into(key_buf);
            let duplicate = seed_operand || !dedup.insert(key_buf);
            #[cfg(any(debug_assertions, feature = "strict-invariants"))]
            assert_eq!(
                self.shadow.insert(key_buf),
                !duplicate,
                "a duplicate verdict disagrees with the run's full identity set"
            );
            if duplicate {
                return self.reject_built(PruneReason::Duplicate);
            }
            let cand = &slot.cand;
            (cand.root(), cand.size(), cand.mask, cand.depth)
        };
        let roots = &mut self.scratch.roots;
        let d_max = self.opts.diameter;
        if distance_prune(self.query, self.oracle, roots, root, mask, depth, d_max) {
            return self.reject(PruneReason::Distance, root, size, mask);
        }
        if grow {
            self.build(entry);
        }
        self.fill_flows(entry);
        let SearchScratch {
            build_slot: slot,
            has_child,
            roots,
            ..
        } = &mut *self.scratch;
        let parts = bound_parts_from(
            self.scorer,
            self.query,
            self.oracle,
            roots,
            &slot.cand,
            &slot.flows,
        );
        let ub = parts.ub();
        if let Some(min) = self.topk.min_score() {
            if ub < min {
                return self.reject_built(PruneReason::Bound);
            }
        }
        // Stored for pop-time tracing: re-deriving the parts there would
        // re-probe the oracle and perturb the cache counters.
        slot.ce = parts.ce;
        slot.pe = parts.pe;
        // A complete candidate is an answer when its mandatory nodes —
        // leaves and a single-child root — match distinct keywords. Its
        // score comes straight from the slot's flows; its `Jtt` is built
        // only when that score enters the top-k (`TopK::offer` rejects
        // `score <= min` before it looks at the tree).
        if slot.cand.mask == self.query.full_mask()
            && candidate_leaves_matchable(&slot.cand, self.query, true, has_child)
        {
            if let Some(score) = slot.flows.reduce(None) {
                if self.topk.min_score().is_none_or(|min| score > min) {
                    let tree = slot.cand.to_jtt();
                    self.topk.offer(Answer { tree, score });
                }
            }
        }
        let idx = self.scratch.store.push(&self.scratch.build_slot);
        let cand = &self.scratch.build_slot.cand;
        let (root, size, mask, depth) = (cand.root(), cand.size(), cand.mask, cand.depth);
        self.scratch.partner_index.push(root, idx, depth, size);
        self.scratch.queue.push(HeapItem::new(ub, idx));
        self.stats.registered += 1;
        if self.scratch.trace.level().full() {
            self.scratch.trace.emit(TraceEvent::Admit {
                idx,
                root,
                size,
                mask,
                ub,
            });
        }
        Some(idx)
    }
}

/// Checks a grown flow matrix against the from-scratch fill over the same
/// tree, bit for bit (debug and `strict-invariants` builds).
#[cfg(any(debug_assertions, feature = "strict-invariants"))]
fn assert_grow_exact(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    cand: &crate::candidate::Candidate,
    grown: &ci_rwmp::FlowState,
) {
    let mut fresh = ci_rwmp::FlowState::default();
    scorer.fill_flows(cand.tree(), query.flow_sources(&cand.nodes), &mut fresh);
    assert_eq!(
        fresh.sources(),
        grown.sources(),
        "incremental grow must keep the source rows"
    );
    let same = (0..fresh.sources().len()).all(|s| {
        let (a, b) = (fresh.row(s), grown.row(s));
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    });
    assert!(
        same,
        "incremental grow diverged bitwise from the from-scratch flows"
    );
}

/// True when a candidate of this shape fits `D` and `max_tree_nodes`.
fn fits(opts: &SearchOptions, shape: Shape) -> bool {
    shape.diameter <= opts.diameter && shape.size <= opts.max_tree_nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::QueryBudget;
    use crate::query::QuerySpec;
    use crate::validity::is_valid_answer;
    use ci_graph::{GraphBuilder, NodeId};
    use ci_index::NoIndex;
    use ci_rwmp::Dampening;
    use std::time::Duration;

    /// The Papakonstantinou–Ullman scenario: two author nodes connected by
    /// two alternative paper nodes of very different importance.
    fn coauthor_graph() -> (ci_graph::Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
        // 0 = author A, 2 = author B, 1 = weak paper, 3 = strong paper.
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[1], n[2], 1.0, 1.0);
        b.add_pair(n[0], n[3], 1.0, 1.0);
        b.add_pair(n[3], n[2], 1.0, 1.0);
        (b.build(), vec![0.2, 0.05, 0.2, 0.55])
    }

    fn query_ab(scorer: &Scorer<'_>) -> QuerySpec {
        QuerySpec::from_matches(
            scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(0), 0b01, 2), (NodeId(2), 0b10, 2)],
        )
    }

    /// The counter list is the only mapping from `SearchStats` fields to
    /// the registry's names, so it is checked here against the fields.
    #[test]
    fn counter_list_reads_each_field_under_its_own_name() {
        let distinct = SearchStats {
            pops: 1,
            registered: 2,
            bound_pruned: 3,
            distance_pruned: 4,
            merges: 5,
            candidates_peak: 6,
            truncation: None,
            cache: Some(crate::CacheStats {
                hits: 7,
                misses: 8,
                overflow: 9,
                entries: 10,
            }),
            rejections: RejectionStats {
                dead_pops: 11,
                merge_shape: 12,
                infeasible_leaves: 13,
                duplicate: 14,
                merge_sig_disjoint: 15,
                merge_matcher_overlap: 16,
                merge_overlap: 17,
            },
        };
        let truncated = [
            ("truncated_expansions", TruncationReason::Expansions),
            ("truncated_deadline", TruncationReason::Deadline),
            ("truncated_candidates", TruncationReason::CandidateMemory),
            ("truncated_enumeration", TruncationReason::EnumerationCaps),
        ];
        let fields: Vec<(&str, usize)> = distinct
            .counters()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("truncated_"))
            .collect();
        assert_eq!(
            fields,
            [
                ("pops", 1),
                ("registered", 2),
                ("bound_pruned", 3),
                ("distance_pruned", 4),
                ("merges", 5),
                ("dead_pops", 11),
                ("merge_shape", 12),
                ("rejected_infeasible_leaves", 13),
                ("rejected_duplicate", 14),
                ("merge_sig_disjoint", 15),
                ("merge_matcher_overlap", 16),
                ("merge_overlap", 17),
                ("cache_hits", 7),
                ("cache_misses", 8),
                ("cache_overflow", 9),
            ]
        );
        let names = SearchStats::counter_names();
        assert_eq!(names.len(), fields.len() + truncated.len());
        assert!(names
            .iter()
            .enumerate()
            .all(|(i, n)| !names[..i].contains(n)));
        let truncated_entries = |stats: SearchStats| -> Vec<(&str, usize)> {
            let c = stats.counters();
            c.into_iter()
                .filter(|(n, _)| n.starts_with("truncated_"))
                .collect()
        };
        assert_eq!(
            truncated_entries(distinct),
            truncated.map(|(name, _)| (name, 0))
        );
        for (set, reason) in truncated {
            let stats = SearchStats {
                truncation: Some(reason),
                ..distinct
            };
            let expected = truncated.map(|(name, _)| (name, usize::from(name == set)));
            assert_eq!(truncated_entries(stats), expected, "{reason:?}");
        }
        let uncached = SearchStats {
            cache: None,
            ..distinct
        };
        for (name, value) in uncached.counters() {
            if name.starts_with("cache_") {
                assert_eq!(value, 0, "{name} without cache stats");
            }
        }
    }

    #[test]
    fn finds_both_answers_ranked_by_connector_importance() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["papakonstantinou".into(), "ullman".into()],
            vec![(NodeId(0), 0b01, 2), (NodeId(2), 0b10, 2)],
        );
        let (answers, stats) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert!(!stats.truncated());
        assert!(stats.candidates_peak > 0);
        assert_eq!(answers.len(), 2, "two connecting papers, two answers");
        // Best answer goes through the important paper (node 3).
        assert!(answers[0].tree.contains(NodeId(3)));
        assert!(answers[1].tree.contains(NodeId(1)));
        assert!(answers[0].score > answers[1].score);
    }

    #[test]
    fn respects_k() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            k: 1,
            ..Default::default()
        };
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert_eq!(answers.len(), 1);
        assert!(answers[0].tree.contains(NodeId(3)));
    }

    #[test]
    fn unanswerable_query_returns_empty() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "ghost".into()],
            vec![(NodeId(0), 0b01, 2)],
        );
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert!(answers.is_empty());
    }

    #[test]
    fn disconnected_matchers_yield_nothing() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(0, vec![]);
        let y = b.add_node(0, vec![]);
        let z = b.add_node(0, vec![]);
        b.add_pair(x, y, 1.0, 1.0);
        let _ = z;
        let g = b.build();
        let p = vec![0.4, 0.3, 0.3];
        let scorer = Scorer::new(&g, &p, 0.3, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(0), 0b01, 1), (NodeId(2), 0b10, 1)],
        );
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert!(answers.is_empty());
    }

    #[test]
    fn diameter_limits_answers() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        // Matchers are 2 hops apart; D = 1 forbids any answer.
        let opts = SearchOptions {
            diameter: 1,
            ..Default::default()
        };
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert!(answers.is_empty());
    }

    #[test]
    fn single_node_answer_found() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        // Node 3 matches both keywords.
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(3), 0b11, 3), (NodeId(0), 0b01, 2)],
        );
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert!(!answers.is_empty());
        assert_eq!(answers[0].tree.size(), 1);
        assert_eq!(answers[0].tree.node(0), NodeId(3));
    }

    #[test]
    fn expansion_truncation_reported() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            budget: QueryBudget::default().with_max_expansions(1),
            ..Default::default()
        };
        let (_, stats) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert!(stats.truncated());
        assert_eq!(stats.truncation, Some(TruncationReason::Expansions));
    }

    #[test]
    fn expired_deadline_truncates_deterministically() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            budget: QueryBudget::default().with_timeout(Duration::ZERO),
            ..Default::default()
        };
        let (answers, stats) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert_eq!(stats.truncation, Some(TruncationReason::Deadline));
        // A truncated run returns only valid answers (possibly none).
        for a in &answers {
            assert!(is_valid_answer(&a.tree, &q));
        }
    }

    #[test]
    fn generous_deadline_matches_unbudgeted_run() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            budget: QueryBudget::default().with_timeout(Duration::from_secs(3600)),
            ..Default::default()
        };
        let (budgeted, stats) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert!(!stats.truncated());
        let (exact, _) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert_eq!(budgeted.len(), exact.len());
        for (a, b) in budgeted.iter().zip(&exact) {
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_tree_nodes_returns_nothing_without_work() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            max_tree_nodes: 0,
            trace: crate::TraceLevel::Full,
            ..Default::default()
        };
        let mut scratch = SearchScratch::new();
        let (answers, stats) = bnb_search_in(&scorer, &q, &NoIndex, &opts, &mut scratch);
        assert!(answers.is_empty());
        assert_eq!(stats, SearchStats::default());
        assert!(scratch.trace().events().is_empty());
    }

    #[test]
    fn candidate_memory_budget_truncates() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            budget: QueryBudget::default().with_max_candidates(2),
            ..Default::default()
        };
        let (answers, stats) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert_eq!(stats.truncation, Some(TruncationReason::CandidateMemory));
        assert!(stats.candidates_peak <= 2);
        for a in &answers {
            assert!(is_valid_answer(&a.tree, &q));
        }
    }
}

/// The flow matrices the search builds — seeds and merges filled from
/// scratch, grows advanced incrementally and self-checked — against the
/// finished-tree reference [`Scorer::tree_flows`] over the candidate's
/// [`Jtt`](ci_rwmp::Jtt), bit for bit.
#[cfg(test)]
mod flow_tests {
    use super::*;
    use crate::candidate::Candidate;
    use crate::query::MatcherInfo;
    use ci_graph::{GraphBuilder, NodeId};
    use ci_rwmp::{Dampening, FlowState};
    use proptest::prelude::*;

    /// A seed's or merge's flows, as `build` fills them.
    fn fill(s: &Scorer<'_>, q: &QuerySpec, cand: &Candidate, out: &mut FlowState) {
        s.fill_flows(cand.tree(), q.flow_sources(&cand.nodes), out);
    }

    /// A grow's flows, as `build` advances and self-checks them.
    fn grow(
        s: &Scorer<'_>,
        q: &QuerySpec,
        (pop, prev): (&Candidate, &mut FlowState),
        grown: &Candidate,
        out: &mut FlowState,
    ) {
        let root_gen = q.matcher(grown.root()).map(|m| m.gen);
        s.grow_flows(pop.tree(), prev, grown.root(), root_gen, out);
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        assert_grow_exact(s, q, grown, out);
    }

    fn query(matchers: Vec<(u32, u32, f64)>) -> QuerySpec {
        QuerySpec::new(
            vec!["a".into(), "b".into(), "c".into()],
            matchers
                .into_iter()
                .map(|(node, mask, gen)| MatcherInfo {
                    node: NodeId(node),
                    mask,
                    match_count: mask.count_ones(),
                    word_count: 1,
                    gen,
                })
                .collect(),
        )
    }

    /// Weighted 6-node graph with a cycle and asymmetric weights.
    fn graph6() -> (ci_graph::Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..6).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[1], n[2], 2.0, 0.5);
        b.add_pair(n[2], n[3], 1.5, 1.0);
        b.add_pair(n[1], n[4], 0.75, 2.0);
        b.add_pair(n[4], n[5], 1.0, 1.0);
        b.add_pair(n[0], n[5], 3.0, 0.25);
        (b.build(), vec![0.3, 0.1, 0.15, 0.2, 0.05, 0.2])
    }

    fn scorer<'a>(g: &'a ci_graph::Graph, p: &'a [f64]) -> Scorer<'a> {
        Scorer::new(g, p, 0.05, Dampening::paper_default())
    }

    fn assert_matches_tree_flows(s: &Scorer<'_>, q: &QuerySpec, cand: &Candidate) {
        let mut fs = FlowState::default();
        fill(s, q, cand, &mut fs);
        let sources: Vec<(usize, f64)> = (0..cand.size())
            .filter_map(|pos| Some((pos, q.matcher(cand.nodes[pos])?.gen)))
            .collect();
        let reference = s.tree_flows(&cand.to_jtt(), sources.iter().copied());
        assert_eq!(fs.sources(), reference.sources());
        for (row, &(pos, _)) in sources.iter().enumerate() {
            for (i, want) in reference.row(row).iter().enumerate() {
                assert_eq!(
                    fs.value(row, i).to_bits(),
                    want.to_bits(),
                    "source pos {pos}, tree pos {i}"
                );
            }
        }
    }

    #[test]
    fn from_scratch_matches_tree_flows_bitwise() {
        let (g, p) = graph6();
        let s = scorer(&g, &p);
        let q = query(vec![(0, 0b001, 2.0), (3, 0b010, 1.5), (5, 0b100, 0.75)]);
        // Chain 3 → 2 → 1 grown to root 0, then merged shapes via grow.
        let c = Candidate::seed(NodeId(3), 0b010)
            .grow(NodeId(2), &q)
            .grow(NodeId(1), &q)
            .grow(NodeId(0), &q);
        assert_matches_tree_flows(&s, &q, &c);
        // Star-ish: root 1 with subtrees toward 2—3 and 4—5.
        let left = Candidate::seed(NodeId(3), 0b010)
            .grow(NodeId(2), &q)
            .grow(NodeId(1), &q);
        let right = Candidate::seed(NodeId(5), 0b100)
            .grow(NodeId(4), &q)
            .grow(NodeId(1), &q);
        let merged = left.merge(&right).expect("disjoint");
        assert_matches_tree_flows(&s, &q, &merged);
        // Single node.
        assert_matches_tree_flows(&s, &q, &Candidate::seed(NodeId(5), 0b100));
    }

    #[test]
    fn grow_is_bit_identical_to_from_scratch() {
        // `grow` self-checks against the from-scratch fill in debug
        // builds, so driving it through a grow chain is the test.
        let (g, p) = graph6();
        let s = scorer(&g, &p);
        let q = query(vec![(0, 0b001, 2.0), (3, 0b010, 1.5), (5, 0b100, 0.75)]);
        let mut cand = Candidate::seed(NodeId(3), 0b010);
        let mut flows = FlowState::default();
        fill(&s, &q, &cand, &mut flows);
        for next in [NodeId(2), NodeId(1), NodeId(0), NodeId(5)] {
            let grown = cand.grow(next, &q);
            let mut out = FlowState::default();
            grow(&s, &q, (&cand, &mut flows), &grown, &mut out);
            assert_matches_tree_flows(&s, &q, &grown);
            cand = grown;
            flows = out;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random small trees over a random weighted graph: the flow state
        /// (from scratch and grown incrementally) must match
        /// `Scorer::tree_flows` bit for bit. The debug self-check after
        /// every grow makes it a bitwise comparison on its own.
        #[test]
        fn flow_state_matches_reference(
            weights in proptest::collection::vec(1u32..8, 8),
            imp in proptest::collection::vec(1u32..100, 6),
            grow_order in proptest::collection::vec(0usize..6, 5),
            matcher_sel in proptest::collection::vec(0u8..8, 6),
        ) {
            let mut b = GraphBuilder::new();
            let n: Vec<NodeId> = (0..6).map(|_| b.add_node(0, vec![])).collect();
            // Ring + chords, weighted from the strategy.
            let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (2, 5)];
            for (i, &(x, y)) in edges.iter().enumerate() {
                let w = f64::from(weights[i % weights.len()]);
                b.add_pair(n[x], n[y], w, w * 0.5);
            }
            let g = b.build();
            let p: Vec<f64> = imp.iter().map(|&x| f64::from(x) / 100.0).collect();
            let p_min = p.iter().copied().fold(f64::INFINITY, f64::min);
            let s = Scorer::new(&g, &p, p_min, Dampening::paper_default());
            let matchers: Vec<(u32, u32, f64)> = matcher_sel
                .iter()
                .enumerate()
                .filter_map(|(i, &sel)| {
                    let mask = u32::from(sel) & 0b111;
                    (mask != 0).then_some((i as u32, mask, 0.5 + i as f64))
                })
                .collect();
            if matchers.is_empty() {
                return Ok(());
            }
            let seed_node = matchers[0].0;
            let q = query(matchers);
            let mut cand = Candidate::seed(NodeId(seed_node), q.mask_of(NodeId(seed_node)));
            let mut flows = FlowState::default();
            fill(&s, &q, &cand, &mut flows);
            assert_matches_tree_flows(&s, &q, &cand);
            for &raw in &grow_order {
                let next = NodeId(raw as u32);
                if cand.contains(next) || s.graph().edge_weight(cand.root(), next).is_none() {
                    continue;
                }
                let grown = cand.grow(next, &q);
                let mut out = FlowState::default();
                grow(&s, &q, (&cand, &mut flows), &grown, &mut out);
                assert_matches_tree_flows(&s, &q, &grown);
                cand = grown;
                flows = out;
            }
        }
    }
}

/// The grow-leaf and grow-dedup proofs of [`SearchRun::admit`], checked
/// against real runs.
#[cfg(test)]
mod grow_leaf_props {
    use super::*;
    use crate::bounds::admissibility_props::{build_graph, case_query, case_scorer, random_case};
    use ci_index::NoIndex;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// After a run, every grow of every admitted candidate — also the
        /// grows the caps would stop — passes the leaf check that
        /// admission skips for grows.
        #[test]
        fn grows_of_admitted_candidates_pass_the_leaf_check(case in random_case(7)) {
            let graph = build_graph(&case);
            let scorer = case_scorer(&graph, &case);
            let Some(query) = case_query(&case, &scorer, case.keywords, 0) else {
                return Ok(());
            };
            let opts = SearchOptions {
                diameter: 4,
                k: 50,
                max_tree_nodes: 6,
                ..Default::default()
            };
            let mut scratch = SearchScratch::new();
            bnb_search_in(&scorer, &query, &NoIndex, &opts, &mut scratch);
            let SearchScratch {
                store,
                pop_slot,
                build_slot,
                has_child,
                ..
            } = &mut scratch;
            prop_assert!(store.len() > 0, "an answerable query admits its seeds");
            for idx in 0..store.len() {
                prop_assert!(store.load(idx, pop_slot));
                for v in graph.neighbors(pop_slot.cand.root()) {
                    if pop_slot.contains(v) {
                        continue;
                    }
                    pop_slot.cand.grow_into(v, &query, &mut build_slot.cand);
                    prop_assert!(
                        candidate_leaves_matchable(&build_slot.cand, &query, false, has_child),
                        "grow of {:?} by {:?} has infeasible leaves",
                        pop_slot.cand.nodes,
                        v
                    );
                }
            }
        }

        /// After a run — where merges with a seed operand happen — the
        /// identities of all stored candidates are pairwise distinct,
        /// although grows never enter the dedup set. (In this debug build
        /// the run also checks each step of the proof against its shadow
        /// identity set.)
        #[test]
        fn stored_identities_are_pairwise_distinct(case in random_case(7)) {
            let graph = build_graph(&case);
            let scorer = case_scorer(&graph, &case);
            let Some(query) = case_query(&case, &scorer, case.keywords, 0) else {
                return Ok(());
            };
            let opts = SearchOptions {
                diameter: 4,
                k: 50,
                max_tree_nodes: 6,
                ..Default::default()
            };
            let mut scratch = SearchScratch::new();
            bnb_search_in(&scorer, &query, &NoIndex, &opts, &mut scratch);
            let SearchScratch { store, pop_slot, .. } = &mut scratch;
            let mut seen = HashSet::new();
            let mut key = Vec::new();
            for idx in 0..store.len() {
                prop_assert!(store.load(idx, pop_slot));
                pop_slot.cand.identity_into(&mut key);
                prop_assert!(
                    seen.insert(key.clone()),
                    "candidate {} repeats an earlier one: {:?}",
                    idx,
                    pop_slot.cand.nodes
                );
            }
        }
    }
}

/// The packed queue key against the order it packs.
#[cfg(test)]
mod heap_key_props {
    use super::HeapItem;
    use proptest::prelude::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// The queue order, written out: max-heap on `ub` under
    /// [`f64::total_cmp`], then the smaller arena index first.
    fn reference(a: (f64, usize), b: (f64, usize)) -> Ordering {
        a.0.total_cmp(&b.0).then_with(|| b.1.cmp(&a.1))
    }

    /// Bounds worth ordering: signed zeros, infinities, subnormals,
    /// neighbours of 1, and arbitrary bit patterns.
    fn ub_of(sel: usize, hi: u32, lo: u32) -> f64 {
        let special = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE - f64::from_bits(1),
            1.0,
            1.0 + f64::EPSILON,
            -1.0,
            f64::MAX,
        ];
        special
            .get(sel)
            .copied()
            .unwrap_or_else(|| f64::from_bits((u64::from(hi) << 32) | u64::from(lo)))
    }

    fn idx_of(sel: usize, x: u32) -> usize {
        match sel {
            0 => 0,
            1 => usize::MAX,
            2 => usize::MAX - 1,
            _ => x as usize,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Any two entries compare by key as by the written-out order;
        /// equal bounds tie-break on the index. Each key decodes to its
        /// bound's bits (the Pop trace event reports it) and its index,
        /// and a heap of keys pops in the written-out order.
        #[test]
        fn packed_key_orders_and_decodes_like_the_pair(
            items in proptest::collection::vec(
                ((0usize..24, 0u32..u32::MAX, 0u32..u32::MAX), (0usize..6, 0u32..64)),
                1..16,
            ),
            ties in proptest::collection::vec((0usize..16, 0usize..16), 0..8),
        ) {
            let mut pairs: Vec<(f64, usize)> = items
                .iter()
                .map(|&((s, hi, lo), (i, x))| (ub_of(s, hi, lo), idx_of(i, x)))
                .collect();
            // Copy some bounds onto other entries: equal-`ub` ties.
            for &(from, to) in &ties {
                let n = pairs.len();
                pairs[to % n].0 = pairs[from % n].0;
            }
            for &(ub, idx) in &pairs {
                let key = HeapItem::new(ub, idx);
                prop_assert_eq!(key.ub().to_bits(), ub.to_bits());
                prop_assert_eq!(key.idx(), idx);
            }
            for &a in &pairs {
                for &b in &pairs {
                    let by_key = HeapItem::new(a.0, a.1).cmp(&HeapItem::new(b.0, b.1));
                    prop_assert_eq!(by_key, reference(a, b), "{:?} vs {:?}", a, b);
                }
            }
            let mut heap: BinaryHeap<HeapItem> =
                pairs.iter().map(|&(ub, idx)| HeapItem::new(ub, idx)).collect();
            let mut want = pairs.clone();
            want.sort_by(|&a, &b| reference(b, a));
            for (ub, idx) in want {
                let got = heap.pop().unwrap();
                prop_assert_eq!((got.ub().to_bits(), got.idx()), (ub.to_bits(), idx));
            }
        }
    }

    /// The corner cases by name: `-0.0` below `+0.0`, subnormals between
    /// zero and `MIN_POSITIVE`, `+∞` above everything finite, and equal
    /// bounds popping the smaller index first.
    #[test]
    fn packed_key_corner_cases() {
        let key = HeapItem::new;
        assert!(key(0.0, 0) > key(-0.0, 0));
        assert!(key(f64::from_bits(1), 9) > key(0.0, 0));
        assert!(key(f64::MIN_POSITIVE, 9) > key(f64::from_bits(1), 0));
        assert!(key(-f64::from_bits(1), 0) < key(-0.0, 9));
        assert!(key(f64::INFINITY, usize::MAX) > key(f64::MAX, 0));
        assert!(key(1.5, 3) > key(1.5, 4));
        assert_eq!(key(-0.0, 7).ub().to_bits(), (-0.0f64).to_bits());
    }
}
