use std::cmp::Ordering;
use std::time::Instant;

use ci_graph::NodeId;
use ci_index::DistanceOracle;
use ci_rwmp::Scorer;

use crate::answer::{Answer, TopK};
use crate::bounds::{bound_parts_from, distance_prune};
use crate::budget::TruncationReason;
use crate::candidate::{Candidate, Shape};
use crate::flows::{compute_flows, grow_flows};
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
    /// Merge attempts performed.
    pub merges: usize,
    /// Peak number of live candidates held in the arena — what
    /// [`crate::QueryBudget::max_candidates`] bounds.
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
/// Merge attempts the merge rule allows split four ways: the 64-bit node
/// signatures proved them disjoint (`merge_sig_disjoint`, no scan), the
/// matcher signatures proved them overlapping (`merge_matcher_overlap`, no
/// scan), the exact scan found a shared node (`merge_overlap`), or the scan
/// passed. Only the first three are counted; the last is `merges` minus
/// the four merge fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionStats {
    /// Candidates over the diameter or tree-size cap, rejected from their
    /// shape alone, before being built.
    pub structural: usize,
    /// Candidates whose frozen leaves admit no keyword assignment.
    pub infeasible_leaves: usize,
    /// Candidates whose `(root, tree)` identity was already admitted.
    pub duplicate: usize,
    /// Merge attempts refused by the paper's merge rule (only when
    /// [`crate::SearchOptions::allow_redundant_matchers`] is off).
    pub merge_rule: usize,
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
    /// True if the run stopped before exhausting its search space — the
    /// top-k guarantee does not hold for a truncated run.
    pub fn truncated(&self) -> bool {
        self.truncation.is_some()
    }
}

#[derive(Debug)]
pub(crate) struct HeapItem {
    pub(crate) ub: f64,
    pub(crate) idx: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.ub == other.ub && self.idx == other.idx
    }
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on the upper bound; among equal bounds the *smallest*
        // arena index wins, i.e. pops follow registration order. Arena
        // indices grow monotonically within a run, so successive equal-`ub`
        // pops always carry increasing indices — asserted in the pop loop.
        self.ub
            .total_cmp(&other.ub)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One registration-worklist entry: a candidate still to be built. The
/// structural pre-check reads its shape first, so a candidate the
/// structural prune would reject is never built. The candidate store is
/// append-only within a run, so merge operands stay valid while queued,
/// and a grow always extends the current pop slot, which no registration
/// modifies.
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

/// Wall-clock polling stride: the deadline is re-read from the OS once per
/// this many budget checks, keeping `Instant::now` off the per-candidate
/// fast path. The first check of a run always polls, so an
/// already-expired deadline truncates deterministically before any work.
const DEADLINE_POLL_STRIDE: u32 = 64;

struct SearchRun<'a, O: DistanceOracle> {
    scorer: &'a Scorer<'a>,
    query: &'a QuerySpec,
    oracle: &'a O,
    opts: &'a SearchOptions,
    scratch: &'a mut SearchScratch,
    topk: TopK,
    stats: SearchStats,
    /// The run's wall-clock limit, armed by the prologue from the budget.
    deadline: Option<Instant>,
    deadline_ticks: u32,
    /// Last oracle `(hits, misses)` snapshot emitted into the trace, so
    /// cache events record transitions, not every pop.
    last_cache: Option<(u64, u64)>,
    /// `(ub, idx)` of the previous pop, for the pop-order assertion.
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    last_pop: Option<(f64, usize)>,
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
    scratch.begin();
    scratch.trace.begin(opts.trace, opts.trace_capacity);
    let mut run = SearchRun {
        scorer,
        query,
        oracle,
        opts,
        scratch,
        topk: TopK::new(opts.k),
        stats: SearchStats::default(),
        deadline: opts.budget.arm(),
        deadline_ticks: 0,
        last_cache: None,
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        last_pop: None,
    };
    if !query.answerable() {
        return (Vec::new(), run.stats);
    }
    // Seed in the spec's deterministic matcher order (`matchers()` follows
    // `matchers_sorted()`): registration order is the heap's tie-break and
    // the top-k's order among equal-scored answers, so it must be
    // reproducible run to run.
    for m in query.matchers() {
        run.register(Pending::Seed(m.node, m.mask));
    }
    while let Some(HeapItem { ub, idx }) = run.scratch.queue.pop() {
        // Documented heap order (see `HeapItem::cmp`): equal-bound pops
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
        if run.scratch.trace.level().pops() {
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
    (run.topk.into_sorted(), run.stats)
}

impl<'a, O: DistanceOracle> SearchRun<'a, O> {
    /// Records a budget truncation in the stats and, when tracing, in the
    /// trace buffer.
    fn truncate(&mut self, reason: TruncationReason) {
        self.stats.truncation = Some(reason);
        if self.scratch.trace.level().pops() {
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

    /// Counts a rejected candidate under its reason and, at the Full
    /// level, records a [`TraceEvent::Prune`] for it.
    fn prune(&mut self, reason: PruneReason, root: NodeId, size: usize, mask: u32) {
        let r = &mut self.stats.rejections;
        match reason {
            PruneReason::Structural => r.structural += 1,
            PruneReason::InfeasibleLeaves => r.infeasible_leaves += 1,
            PruneReason::Duplicate => r.duplicate += 1,
            PruneReason::Distance => self.stats.distance_pruned += 1,
            PruneReason::Bound => self.stats.bound_pruned += 1,
        }
        if self.scratch.trace.level().full() {
            self.scratch.trace.emit(TraceEvent::Prune {
                reason,
                root,
                size,
                mask,
            });
        }
    }

    /// [`SearchRun::prune`] for the candidate in the build slot.
    fn reject(&mut self, reason: PruneReason) -> Option<usize> {
        let cand = &self.scratch.build_slot.cand;
        self.prune(reason, cand.root(), cand.size(), cand.mask);
        None
    }

    /// Polls the wall-clock deadline (strided — see
    /// [`DEADLINE_POLL_STRIDE`]) and records the truncation on expiry.
    fn deadline_hit(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        let tick = self.deadline_ticks;
        self.deadline_ticks = self.deadline_ticks.wrapping_add(1);
        if !tick.is_multiple_of(DEADLINE_POLL_STRIDE) {
            return false;
        }
        if Instant::now() >= deadline {
            self.truncate(TruncationReason::Deadline);
            true
        } else {
            false
        }
    }

    /// Builds, validates, bounds, enqueues, and eagerly merges a new
    /// candidate, then every merge that cascades from it.
    ///
    /// Each worklist entry passes the budget gate before anything is
    /// built. Merge cascades at hub roots can register far more candidates
    /// than the pop cap ever touches, so the expansion budget also bounds
    /// total registrations (at 10× the pop cap), and the candidate-memory
    /// budget bounds the live arena directly.
    fn register(&mut self, entry: Pending) {
        let registration_cap = self
            .opts
            .budget
            .max_expansions
            .map(|m| m.saturating_mul(10));
        self.scratch.worklist.push(entry);
        while let Some(entry) = self.scratch.worklist.pop() {
            if let Some(cap) = registration_cap {
                if self.stats.registered >= cap {
                    self.truncate(TruncationReason::Expansions);
                    self.scratch.worklist.clear();
                    return;
                }
            }
            if let Some(cap) = self.opts.budget.max_candidates {
                if self.scratch.store.len() >= cap {
                    self.truncate(TruncationReason::CandidateMemory);
                    self.scratch.worklist.clear();
                    return;
                }
            }
            if self.deadline_hit() {
                self.scratch.worklist.clear();
                return;
            }
            if !self.build(entry) {
                continue;
            }
            let Some(idx) = self.admit() else {
                continue;
            };
            // Merge with every known candidate sharing the root, in
            // admission order (the chain read reverses to oldest-first).
            let root = self.scratch.build_slot.cand.root();
            self.scratch.collect_partners(root);
            for t in 0..self.scratch.partners.len() {
                let Some(&p32) = self.scratch.partners.get(t) else {
                    break;
                };
                let partner = p32 as usize;
                if partner == idx {
                    continue;
                }
                self.stats.merges += 1;
                let merged = self.mergeable(idx, partner);
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
        }
    }

    /// Whether arena candidates `idx` and `partner` (same root) merge: the
    /// merge rule allows it and their non-root node sets are disjoint.
    /// Reads only the dense merge keys unless the signatures leave the
    /// overlap open, which the exact scan then settles.
    fn mergeable(&mut self, idx: usize, partner: usize) -> bool {
        let store = &self.scratch.store;
        let (Some(a), Some(b)) = (store.key(idx), store.key(partner)) else {
            return false;
        };
        let r = &mut self.stats.rejections;
        if !merge_allowed(self.opts, a.mask, b.mask) {
            r.merge_rule += 1;
            return false;
        }
        let overlap = store.overlap(idx, a, partner, b);
        match overlap {
            Overlap::SigDisjoint => r.merge_sig_disjoint += 1,
            Overlap::SharedMatcher => r.merge_matcher_overlap += 1,
            Overlap::ScanShared => r.merge_overlap += 1,
            Overlap::ScanDisjoint => {}
        }
        overlap.disjoint()
    }

    /// Builds a worklist entry into the build slot, with its flows and
    /// signatures — unless its shape already fails the structural prune,
    /// which is then recorded exactly as for a built candidate. Returns
    /// whether it was built.
    fn build(&mut self, entry: Pending) -> bool {
        let SearchScratch {
            store,
            pop_slot,
            build_slot: slot,
            ..
        } = &mut *self.scratch;
        let (shape, root, mask) = match entry {
            Pending::Seed(node, mask) => (Shape::SEED, node, mask),
            Pending::Grow(v) => {
                let pop = &pop_slot.cand;
                (pop.grow_shape(), v, pop.mask | self.query.mask_of(v))
            }
            Pending::Merge { idx, partner } => {
                let (Some(a), Some(b)) = (store.view(idx), store.view(partner)) else {
                    debug_assert!(false, "merge operands are stored candidates");
                    return false;
                };
                let root = a.nodes.first().copied().unwrap_or(NodeId(u32::MAX));
                (Candidate::merge_shape(a, b), root, a.mask | b.mask)
            }
        };
        if shape.diameter > self.opts.diameter || shape.size > self.opts.max_tree_nodes {
            self.prune(PruneReason::Structural, root, shape.size, mask);
            return false;
        }
        match entry {
            Pending::Seed(node, mask) => {
                slot.cand.set_seed(node, mask);
                slot.sig = 0;
                slot.msig = 0;
                compute_flows(self.scorer, self.query, &slot.cand, &mut slot.flows);
            }
            Pending::Grow(v) => {
                let pop = &*pop_slot;
                pop.cand.grow_into(v, self.query, &mut slot.cand);
                slot.grow_sigs(pop, self.query);
                grow_flows(
                    self.scorer,
                    self.query,
                    &pop.cand,
                    &pop.flows,
                    &slot.cand,
                    &mut slot.flows,
                );
            }
            Pending::Merge { idx, partner } => {
                if let (Some(a), Some(b), Some(ka), Some(kb)) = (
                    store.view(idx),
                    store.view(partner),
                    store.key(idx),
                    store.key(partner),
                ) {
                    slot.cand.merge_into(a, b);
                    slot.merge_sigs(ka, kb);
                }
                // Merged shapes recompute flows from scratch: the subtree
                // positions interleave, so no incremental copy applies.
                compute_flows(self.scorer, self.query, &slot.cand, &mut slot.flows);
            }
        }
        true
    }

    /// Checks the build slot's candidate against the remaining prunes; on
    /// success copies it into the store, offers it to the top-k (if a valid
    /// complete answer), and returns its arena index.
    fn admit(&mut self) -> Option<usize> {
        let SearchScratch {
            build_slot: slot,
            has_child,
            dedup,
            key_buf,
            ..
        } = &mut *self.scratch;
        // Non-root leaves stay leaves: their keyword assignment must be
        // feasible in any extension.
        if !candidate_leaves_matchable(&slot.cand, self.query, false, has_child) {
            return self.reject(PruneReason::InfeasibleLeaves);
        }
        slot.cand.identity_into(key_buf);
        if !dedup.insert(key_buf) {
            return self.reject(PruneReason::Duplicate);
        }
        if distance_prune(self.query, self.oracle, &slot.cand, self.opts.diameter) {
            return self.reject(PruneReason::Distance);
        }
        let parts = bound_parts_from(
            self.scorer,
            self.query,
            self.oracle,
            &slot.cand,
            &slot.flows,
            self.opts.allow_redundant_matchers,
        );
        let ub = parts.ub();
        if let Some(min) = self.topk.min_score() {
            if ub < min {
                return self.reject(PruneReason::Bound);
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
        let (root, size, mask) = (cand.root(), cand.size(), cand.mask);
        self.stats.candidates_peak = self.stats.candidates_peak.max(self.scratch.store.len());
        self.scratch.push_root_chain(root, idx);
        self.scratch.queue.push(HeapItem { ub, idx });
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

/// The paper's merge rule, unless redundant matchers are allowed: the
/// merge must cover more keywords than either operand.
fn merge_allowed(opts: &SearchOptions, a: u32, b: u32) -> bool {
    let union = a | b;
    opts.allow_redundant_matchers || (union != a && union != b)
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
