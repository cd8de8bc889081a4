//! Upper bounds for the branch-and-bound search (§IV-B).
//!
//! `ub(C) = max(ce(C), pe(C))` must satisfy Lemma 1: no answer tree grown
//! from candidate `C` may out-score it. The bound exploits the
//! root-connection invariant (extensions attach only through the root):
//!
//! * flows between matchers *inside* `C` only shrink when the tree is
//!   extended — splits dilute as nodes gain neighbors and extra hops only
//!   dampen — so the in-candidate flow `f_ji` upper-bounds its final value;
//! * a source for a *missing* keyword `k` must sit somewhere beyond the
//!   root, so its flow into any node of `C` is at most
//!   `max_{u ∈ En(k)} gen(u) · ρ(u, root)` with `ρ` the index's retention
//!   upper bound (`ρ ≡ 1` without an index);
//! * any *added* node receives messages of type `j ∈ S` only through the
//!   root, so its Eq. 3 score is at most `min_{j ∈ S}` of the type-`j`
//!   flow leaving the root — the potential estimate `pe`.
//!
//! The tree score (Eq. 4) averages over `S ∪ N` (existing and added
//! matchers), which is bounded by `max(avg over S bound, max over N bound)
//! = max(ce, pe)`.

use ci_graph::NodeId;
use ci_index::DistanceOracle;
use ci_rwmp::{FlowState, Scorer};

use crate::candidate::Candidate;
use crate::query::QuerySpec;
use crate::roots::RootTable;

/// The two components of `ub(C) = max(ce(C), pe(C))` (§IV-B), computed
/// together on the hot path and stored with the candidate so query tracing
/// can report the bound decomposition at pop time without re-probing the
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundParts {
    /// Complete estimate: mean over the candidate's existing matchers of
    /// their per-node Eq. 3 score bound.
    pub ce: f64,
    /// Damped potential estimate — the best score an added matcher beyond
    /// the root could still achieve.
    pub pe: f64,
}

impl BoundParts {
    /// The admissible upper bound `ub(C) = max(ce, pe)`.
    #[inline]
    #[must_use]
    pub fn ub(self) -> f64 {
        // Admissibility (Lemma 1) is established where the parts are
        // computed (`bound_parts_from`); the max itself must stay sane.
        debug_assert!(
            !self.ce.is_nan() && !self.pe.is_nan(),
            "admissibility: ub(C) components must be numbers"
        );
        self.ce.max(self.pe)
    }
}

/// Computes the bound decomposition `(ce, pe)` of `ub(C)` from the
/// candidate's [`FlowState`] — the one bound entry point; `ub(C)` is
/// [`BoundParts::ub`] of the result. Answers may hold more matchers than
/// keywords, so even a complete candidate is bounded over its extensions.
/// Allocation-free: it iterates the flow matrix and the query's dense
/// matcher table directly instead of materializing per-source vectors,
/// and reads each missing keyword's term from the run's [`RootTable`],
/// which scans that keyword's matchers once per root.
///
/// Generic over the oracle (statically dispatched): the `retention_ub`
/// probes sit on the hottest loop of Algorithm 1 and inline per oracle
/// type. `?Sized` keeps `&dyn DistanceOracle` callers compiling where
/// static types are unavailable.
pub fn bound_parts_from<O: DistanceOracle + ?Sized>(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    oracle: &O,
    roots: &mut RootTable,
    cand: &Candidate,
    flows: &FlowState,
) -> BoundParts {
    let root = cand.root();
    let sources = flows.sources();
    assert!(
        !sources.is_empty(),
        "candidates contain at least one matcher"
    );

    // Tightest bound over sources of the missing keywords.
    let mut min_missing = f64::INFINITY;
    for k in 0..query.keyword_count() {
        if cand.mask & (1 << k) != 0 {
            continue;
        }
        let b = roots.missing(root, k, || {
            best_damped_gen(query, oracle, query.matchers_of(k), root, None)
        });
        min_missing = min_missing.min(b);
    }

    // ce: mean over existing matchers of their per-node score bound.
    let mut ce_sum = 0.0;
    for (i, &pos_i32) in sources.iter().enumerate() {
        let pos_i = pos_i32 as usize;
        let mut internal_min = f64::INFINITY;
        for j in 0..sources.len() {
            if j != i {
                // A missing flow entry must not lower the bound: the
                // accessor returns +∞ out of range.
                internal_min = internal_min.min(flows.value(j, pos_i));
            }
        }
        let mut bound = internal_min.min(min_missing);
        if bound.is_infinite() {
            // Single matcher covering every keyword: the answer may be the
            // candidate itself (score = its generation count) or an
            // extension whose added sources flow through the root.
            let Some(m_i) = cand.nodes.get(pos_i).and_then(|&v| query.matcher(v)) else {
                debug_assert!(false, "flow sources are always matchers");
                continue;
            };
            let ext = best_damped_gen(query, oracle, query.matchers_sorted(), root, Some(m_i.node));
            bound = m_i.gen.max(ext);
        }
        ce_sum += bound;
    }
    let ce = ce_sum / sources.len() as f64;

    // pe: messages of each existing type available beyond the root. An
    // added node sits at least one hop past the root, so it retains at
    // most the global maximum dampening rate of that flow.
    let mut pe = f64::INFINITY;
    for (j, &pos_j32) in sources.iter().enumerate() {
        let pos_j = pos_j32 as usize;
        let at_root = if pos_j == 0 {
            cand.nodes
                .get(pos_j)
                .and_then(|&v| query.matcher(v))
                .map_or(f64::INFINITY, |m| m.gen)
        } else {
            // A missing flow entry must not lower the bound.
            flows.value(j, 0)
        };
        pe = pe.min(at_root);
    }
    let parts = BoundParts {
        ce,
        pe: pe * scorer.max_dampening(),
    };

    // Admissibility (Lemma 1): the bound must dominate the score of every
    // answer grown from this candidate — in particular, a complete
    // candidate is itself one such answer, so `ub(C) ≥ score(C)` exactly.
    debug_assert!(
        !parts.ub().is_nan(),
        "admissibility: ub(C) must be a number"
    );
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    if cand.mask == query.full_mask() {
        let ub = parts.ub();
        if let Some(score) = flows.reduce(None) {
            assert!(
                ub >= score - 1e-9,
                "admissibility violated: ub(C) = {ub} < score(C) = {score}"
            );
        }
    }
    parts
}

/// `max_u gen(u) · ρ(u, root)` over a matcher list sorted by descending
/// generation, with early exit: once the next raw generation cannot beat
/// the current best (ρ ≤ 1), the scan stops.
pub(crate) fn best_damped_gen<O: DistanceOracle + ?Sized>(
    query: &QuerySpec,
    oracle: &O,
    sorted: &[NodeId],
    root: NodeId,
    exclude: Option<NodeId>,
) -> f64 {
    // After this many oracle probes, the unscanned tail is bounded by its
    // largest raw generation instead (slightly looser but still an upper
    // bound) so the per-candidate probe count stays constant even for
    // keywords with thousands of matchers.
    const PROBE_BUDGET: usize = 8;
    let mut best = 0.0f64;
    let mut probes = 0;
    for &u in sorted {
        if Some(u) == exclude {
            continue;
        }
        let Some(info) = query.matcher(u) else {
            debug_assert!(false, "matcher list out of sync with the query");
            continue;
        };
        let gen = info.gen;
        if gen <= best {
            break;
        }
        if probes >= PROBE_BUDGET {
            // Tail bound: the list is sorted, so every remaining entry has
            // gen ≤ this one and ρ ≤ 1.
            return best.max(gen);
        }
        let rho = if u == root {
            1.0
        } else {
            oracle.retention_ub(u, root)
        };
        probes += 1;
        best = best.max(gen * rho);
    }
    best
}

/// Distance-based feasibility prune of a candidate with this `root`,
/// keyword `mask` and `depth`: it can be discarded when some missing
/// keyword has no matcher close enough to the root to keep the final
/// diameter within `d_max` (every completion path attaches at the root,
/// so it spans `depth + dist(root, u)` hops to the deepest existing
/// leaf). A matcher within reach exists exactly when the keyword's
/// distance floor ([`distance_floor`], memoized per root in the
/// [`RootTable`]) plus the depth stays within `d_max`. It reads nothing
/// else of the candidate, so a grow is checked before it is built.
pub fn distance_prune<O: DistanceOracle + ?Sized>(
    query: &QuerySpec,
    oracle: &O,
    roots: &mut RootTable,
    root: NodeId,
    mask: u32,
    depth: u32,
    d_max: u32,
) -> bool {
    (0..query.keyword_count()).any(|k| {
        mask & (1 << k) == 0
            && roots
                .floor(root, k, || distance_floor(query, oracle, root, k))
                .saturating_add(depth)
                > d_max
    })
}

/// `min_{u ∈ En(k)} dist_lb(root, u)`: how close keyword `k`'s nearest
/// matcher can be to `root` (`u32::MAX` when `k` has no matcher).
pub(crate) fn distance_floor<O: DistanceOracle + ?Sized>(
    query: &QuerySpec,
    oracle: &O,
    root: NodeId,
    k: usize,
) -> u32 {
    query
        .matchers_of(k)
        .iter()
        .map(|&u| oracle.dist_lb(root, u))
        .min()
        .unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_graph::GraphBuilder;
    use ci_index::{NaiveIndex, NoIndex};
    use ci_rwmp::Dampening;

    /// `ub(C)` over flows filled from scratch, as admission computes it.
    pub(super) fn upper_bound<O: DistanceOracle + ?Sized>(
        scorer: &Scorer<'_>,
        query: &QuerySpec,
        oracle: &O,
        cand: &Candidate,
    ) -> f64 {
        let mut flows = FlowState::default();
        scorer.fill_flows(cand.tree(), query.flow_sources(&cand.nodes), &mut flows);
        let mut roots = RootTable::default();
        roots.begin(query.keyword_count());
        bound_parts_from(scorer, query, oracle, &mut roots, cand, &flows).ub()
    }

    /// Path 0(a) — 1 — 2(b), equal weights.
    fn setup() -> (ci_graph::Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[1], n[2], 1.0, 1.0);
        (b.build(), vec![0.25, 0.5, 0.25])
    }

    fn query_ab(scorer: &Scorer<'_>) -> QuerySpec {
        QuerySpec::from_matches(
            scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(0), 0b01, 2), (NodeId(2), 0b10, 2)],
        )
    }

    #[test]
    fn bound_dominates_final_scores() {
        let (g, p) = setup();
        let scorer = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let q = query_ab(&scorer);
        // Full answer: 0 — 1 — 2.
        let full = Candidate::seed(NodeId(0), 0b01)
            .grow(NodeId(1), &q)
            .grow(NodeId(2), &q);
        let answer_score =
            crate::answer::score_answer(&scorer, &q, &full.to_jtt()).expect("has matchers");
        // Every ancestor candidate must bound the final answer.
        let seed = Candidate::seed(NodeId(0), 0b01);
        let grown = seed.grow(NodeId(1), &q);
        for c in [&seed, &grown, &full] {
            let ub = upper_bound(&scorer, &q, &NoIndex, c);
            assert!(
                ub >= answer_score - 1e-12,
                "ub {ub} must dominate answer score {answer_score}"
            );
        }
    }

    #[test]
    fn index_tightens_the_bound() {
        let (g, p) = setup();
        let scorer = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let q = query_ab(&scorer);
        let seed = Candidate::seed(NodeId(0), 0b01);
        let loose = upper_bound(&scorer, &q, &NoIndex, &seed);
        let damp: Vec<f64> = g.nodes().map(|v| scorer.dampening(v)).collect();
        let idx = NaiveIndex::build(&g, &damp, 6);
        let tight = upper_bound(&scorer, &q, &idx, &seed);
        assert!(tight <= loose + 1e-12, "indexed bound {tight} ≤ {loose}");
        assert!(
            tight < loose,
            "retention information must tighten the bound"
        );
    }

    #[test]
    fn distance_prune_fires_only_when_unreachable() {
        let (g, p) = setup();
        let scorer = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let q = query_ab(&scorer);
        let damp: Vec<f64> = g.nodes().map(|v| scorer.dampening(v)).collect();
        let idx = NaiveIndex::build(&g, &damp, 6);
        let seed = Candidate::seed(NodeId(0), 0b01);
        let mut roots = RootTable::default();
        roots.begin(q.keyword_count());
        let prune = |oracle: &dyn DistanceOracle, roots: &mut RootTable, d_max| {
            distance_prune(&q, oracle, roots, seed.root(), seed.mask, seed.depth, d_max)
        };
        // b-matcher (node 2) is 2 hops away: fine for D = 2…
        assert!(!prune(&idx, &mut roots, 2));
        // …infeasible for D = 1, read from the same memoized floor.
        assert!(prune(&idx, &mut roots, 1));
        // Without an index nothing can be pruned.
        roots.begin(q.keyword_count());
        assert!(!prune(&NoIndex, &mut roots, 1));
    }
}

/// Property check for Lemma 1 against ground truth. The companion property
/// — branch-and-bound top-k equals the exhaustive naive top-k — lives in
/// `tests/equivalence.rs`; this one needs the crate-private [`Candidate`],
/// so it is a unit test. Its random cases also drive the root-table and
/// grow-leaf properties of `roots.rs` and `bnb.rs`.
#[cfg(test)]
pub(crate) mod admissibility_props {
    use super::tests::upper_bound;
    use super::*;
    use crate::candidate::Candidate;
    use crate::naive::naive_search;
    use crate::SearchOptions;
    use ci_graph::{Graph, GraphBuilder};
    use ci_index::{NaiveIndex, NoIndex};
    use ci_rwmp::{Dampening, Jtt, Scorer};
    use proptest::prelude::*;

    /// A random connected graph plus a keyword assignment, mirroring the
    /// generator of `tests/equivalence.rs` at a smaller size.
    #[derive(Debug, Clone)]
    pub(crate) struct Case {
        importance: Vec<f64>,
        spanning: Vec<usize>,
        extra: Vec<(usize, usize)>,
        matcher_sel: Vec<u8>,
        pub(crate) keywords: usize,
    }

    pub(crate) fn random_case(n: usize) -> impl Strategy<Value = Case> {
        (
            proptest::collection::vec(1u32..1000, n),
            proptest::collection::vec(0usize..n, n),
            proptest::collection::vec((0usize..n, 0usize..n), 0..n),
            proptest::collection::vec(0u8..8, n),
            2usize..=3,
        )
            .prop_map(|(imp, spanning, extra, matcher_sel, keywords)| Case {
                importance: imp.into_iter().map(|x| f64::from(x) / 1000.0).collect(),
                spanning,
                extra,
                matcher_sel,
                keywords,
            })
    }

    pub(crate) fn build_graph(case: &Case) -> Graph {
        let n = case.importance.len();
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node((i % 2) as u16, vec![])).collect();
        // Random spanning tree keeps the graph connected; extra edges add
        // cycles. The builder collapses duplicate pairs itself.
        for i in 1..n {
            let j = case.spanning[i] % i;
            b.add_pair(nodes[i], nodes[j], 1.0, 1.0);
        }
        for &(x, y) in &case.extra {
            if x != y {
                b.add_pair(nodes[x], nodes[y], 1.0, 1.0);
            }
        }
        b.build()
    }

    /// The scorer of a case's graph, with the case's importance vector.
    pub(crate) fn case_scorer<'g>(graph: &'g Graph, case: &'g Case) -> Scorer<'g> {
        let p_min = case
            .importance
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        Scorer::new(graph, &case.importance, p_min, Dampening::paper_default())
    }

    /// The case's query over `keywords` keywords: node `i` matches the
    /// keyword bits of its selector rotated by `salt`, so one graph can
    /// carry several different queries. `None` when it is unanswerable.
    pub(crate) fn case_query(
        case: &Case,
        scorer: &Scorer<'_>,
        keywords: usize,
        salt: u32,
    ) -> Option<QuerySpec> {
        let mask_space = (1u32 << keywords) - 1;
        let mut matches = Vec::new();
        for (i, &sel) in case.matcher_sel.iter().enumerate() {
            let mask = u32::from(sel).rotate_left(salt) & mask_space;
            if mask == 0 {
                continue;
            }
            matches.push((NodeId(i as u32), mask, 2 + (i as u32 % 3)));
        }
        if matches.is_empty() {
            return None;
        }
        let query = QuerySpec::from_matches(
            scorer,
            (0..keywords).map(|i| format!("k{i}")).collect(),
            matches,
        );
        query.answerable().then_some(query)
    }

    /// The whole answer tree rooted at `root_pos`, as a complete candidate.
    fn rooted(tree: &Jtt, root_pos: usize, query: &QuerySpec) -> Candidate {
        let mut order = vec![root_pos];
        let mut parent = vec![0u32];
        let mut pos_in_cand = vec![usize::MAX; tree.size()];
        pos_in_cand[root_pos] = 0;
        let mut i = 0;
        while i < order.len() {
            let u = order[i];
            for &v in tree.adjacent(u) {
                if pos_in_cand[v] == usize::MAX {
                    pos_in_cand[v] = order.len();
                    order.push(v);
                    parent.push(i as u32);
                }
            }
            i += 1;
        }
        let nodes: Vec<NodeId> = order.iter().map(|&p| tree.node(p)).collect();
        let mask = nodes.iter().fold(0, |m, &v| m | query.mask_of(v));
        let depth = tree.distances_from(root_pos).into_iter().max().unwrap_or(0);
        Candidate {
            nodes,
            parent,
            mask,
            depth,
            diameter: tree.diameter(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Lemma 1, empirically: for every answer `T` of the exhaustive
        /// search and every candidate `C` from which `T` is reachable by
        /// grow/merge steps, `ub(C) ≥ score(T)`. Reachability requires the
        /// root-connection invariant — every non-root node of `C` already
        /// has all of its `T`-neighbors inside `C` — so the checked
        /// ancestors are (a) every single-matcher seed in `T`, (b) every
        /// branchless matcher-to-root sub-path, (c) `T` itself under every
        /// rooting.
        #[test]
        fn upper_bound_never_underestimates(case in random_case(6)) {
            let graph = build_graph(&case);
            let scorer = case_scorer(&graph, &case);
            let Some(query) = case_query(&case, &scorer, case.keywords, 0) else {
                return Ok(());
            };

            let opts = SearchOptions {
                diameter: 4,
                k: 6,
                max_tree_nodes: 6,
                naive_max_paths: 100_000,
                naive_max_combinations: 1_000_000,
                ..Default::default()
            };
            let (answers, naive_stats) = naive_search(&scorer, &query, &opts);
            prop_assert!(!naive_stats.truncated(), "oracle must be exhaustive");

            let damp: Vec<f64> = graph.nodes().map(|v| scorer.dampening(v)).collect();
            let idx = NaiveIndex::build(&graph, &damp, opts.diameter);
            let oracles: [&dyn DistanceOracle; 2] = [&NoIndex, &idx];

            for a in &answers {
                let tree = &a.tree;
                let deg: Vec<usize> =
                    (0..tree.size()).map(|p| tree.adjacent(p).len()).collect();
                for root_pos in 0..tree.size() {
                    // (c) the complete candidate: `T` is one of its own
                    // reachable answers.
                    let full = rooted(tree, root_pos, &query);
                    for oracle in oracles {
                        let ub = upper_bound(&scorer, &query, oracle, &full);
                        prop_assert!(
                            ub >= a.score - 1e-9,
                            "complete candidate: ub {ub} < score {} (root {root_pos})",
                            a.score
                        );
                    }
                    for mpos in 0..tree.size() {
                        if query.matcher(tree.node(mpos)).is_none() {
                            continue;
                        }
                        let path = tree.path(mpos, root_pos);
                        let seed_node = tree.node(mpos);
                        let mut cand =
                            Candidate::seed(seed_node, query.mask_of(seed_node));
                        for (step, &next) in path.iter().enumerate() {
                            if step > 0 {
                                // Extending past a branching node breaks the
                                // root-connection invariant: `T` is no longer
                                // reachable from the grown candidate, so the
                                // bound owes it nothing.
                                let prev = path[step - 1];
                                let branchless =
                                    deg[prev] <= if step == 1 { 1 } else { 2 };
                                if !branchless {
                                    break;
                                }
                                cand = cand.grow(tree.node(next), &query);
                            }
                            // (a) the seed (step 0) and (b) each branchless
                            // prefix must dominate the final score.
                            for oracle in oracles {
                                let ub = upper_bound(&scorer, &query, oracle, &cand);
                                prop_assert!(
                                    ub >= a.score - 1e-9,
                                    "path candidate (matcher {mpos}, root {root_pos}, \
                                     step {step}): ub {ub} < score {}",
                                    a.score
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
