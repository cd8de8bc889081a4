//! RWMP flow matrices for search candidates and answers.
//!
//! The bound of §IV-B needs, for every matcher ("source") inside a
//! candidate, the flow it delivers to every node of the candidate; the
//! score of an answer and its explanation need the same matrix for the
//! answer tree. All of them come from one kernel in `ci-rwmp`: the
//! [`FlowState`] matrix, filled by [`Scorer::fill_flows`] or advanced by
//! [`Scorer::grow_flows`], and reduced to Eqs. 3–4 by
//! [`FlowState::reduce`]. This module only names the sources — every
//! matcher position, ascending, with its [`crate::MatcherInfo::gen`] — and
//! hands the kernel the tree in parent-array form: a candidate as it is
//! stored, a [`Jtt`] through [`Jtt::parent_positions`].
//!
//! Bounds, answer scores and explanations therefore agree bit for bit by
//! construction. What remains to check is that a grow, which recomputes
//! only the region the new edge touches, matches the from-scratch matrix;
//! [`grow_flows`] asserts that in debug and `strict-invariants` builds.

use ci_rwmp::{FlowState, Jtt, ParentTree, Scorer};

use crate::candidate::Candidate;
use crate::query::QuerySpec;

/// Fills `out` with the flow matrix of `tree` under `query`: one row per
/// matcher position, ascending.
fn fill(scorer: &Scorer<'_>, query: &QuerySpec, tree: ParentTree<'_>, out: &mut FlowState) {
    let sources = (0..tree.size()).filter_map(|pos| {
        let m = query.matcher(tree.node(pos)?)?;
        Some((pos, m.gen))
    });
    scorer.fill_flows(tree, sources, out);
}

/// Computes a candidate's full [`FlowState`] from scratch (used for
/// seeds, merges, and as the ground truth `grow_flows` is checked
/// against).
pub fn compute_flows(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    cand: &Candidate,
    out: &mut FlowState,
) {
    fill(scorer, query, cand.tree(), out);
}

/// The flow matrix of an answer tree under `query`, with the parent
/// positions (rooted at position 0) it was computed over.
pub(crate) fn answer_flows(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    tree: &Jtt,
) -> (Vec<u32>, FlowState) {
    let parent = tree.parent_positions();
    let mut flows = FlowState::default();
    fill(
        scorer,
        query,
        ParentTree::new(tree.nodes(), &parent),
        &mut flows,
    );
    (parent, flows)
}

/// Advances `parent`'s flow state to the grown candidate `grown`
/// (`grown = parent.grow(new_root)` — new root at position 0, every old
/// position shifted by one) through [`Scorer::grow_flows`], which copies
/// all unchanged flows and recomputes only the region the new edge
/// touches. Bit-identical to [`compute_flows`] over `grown` (asserted in
/// debug / `strict-invariants` builds).
pub fn grow_flows(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    parent: &Candidate,
    parent_flows: &FlowState,
    grown: &Candidate,
    out: &mut FlowState,
) {
    debug_assert_eq!(
        grown.size(),
        parent.size() + 1,
        "grown adds exactly one node"
    );
    let root_gen = query.matcher(grown.root()).map(|m| m.gen);
    scorer.grow_flows(grown.tree(), parent_flows, root_gen, out);
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    {
        let mut fresh = FlowState::default();
        compute_flows(scorer, query, grown, &mut fresh);
        assert_eq!(
            fresh.sources(),
            out.sources(),
            "incremental grow must keep the source rows"
        );
        let same = (0..fresh.sources().len()).all(|s| {
            let (a, b) = (fresh.row(s), out.row(s));
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        });
        assert!(
            same,
            "incremental grow diverged bitwise from the from-scratch flows"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MatcherInfo;
    use crate::query::QuerySpec;
    use ci_graph::{GraphBuilder, NodeId};
    use ci_rwmp::Dampening;
    use proptest::prelude::*;

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

    fn assert_matches_flows_from(s: &Scorer<'_>, q: &QuerySpec, cand: &Candidate) {
        let mut fs = FlowState::default();
        compute_flows(s, q, cand, &mut fs);
        let tree = cand.to_jtt();
        let mut expected_sources = Vec::new();
        for (pos, &v) in cand.nodes.iter().enumerate() {
            let Some(m) = q.matcher(v) else { continue };
            expected_sources.push(pos as u32);
            let reference = s.flows_from(&tree, pos, m.gen);
            let row_idx = expected_sources.len() - 1;
            for (i, want) in reference.iter().enumerate() {
                assert_eq!(
                    fs.value(row_idx, i).to_bits(),
                    want.to_bits(),
                    "source pos {pos}, tree pos {i}"
                );
            }
        }
        assert_eq!(fs.sources(), expected_sources.as_slice());
    }

    #[test]
    fn from_scratch_matches_flows_from_bitwise() {
        let (g, p) = graph6();
        let s = scorer(&g, &p);
        let q = query(vec![(0, 0b001, 2.0), (3, 0b010, 1.5), (5, 0b100, 0.75)]);
        // Chain 3 → 2 → 1 grown to root 0, then merged shapes via grow.
        let c = Candidate::seed(NodeId(3), 0b010)
            .grow(NodeId(2), &q)
            .grow(NodeId(1), &q)
            .grow(NodeId(0), &q);
        assert_matches_flows_from(&s, &q, &c);
        // Star-ish: root 1 with subtrees toward 2—3 and 4—5.
        let left = Candidate::seed(NodeId(3), 0b010)
            .grow(NodeId(2), &q)
            .grow(NodeId(1), &q);
        let right = Candidate::seed(NodeId(5), 0b100)
            .grow(NodeId(4), &q)
            .grow(NodeId(1), &q);
        let merged = left.merge(&right).expect("disjoint");
        assert_matches_flows_from(&s, &q, &merged);
        // Single node.
        assert_matches_flows_from(&s, &q, &Candidate::seed(NodeId(5), 0b100));
    }

    #[test]
    fn grow_is_bit_identical_to_from_scratch() {
        // `grow_flows` self-checks against `compute_flows` in debug
        // builds, so driving it through a grow chain is the test.
        let (g, p) = graph6();
        let s = scorer(&g, &p);
        let q = query(vec![(0, 0b001, 2.0), (3, 0b010, 1.5), (5, 0b100, 0.75)]);
        let mut cand = Candidate::seed(NodeId(3), 0b010);
        let mut flows = FlowState::default();
        compute_flows(&s, &q, &cand, &mut flows);
        for next in [NodeId(2), NodeId(1), NodeId(0), NodeId(5)] {
            let grown = cand.grow(next, &q);
            let mut out = FlowState::default();
            grow_flows(&s, &q, &cand, &flows, &grown, &mut out);
            assert_matches_flows_from(&s, &q, &grown);
            cand = grown;
            flows = out;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random small trees over a random weighted graph: the flow state
        /// (from scratch and grown incrementally) must match
        /// `Scorer::flows_from` bit for bit. The debug self-check inside
        /// `grow_flows` makes every grow a bitwise comparison on its own.
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
            compute_flows(&s, &q, &cand, &mut flows);
            assert_matches_flows_from(&s, &q, &cand);
            for &raw in &grow_order {
                let next = NodeId(raw as u32);
                if cand.contains(next) || s.graph().edge_weight(cand.root(), next).is_none() {
                    continue;
                }
                let grown = cand.grow(next, &q);
                let mut out = FlowState::default();
                grow_flows(&s, &q, &cand, &flows, &grown, &mut out);
                assert_matches_flows_from(&s, &q, &grown);
                cand = grown;
                flows = out;
            }
        }
    }
}
