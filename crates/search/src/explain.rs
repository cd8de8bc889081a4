//! Score explanation: the full decomposition of one answer's CI-Rank
//! score (`ci-obs`).
//!
//! [`explain_answer`] keeps every intermediate the scoring discards: the
//! per-source message generation counts (§III-C.1), the flow each source
//! delivers to every tree node (Eq. 2 dampening applied hop by hop), which
//! source's message type was the Eq. 3 per-node minimum, and the Eq. 4
//! mean. It does not replay the arithmetic: it runs the same flow kernel
//! as [`crate::score_answer`] and the search bounds ([`Scorer::tree_flows`],
//! over the tree rooted at position 0) and asks the kernel's Eq. 3–4
//! reducer to record each node's minimum and its arg-min source. The
//! reported `score` is therefore bit-identical to [`crate::score_answer`]
//! by construction.
//!
//! The rendered form (the `ci-rank explain` CLI subcommand) and a worked
//! example live in `docs/observability.md`.

use ci_graph::NodeId;
use ci_rwmp::{Jtt, Scorer};

use crate::query::QuerySpec;

/// One tree node of an explained answer, with the flow it receives from
/// every message source.
#[derive(Debug, Clone)]
pub struct ExplainedNode {
    /// Tree position (position of [`ExplainedNode::node`] in the JTT).
    pub pos: usize,
    /// The graph node at this position.
    pub node: NodeId,
    /// Tree position of this node's parent under the explanation's
    /// rooting (position 0 is the root; `parent == pos` only for the
    /// root).
    pub parent: usize,
    /// Dampening rate `d_i` (Eq. 2) applied to every message passing
    /// through this node.
    pub dampening: f64,
    /// Node importance `p_i` (the random-walk stationary probability).
    pub importance: f64,
    /// Query keywords matched by this node (bit `k` ⇔ keyword `k`);
    /// `0` for a free connector node.
    pub mask: u32,
    /// Message flow arriving at this node from each source, indexed like
    /// [`ScoreExplanation::sources`]. Entry `s` is `f_{s,pos}` — the
    /// source's generation count diluted by weight splits and dampened at
    /// every hop of the path (Eq. 2). The source's own entry holds its
    /// full generation count.
    pub incoming: Vec<f64>,
}

/// One message source (matcher node) of an explained answer, with its
/// Eq. 3 node score and the source that produced its minimum.
#[derive(Debug, Clone)]
pub struct ExplainedSource {
    /// Tree position of the source.
    pub pos: usize,
    /// The matcher graph node.
    pub node: NodeId,
    /// Query keywords this source matches.
    pub mask: u32,
    /// Message generation count `r_ii = t · p_i · |v_i ∩ Q| / |v_i|`
    /// (§III-C.1).
    pub generation: f64,
    /// Eq. 3 node score: the minimum over the *other* sources of the flow
    /// they deliver to this node. For a single-matcher tree (where Eq. 3
    /// has no incoming messages) this is the generation count — the
    /// documented single-node convention.
    pub node_score: f64,
    /// Index (into [`ScoreExplanation::sources`]) of the source whose
    /// message type was the Eq. 3 minimum — the least-populous message
    /// type at this node. `None` for a single-matcher tree.
    pub min_source: Option<usize>,
}

/// Full decomposition of one answer's score. Produced by
/// [`explain_answer`]; rendered by the `ci-rank explain` subcommand.
#[derive(Debug, Clone)]
pub struct ScoreExplanation {
    /// Every tree node with its per-source incoming flows, in tree
    /// position order.
    pub nodes: Vec<ExplainedNode>,
    /// Every message source with its Eq. 3 score, in tree position order
    /// (the binding order of the scorer).
    pub sources: Vec<ExplainedSource>,
    /// The Eq. 4 tree score: the mean of the source node scores.
    /// Bit-identical to [`crate::score_answer`] on the same tree.
    pub score: f64,
}

impl ScoreExplanation {
    /// The explained source sitting at tree position `pos`, if any.
    pub fn source_at(&self, pos: usize) -> Option<&ExplainedSource> {
        self.sources.iter().find(|s| s.pos == pos)
    }
}

/// Decomposes the score of `tree` under `query`. Returns `None` when the
/// tree holds no matcher node (it is not an answer to the query — same
/// contract as [`crate::score_answer`]).
pub fn explain_answer(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    tree: &Jtt,
) -> Option<ScoreExplanation> {
    let flows = scorer.tree_flows(tree, query.flow_sources(tree.nodes()));
    let parent = tree.parent_positions();
    let mut per_source = Vec::new();
    let score = flows.reduce(Some(&mut per_source))?;
    let sources = flows
        .sources()
        .iter()
        .zip(per_source)
        .filter_map(|(&pos, (node_score, min_source))| {
            let pos = pos as usize;
            let m = query.matcher(tree.node(pos))?;
            Some(ExplainedSource {
                pos,
                node: m.node,
                mask: m.mask,
                generation: m.gen,
                node_score,
                min_source,
            })
        })
        .collect();
    let nodes = (0..tree.size())
        .map(|pos| {
            let node = tree.node(pos);
            ExplainedNode {
                pos,
                node,
                parent: parent.get(pos).map_or(pos, |&p| p as usize),
                dampening: scorer.dampening(node),
                importance: scorer.importance(node),
                mask: query.mask_of(node),
                incoming: (0..flows.sources().len())
                    .map(|s| flows.value(s, pos))
                    .collect(),
            }
        })
        .collect();
    Some(ScoreExplanation {
        nodes,
        sources,
        score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::score_answer;
    use crate::bnb::bnb_search;
    use crate::SearchOptions;
    use ci_graph::GraphBuilder;
    use ci_index::NoIndex;
    use ci_rwmp::Dampening;

    /// The coauthor scenario of `bnb.rs`: two authors joined by two
    /// connector papers of different importance.
    fn setup() -> (ci_graph::Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
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
    fn explanation_score_is_bit_identical_to_scoring() {
        let (g, p) = setup();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert!(!answers.is_empty());
        for a in &answers {
            let ex = explain_answer(&scorer, &q, &a.tree).expect("answers have matchers");
            assert_eq!(
                ex.score.to_bits(),
                a.score.to_bits(),
                "explanation must replay the exact score"
            );
            let rescore = score_answer(&scorer, &q, &a.tree).unwrap();
            assert_eq!(ex.score.to_bits(), rescore.to_bits());
        }
    }

    #[test]
    fn min_source_identifies_the_eq3_minimum() {
        // Star: destination matcher at the center, two sources of very
        // different importance — the weak source must be the argmin.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[1], n[0], 1.0, 1.0);
        b.add_pair(n[2], n[0], 1.0, 1.0);
        let g = b.build();
        let p = vec![0.1, 0.8, 0.1];
        let scorer = Scorer::new(&g, &p, 0.1, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into(), "c".into()],
            vec![(n[0], 0b001, 1), (n[1], 0b010, 1), (n[2], 0b100, 1)],
        );
        let tree = Jtt::new(vec![n[0], n[1], n[2]], vec![(0, 1), (0, 2)]).unwrap();
        let ex = explain_answer(&scorer, &q, &tree).unwrap();
        assert_eq!(ex.sources.len(), 3);
        // Center (pos 0): its minimum comes from the weak source at n2
        // (source index 2), whose generation is the smallest flow.
        let center = ex.source_at(0).unwrap();
        assert_eq!(center.min_source, Some(2));
        // Its node score equals the flow source 2 delivers to position 0.
        let weak_flow = ex.nodes[0].incoming[2];
        assert_eq!(center.node_score.to_bits(), weak_flow.to_bits());
        // Free-node bookkeeping: every node reports its dampening and the
        // full incoming row.
        for node in &ex.nodes {
            assert_eq!(node.incoming.len(), ex.sources.len());
            assert!(node.dampening > 0.0 && node.dampening <= 1.0);
        }
    }

    #[test]
    fn single_matcher_tree_scores_by_generation() {
        let (g, p) = setup();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(3), 0b11, 3)],
        );
        let tree = Jtt::singleton(NodeId(3));
        let ex = explain_answer(&scorer, &q, &tree).unwrap();
        assert_eq!(ex.sources.len(), 1);
        assert_eq!(ex.sources[0].min_source, None);
        assert_eq!(ex.score.to_bits(), ex.sources[0].generation.to_bits());
        let rescore = score_answer(&scorer, &q, &tree).unwrap();
        assert_eq!(ex.score.to_bits(), rescore.to_bits());
    }

    #[test]
    fn matcherless_tree_is_not_explained() {
        let (g, p) = setup();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let tree = Jtt::singleton(NodeId(1)); // free connector node
        assert!(explain_answer(&scorer, &q, &tree).is_none());
    }

    #[test]
    fn parents_follow_the_position_zero_rooting() {
        let (g, p) = setup();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let tree = Jtt::new(vec![NodeId(0), NodeId(3), NodeId(2)], vec![(0, 1), (1, 2)]).unwrap();
        let ex = explain_answer(&scorer, &q, &tree).unwrap();
        let parents: Vec<usize> = ex.nodes.iter().map(|n| n.parent).collect();
        assert_eq!(parents, vec![0, 0, 1]);
    }
}
