use crate::scorer::Scorer;
use crate::tree::Jtt;

/// The alternative scoring functions the paper considers and rejects in
/// §III-B, kept for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlternativeScore {
    /// Mean importance of the non-free nodes. Ignores cohesiveness: two
    /// important but barely connected matchers outrank a tight pair.
    AvgNonFreeImportance,
    /// Mean importance of *all* nodes. Suffers the free-node-domination
    /// problem (the "Tom Hanks" example of Fig. 4).
    AvgAllImportance,
    /// Mean importance of all nodes divided by tree size. Still blind to
    /// structure (star vs chain with identical node sets score the same).
    AvgImportancePerSize,
}

/// Evaluates one of the §III-B alternatives on a tree whose non-free
/// nodes sit at `matchers` (tree positions; at least one).
pub fn score_alternative(
    kind: AlternativeScore,
    scorer: &Scorer<'_>,
    tree: &Jtt,
    matchers: &[usize],
) -> f64 {
    assert!(
        !matchers.is_empty(),
        "a JTT needs at least one non-free node"
    );
    match kind {
        AlternativeScore::AvgNonFreeImportance => {
            let sum: f64 = matchers
                .iter()
                .map(|&pos| scorer.importance(tree.node(pos)))
                .sum();
            sum / matchers.len() as f64
        }
        AlternativeScore::AvgAllImportance => {
            let sum: f64 = tree.nodes().iter().map(|&v| scorer.importance(v)).sum();
            sum / tree.size() as f64
        }
        AlternativeScore::AvgImportancePerSize => {
            let sum: f64 = tree.nodes().iter().map(|&v| scorer.importance(v)).sum();
            sum / (tree.size() as f64 * tree.size() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dampening;
    use ci_graph::{GraphBuilder, NodeId};

    /// The Fig. 4 scenario: a single matching actor node T1 versus an
    /// irrelevant 4-node tree T2 whose free connector ("Tom Hanks") is
    /// enormously important.
    fn fig4() -> (ci_graph::Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        // 0 = "Wilson Cruz" (matches both keywords)
        // 1 = "Charlie Wilson's War" (matches "wilson")
        // 2 = "Tom Hanks" (free, very important)
        // 3 = "America: A Tribute to Heroes" (free)
        // 4 = "Penelope Cruz" (matches "cruz")
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[1], n[2], 1.0, 1.0);
        b.add_pair(n[2], n[3], 1.0, 1.0);
        b.add_pair(n[3], n[4], 1.0, 1.0);
        b.add_pair(n[0], n[1], 1.0, 1.0); // keep the graph connected
        let g = b.build();
        let p = vec![0.05, 0.1, 0.6, 0.1, 0.15];
        (g, p)
    }

    /// RWMP (Eq. 4) score of `tree` with sources at `(pos, match_count,
    /// word_count)`.
    fn rwmp(s: &Scorer<'_>, tree: &Jtt, sources: &[(usize, u32, u32)]) -> f64 {
        let gens = sources
            .iter()
            .map(|&(pos, m, w)| (pos, s.generation(tree.node(pos), m, w)));
        s.tree_flows(tree, gens).reduce(None).unwrap()
    }

    #[test]
    fn avg_all_importance_suffers_free_node_domination() {
        let (g, p) = fig4();
        let s = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let t1 = Jtt::singleton(NodeId(0));
        let t2 = Jtt::new(
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
            vec![(0, 1), (1, 2), (2, 3)],
        )
        .unwrap();
        let alt1 = score_alternative(AlternativeScore::AvgAllImportance, &s, &t1, &[0]);
        let alt2 = score_alternative(AlternativeScore::AvgAllImportance, &s, &t2, &[0, 3]);
        // The flawed alternative ranks the irrelevant tree higher...
        assert!(alt2 > alt1, "free-node domination: {alt2} vs {alt1}");
        // ...while RWMP ranks the single relevant node higher.
        let rwmp1 = rwmp(&s, &t1, &[(0, 2, 2)]);
        let rwmp2 = rwmp(&s, &t2, &[(0, 1, 4), (3, 1, 2)]);
        assert!(rwmp1 > rwmp2, "RWMP avoids domination: {rwmp1} vs {rwmp2}");
    }

    #[test]
    fn avg_non_free_ignores_cohesiveness() {
        let (g, p) = fig4();
        let s = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        // Long chain 1—2—3—4 vs short pair 0—1: the alternative only looks
        // at endpoint importance, so the loosely connected pair wins.
        let long = Jtt::new(
            vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)],
            vec![(0, 1), (1, 2), (2, 3)],
        )
        .unwrap();
        let short = Jtt::new(vec![NodeId(0), NodeId(1)], vec![(0, 1)]).unwrap();
        let alt_long =
            score_alternative(AlternativeScore::AvgNonFreeImportance, &s, &long, &[0, 3]);
        let alt_short =
            score_alternative(AlternativeScore::AvgNonFreeImportance, &s, &short, &[0, 1]);
        // Endpoint averages: (0.1 + 0.15)/2 vs (0.05 + 0.1)/2.
        assert!(alt_long > alt_short);
        // RWMP penalizes the long, heavily dampened connection.
        let r_long = rwmp(&s, &long, &[(0, 1, 4), (3, 1, 2)]);
        let r_short = rwmp(&s, &short, &[(0, 1, 2), (1, 1, 4)]);
        assert!(r_short > r_long);
    }

    #[test]
    fn per_size_equal_for_star_and_chain() {
        // Star and chain over importance-identical node sets score the same
        // under avg/size — the structural blindness of §III-B.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..9).map(|_| b.add_node(0, vec![])).collect();
        // Star: 0 center, leaves 1-4. Chain: 5-6-7-8 ... need 5 nodes; use
        // nodes 4..8 as chain with center 6.
        for i in 1..=4 {
            b.add_pair(n[0], n[i], 1.0, 1.0);
        }
        for w in [5, 6, 7, 8].windows(2) {
            b.add_pair(n[w[0]], n[w[1]], 1.0, 1.0);
        }
        b.add_pair(n[0], n[5], 1.0, 1.0); // connect components
        let g = b.build();
        let p = vec![0.1, 0.2, 0.2, 0.2, 0.2, 0.2, 0.1, 0.2, 0.2];
        let s = Scorer::new(&g, &p, 0.1, Dampening::paper_default());
        let star = Jtt::new(
            vec![n[0], n[1], n[2], n[3], n[4]],
            vec![(0, 1), (0, 2), (0, 3), (0, 4)],
        )
        .unwrap();
        let chain = Jtt::new(
            vec![n[5], n[6], n[7], n[8], n[4]],
            vec![(0, 1), (1, 2), (2, 3), (0, 4)],
        )
        .unwrap();
        let a = score_alternative(
            AlternativeScore::AvgImportancePerSize,
            &s,
            &star,
            &[1, 2, 3, 4],
        );
        let c = score_alternative(
            AlternativeScore::AvgImportancePerSize,
            &s,
            &chain,
            &[0, 2, 3, 4],
        );
        assert!(
            (a - c).abs() < 1e-12,
            "alternative cannot tell star from chain"
        );
    }
}
