use ci_graph::{Graph, NodeId};
use ci_rwmp::Jtt;

/// Node prestige values for BANKS: normalized logarithm of the in-degree
/// (BANKS treats well-referenced tuples as prestigious).
#[derive(Debug, Clone)]
pub struct BanksPrestige {
    values: Vec<f64>,
}

impl BanksPrestige {
    /// Computes prestige for every node of the graph.
    pub fn compute(graph: &Graph) -> Self {
        // In-degree equals out-degree in our bidirectional construction;
        // counting incoming edges explicitly keeps this robust to future
        // asymmetric graphs.
        let mut indeg = vec![0u32; graph.node_count()];
        for v in graph.nodes() {
            for e in graph.edges(v) {
                if let Some(d) = indeg.get_mut(e.to.idx()) {
                    *d += 1;
                }
            }
        }
        let max = indeg.iter().copied().max().unwrap_or(0).max(1) as f64;
        let norm = (1.0 + max).ln();
        BanksPrestige {
            values: indeg
                .iter()
                .map(|&d| (1.0 + d as f64).ln() / norm)
                .collect(),
        }
    }

    /// Prestige of one node, in `[0, 1]`.
    pub fn get(&self, v: NodeId) -> f64 {
        self.values.get(v.idx()).copied().unwrap_or(0.0)
    }
}

/// The BANKS ranking function as described in §II-B.2 of the CI-Rank
/// paper: the overall tree score combines
///
/// * the node score — the average prestige of the root and the leaf
///   (keyword) nodes; intermediate free nodes are ignored, which is exactly
///   the weakness the "Bloom Wood Mortensen" example exposes;
/// * the edge score — `1 / (1 + Σ_e w_BANKS(e))`, where the BANKS edge
///   weight is the reciprocal of our connection strength (strong
///   connections are cheap to cross).
///
/// `root` picks which tree node acts as the BANKS answer root; leaves are
/// the tree's degree-≤1 nodes.
pub fn banks_score(
    graph: &Graph,
    prestige: &BanksPrestige,
    tree: &Jtt,
    root: usize,
    lambda: f64,
) -> f64 {
    assert!(root < tree.size(), "root position out of range");
    let mut node_positions: Vec<usize> = tree.leaves();
    if !node_positions.contains(&root) {
        node_positions.push(root);
    }
    let node_score: f64 = node_positions
        .iter()
        .map(|&p| prestige.get(tree.node(p)))
        .sum::<f64>()
        / node_positions.len() as f64;

    let edge_sum: f64 = tree
        .edges()
        .iter()
        .map(|&(a, b)| {
            let (u, v) = (tree.node(a), tree.node(b));
            let strength = graph
                .edge_weight(u, v)
                .into_iter()
                .chain(graph.edge_weight(v, u))
                .fold(0.0f64, f64::max);
            1.0 / strength.max(f64::MIN_POSITIVE)
        })
        .sum();
    let edge_score = 1.0 / (1.0 + edge_sum);
    edge_score * node_score.max(f64::MIN_POSITIVE).powf(lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_graph::GraphBuilder;

    /// The "Bloom Wood Mortensen" scenario: three actors joined by either
    /// of two movies; BANKS cannot tell the movies apart.
    fn costar_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let actors: Vec<NodeId> = (0..3).map(|_| b.add_node(0, vec![])).collect();
        let popular = b.add_node(1, vec![]);
        let obscure = b.add_node(1, vec![]);
        for &a in &actors {
            b.add_pair(a, popular, 1.0, 1.0);
            b.add_pair(a, obscure, 1.0, 1.0);
        }
        // Popularity: extra fans/credits pointing at the popular movie.
        for _ in 0..5 {
            let extra = b.add_node(2, vec![]);
            b.add_pair(extra, popular, 0.5, 0.5);
        }
        b.build()
    }

    #[test]
    fn banks_is_blind_to_intermediate_importance() {
        let g = costar_graph();
        let prestige = BanksPrestige::compute(&g);
        // Trees: star with movie in the middle, actors as leaves.
        let t_popular = Jtt::new(
            vec![NodeId(3), NodeId(0), NodeId(1), NodeId(2)],
            vec![(0, 1), (0, 2), (0, 3)],
        )
        .unwrap();
        let t_obscure = Jtt::new(
            vec![NodeId(4), NodeId(0), NodeId(1), NodeId(2)],
            vec![(0, 1), (0, 2), (0, 3)],
        )
        .unwrap();
        // Root at an actor leaf (BANKS roots at the connecting node — take
        // the movie as root; its prestige is NOT counted when it has
        // children, only root+leaves are, and root == movie here).
        // Score with the movie as root: prestige(root) differs, so to show
        // the §II-B.2 blindness we root at an actor as the paper's example
        // does (answer rooted at "Orlando Bloom").
        let s_pop = banks_score(&g, &prestige, &t_popular, 1, 0.2);
        let s_obs = banks_score(&g, &prestige, &t_obscure, 1, 0.2);
        assert!(
            (s_pop - s_obs).abs() < 1e-12,
            "BANKS ties the two movies: {s_pop} vs {s_obs}"
        );
    }

    #[test]
    fn prestige_grows_with_in_degree() {
        let g = costar_graph();
        let p = BanksPrestige::compute(&g);
        assert!(p.get(NodeId(3)) > p.get(NodeId(4)));
        assert!(p.get(NodeId(3)) <= 1.0);
        assert!(p.get(NodeId(0)) > 0.0);
    }

    #[test]
    fn edge_score_prefers_fewer_weaker_edges() {
        let g = costar_graph();
        let prestige = BanksPrestige::compute(&g);
        let pair = Jtt::new(vec![NodeId(0), NodeId(3)], vec![(0, 1)]).unwrap();
        let star = Jtt::new(
            vec![NodeId(3), NodeId(0), NodeId(1), NodeId(2)],
            vec![(0, 1), (0, 2), (0, 3)],
        )
        .unwrap();
        let s_pair = banks_score(&g, &prestige, &pair, 0, 0.2);
        let s_star = banks_score(&g, &prestige, &star, 0, 0.2);
        assert!(s_pair > s_star, "more edges, lower edge score");
    }
}
