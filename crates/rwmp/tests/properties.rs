//! Property tests for the RWMP model invariants.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_graph::{Graph, GraphBuilder, NodeId};
use ci_rwmp::{dampening_rate, Dampening, Jtt, Scorer};
use proptest::prelude::*;

/// Random path graph with random positive importance and edge weights.
#[derive(Debug, Clone)]
struct PathCase {
    importance: Vec<u32>,
    weights: Vec<u8>,
}

fn path_case(max_len: usize) -> impl Strategy<Value = PathCase> {
    (3..=max_len).prop_flat_map(|n| {
        (
            proptest::collection::vec(1u32..10_000, n),
            proptest::collection::vec(1u8..9, 2 * (n - 1)),
        )
            .prop_map(|(importance, weights)| PathCase {
                importance,
                weights,
            })
    })
}

fn build_path(case: &PathCase) -> (Graph, Vec<f64>) {
    let n = case.importance.len();
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| b.add_node(0, vec![])).collect();
    for i in 0..n - 1 {
        b.add_pair(
            nodes[i],
            nodes[i + 1],
            case.weights[2 * i] as f64,
            case.weights[2 * i + 1] as f64,
        );
    }
    let total: f64 = case.importance.iter().map(|&x| x as f64).sum();
    let p: Vec<f64> = case.importance.iter().map(|&x| x as f64 / total).collect();
    (b.build(), p)
}

fn path_tree(n: usize) -> Jtt {
    Jtt::new(
        (0..n as u32).map(NodeId).collect(),
        (1..n).map(|i| (i - 1, i)).collect(),
    )
    .expect("path is a tree")
}

/// Random tree case: parent choice per node plus importance and weights.
#[derive(Debug, Clone)]
struct TreeCase {
    importance: Vec<u32>,
    parents: Vec<usize>,
    weights: Vec<u8>,
    source: usize,
}

fn tree_case(max_n: usize) -> impl Strategy<Value = TreeCase> {
    (2..=max_n).prop_flat_map(|n| {
        (
            proptest::collection::vec(1u32..10_000, n),
            proptest::collection::vec(0usize..n, n),
            proptest::collection::vec(1u8..9, 2 * n),
            0..n,
        )
            .prop_map(|(importance, parents, weights, source)| TreeCase {
                importance,
                parents,
                weights,
                source,
            })
    })
}

/// Builds a random tree-shaped graph and the matching Jtt.
fn build_tree(case: &TreeCase) -> (Graph, Vec<f64>, Jtt) {
    let n = case.importance.len();
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| b.add_node(0, vec![])).collect();
    let mut edges = Vec::new();
    for i in 1..n {
        let p = case.parents[i] % i;
        b.add_pair(
            nodes[i],
            nodes[p],
            case.weights[2 * i] as f64,
            case.weights[2 * i + 1] as f64,
        );
        edges.push((p, i));
    }
    let total: f64 = case.importance.iter().map(|&x| x as f64).sum();
    let p: Vec<f64> = case.importance.iter().map(|&x| x as f64 / total).collect();
    let tree = Jtt::new(nodes, edges).expect("construction is a tree");
    (b.build(), p, tree)
}

/// Independent implementation of the message-flow formula: walk the unique
/// tree path from the source and multiply split × dampening per hop.
fn path_product_flow(
    scorer: &Scorer<'_>,
    graph: &Graph,
    tree: &Jtt,
    src: usize,
    dest: usize,
    gen: f64,
) -> f64 {
    if src == dest {
        return gen;
    }
    let path = tree.path(src, dest);
    let mut flow = gen;
    for w in path.windows(2) {
        let (m, k) = (w[0], w[1]);
        let vm = tree.node(m);
        let vk = tree.node(k);
        let denom: f64 = tree
            .adjacent(m)
            .iter()
            .filter_map(|&x| graph.edge_weight(vm, tree.node(x)))
            .sum();
        let w_mk = graph.edge_weight(vm, vk).expect("tree edge exists");
        flow *= w_mk / denom;
        flow *= scorer.dampening(vk);
    }
    flow
}

proptest! {
    /// Every source row of `tree_flows` agrees with the independent
    /// per-path product formula on arbitrary random trees (stars, chains,
    /// and everything between).
    #[test]
    fn flows_match_path_products(
        case in tree_case(9),
        gens in proptest::collection::vec(0.1f64..100.0, 9),
    ) {
        let (graph, p, tree) = build_tree(&case);
        let p_min = p.iter().cloned().fold(f64::INFINITY, f64::min);
        let scorer = Scorer::new(&graph, &p, p_min, Dampening::paper_default());
        // Every position is a source, listed from `case.source` on, so the
        // rows do not follow position order.
        let n = tree.size();
        let sources: Vec<(usize, f64)> =
            (0..n).map(|i| ((case.source + i) % n, gens[i])).collect();
        let flows = scorer.tree_flows(&tree, sources.iter().copied());
        prop_assert_eq!(flows.sources().len(), n);
        for (row, &(src, gen)) in sources.iter().enumerate() {
            prop_assert_eq!(flows.sources()[row] as usize, src);
            for (dest, &flow) in flows.row(row).iter().enumerate() {
                let expected = path_product_flow(&scorer, &graph, &tree, src, dest, gen);
                prop_assert!(
                    (flow - expected).abs() <= 1e-9 * expected.max(1.0),
                    "row {row}: flow[{dest}] = {flow} vs path product {expected}"
                );
            }
        }
    }

    /// Dampening stays in (0, 1) and increases with importance.
    #[test]
    fn dampening_bounded_and_monotone(
        alpha in 0.01f64..0.9,
        g in 1.5f64..64.0,
        ratios in proptest::collection::vec(1.0f64..1e8, 2..20),
    ) {
        let p_min = 1e-9;
        let mut sorted = ratios.clone();
        sorted.sort_by(f64::total_cmp);
        let kind = Dampening::Logarithmic { alpha, g };
        let mut last = 0.0;
        for r in sorted {
            let d = dampening_rate(kind, p_min * r, p_min);
            prop_assert!(d > 0.0 && d < 1.0, "d = {d}");
            prop_assert!(d >= last - 1e-12, "not monotone: {d} < {last}");
            last = d;
        }
    }

    /// Flows are non-negative, bounded by the generation count, and
    /// monotonically non-increasing along the path away from the source.
    #[test]
    fn flows_decay_along_paths(case in path_case(8), gen in 0.1f64..1000.0) {
        let (graph, p) = build_path(&case);
        let p_min = p.iter().cloned().fold(f64::INFINITY, f64::min);
        let scorer = Scorer::new(&graph, &p, p_min, Dampening::paper_default());
        let tree = path_tree(case.importance.len());
        let flows = scorer.tree_flows(&tree, [(0, gen)]);
        let flows = flows.row(0);
        prop_assert_eq!(flows[0], gen);
        for i in 1..flows.len() {
            prop_assert!(flows[i] >= 0.0);
            prop_assert!(
                flows[i] <= flows[i - 1] + 1e-12,
                "flow grew along the path: {} -> {}",
                flows[i - 1],
                flows[i]
            );
        }
        // Strict decay somewhere (dampening < 1).
        prop_assert!(flows[flows.len() - 1] < gen);
    }

    /// Extending a path tree strictly lowers the two-endpoint score:
    /// Table I property 2 (smaller trees preferred), generalized.
    #[test]
    fn longer_chains_score_lower(case in path_case(8)) {
        let (graph, p) = build_path(&case);
        let n = case.importance.len();
        let p_min = p.iter().cloned().fold(f64::INFINITY, f64::min);
        let scorer = Scorer::new(&graph, &p, p_min, Dampening::paper_default());
        // Eq. 4 score with one-keyword, two-word matchers at `a` and `b`.
        let score = |tree: &Jtt, a: usize, b: usize| {
            let sources = [a, b].map(|pos| (pos, scorer.generation(tree.node(pos), 1, 2)));
            scorer.tree_flows(tree, sources).reduce(None).unwrap()
        };
        // Score of the prefix subchain [0..m] vs the full chain, matching
        // endpoints 0 and m (resp. 0 and n-1). The prefix tree positions
        // coincide with the full tree's.
        let full = path_tree(n);
        let m = n - 1;
        let prefix = Jtt::new(
            (0..m as u32).map(NodeId).collect(),
            (1..m).map(|i| (i - 1, i)).collect(),
        )
        .unwrap();
        let s_prefix = score(&prefix, 0, m - 1);
        // In the full tree, matching the same endpoint m-1 yields the same
        // flows *except* node m-2's split now also leaks toward node m-1's
        // subtree... the last interior node gains a neighbor, so:
        let s_same_span = score(&full, 0, m - 1);
        prop_assert!(
            s_same_span <= s_prefix + 1e-12,
            "extra hanging node must not raise the score: {s_same_span} vs {s_prefix}"
        );
    }

    /// The tree score equals the mean of node scores (Eq. 4) and never
    /// exceeds the largest generation count involved.
    #[test]
    fn score_is_mean_and_bounded(case in path_case(7)) {
        let (graph, p) = build_path(&case);
        let n = case.importance.len();
        let p_min = p.iter().cloned().fold(f64::INFINITY, f64::min);
        let scorer = Scorer::new(&graph, &p, p_min, Dampening::paper_default());
        let tree = path_tree(n);
        let sources = [
            (0, scorer.generation(tree.node(0), 1, 3)),
            (n - 1, scorer.generation(tree.node(n - 1), 2, 4)),
        ];
        let mut node_scores = Vec::new();
        let score = scorer
            .tree_flows(&tree, sources)
            .reduce(Some(&mut node_scores))
            .unwrap();
        let mean: f64 = node_scores.iter().map(|&(s, _)| s).sum::<f64>() / node_scores.len() as f64;
        prop_assert!((score - mean).abs() < 1e-12);
        let max_gen = sources.iter().map(|&(_, g)| g).fold(0.0f64, f64::max);
        prop_assert!(score <= max_gen + 1e-12);
        for &(s, _) in &node_scores {
            prop_assert!(s >= 0.0);
        }
    }
}
