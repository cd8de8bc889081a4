//! Property tests for the CSR graph and traversals.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_graph::{bfs_within, hop_bounded_costs, Graph, GraphBuilder, HopScratch, NodeId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct EdgeCase {
    nodes: usize,
    edges: Vec<(usize, usize, u8, u8)>,
}

fn edge_case() -> impl Strategy<Value = EdgeCase> {
    (2usize..20).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 1u8..10, 1u8..10), 0..3 * n)
            .prop_map(move |edges| EdgeCase { nodes: n, edges })
    })
}

fn build(case: &EdgeCase) -> ci_graph::Graph {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..case.nodes)
        .map(|i| b.add_node((i % 3) as u16, vec![]))
        .collect();
    for &(x, y, wf, wb) in &case.edges {
        if x == y {
            continue;
        }
        b.add_pair(nodes[x], nodes[y], wf as f64, wb as f64);
    }
    b.build()
}

/// A graph for the hop-bounded DP: one-way edges in either direction and
/// two-way pairs, isolated nodes, and per-node entry costs `−ln d` where
/// `d` may be 1 (a zero-cost node) or 0 (an infinite-cost one).
#[derive(Debug, Clone)]
struct CostCase {
    nodes: usize,
    /// `(x, y, kind)`: kind 0 is `x → y`, 1 is `y → x`, 2 is both.
    edges: Vec<(usize, usize, u8)>,
    /// Dampening codes: 0 is `d = 1`, 1 is `d = 0`, `c` is `d = c / 12`.
    damp: Vec<u8>,
    cap: u32,
}

fn cost_case() -> impl Strategy<Value = CostCase> {
    (1usize..16, 0u32..6).prop_flat_map(|(n, cap)| {
        (
            proptest::collection::vec((0..n, 0..n, 0u8..3), 0..2 * n),
            proptest::collection::vec(0u8..12, n),
        )
            .prop_map(move |(edges, damp)| CostCase {
                nodes: n,
                edges,
                damp,
                cap,
            })
    })
}

fn build_costs(case: &CostCase) -> (Graph, Vec<f64>) {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..case.nodes).map(|_| b.add_node(0, vec![])).collect();
    for &(x, y, kind) in &case.edges {
        if x == y {
            continue;
        }
        match kind {
            0 => b.add_edge(nodes[x], nodes[y], 1.0),
            1 => b.add_edge(nodes[y], nodes[x], 1.0),
            _ => b.add_pair(nodes[x], nodes[y], 1.0, 1.0),
        }
    }
    let damp = case.damp.iter().map(|&c| match c {
        0 => 1.0,
        1 => 0.0,
        c => f64::from(c) / 12.0,
    });
    (b.build(), damp.map(|d: f64| -d.ln()).collect())
}

/// The all-edges layered DP: every layer relaxes every edge out of every
/// node whose cost is finite, and a node's hop count is the first layer
/// that offers it a path. Returns `(node, cost bits, hops)` per reached
/// node in ascending id order.
fn reference_costs(
    g: &Graph,
    src: NodeId,
    max_hops: u32,
    node_cost: &[f64],
) -> Vec<(u32, u64, u32)> {
    let mut cur = vec![f64::INFINITY; g.node_count()];
    let mut hops = vec![u32::MAX; g.node_count()];
    cur[src.idx()] = 0.0;
    hops[src.idx()] = 0;
    for h in 1..=max_hops {
        let mut next = cur.clone();
        for v in g.nodes() {
            let base = cur[v.idx()];
            if !base.is_finite() {
                continue;
            }
            for e in g.edges(v) {
                let c = node_cost[e.to.idx()];
                if base + c < next[e.to.idx()] {
                    next[e.to.idx()] = base + c;
                }
                if hops[e.to.idx()] == u32::MAX {
                    hops[e.to.idx()] = h;
                }
            }
        }
        cur = next;
    }
    g.nodes()
        .filter(|v| hops[v.idx()] != u32::MAX)
        .map(|v| (v.0, cur[v.idx()].to_bits(), hops[v.idx()]))
        .collect()
}

proptest! {
    /// The frontier DP (relaxing only out of nodes whose cost fell in the
    /// layer before) returns the all-edges DP's costs bit for bit and its
    /// hop counts, from every source, with one scratch reused throughout.
    #[test]
    fn frontier_dp_matches_the_all_edges_dp(case in cost_case()) {
        let (g, node_cost) = build_costs(&case);
        let mut scratch = HopScratch::default();
        for u in g.nodes() {
            let got: Vec<(u32, u64, u32)> =
                hop_bounded_costs(&g, u, case.cap, &node_cost, &mut scratch)
                    .iter()
                    .map(|r| (r.node.0, r.cost.to_bits(), r.dist))
                    .collect();
            prop_assert_eq!(got, reference_costs(&g, u, case.cap, &node_cost));
        }
    }

    /// Normalized out-weights sum to 1 for every non-dangling node, and
    /// adjacency is sorted and deduplicated.
    #[test]
    fn normalization_and_sorted_adjacency(case in edge_case()) {
        let g = build(&case);
        for v in g.nodes() {
            let edges: Vec<_> = g.edges(v).collect();
            if !edges.is_empty() {
                let sum: f64 = edges.iter().map(|e| e.norm_weight).sum();
                prop_assert!((sum - 1.0).abs() < 1e-9, "node {v}: {sum}");
            }
            for w in edges.windows(2) {
                prop_assert!(w[0].to < w[1].to, "unsorted or duplicate adjacency");
            }
        }
    }

    /// Symmetric reachability: BFS treats the pair-constructed graph as
    /// undirected, so distances are symmetric.
    #[test]
    fn bfs_distances_symmetric(case in edge_case()) {
        let g = build(&case);
        if g.node_count() == 0 {
            return Ok(());
        }
        let cap = g.node_count() as u32;
        for u in g.nodes().take(5) {
            for r in bfs_within(&g, u, cap) {
                let back = bfs_within(&g, r.node, cap)
                    .into_iter()
                    .find(|x| x.node == u)
                    .expect("reachability is symmetric");
                prop_assert_eq!(back.dist, r.dist);
            }
        }
    }

    /// BFS from any node reaches exactly its connected component, found
    /// independently by union-find over the case's edges.
    #[test]
    fn bfs_reaches_exactly_the_component(case in edge_case()) {
        let g = build(&case);
        let mut parent: Vec<usize> = (0..case.nodes).collect();
        fn find(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        for &(x, y, _, _) in &case.edges {
            let (rx, ry) = (find(&mut parent, x), find(&mut parent, y));
            parent[rx] = ry;
        }
        for u in g.nodes().take(5) {
            let mut reach: Vec<u32> = bfs_within(&g, u, g.node_count() as u32)
                .into_iter()
                .map(|r| r.node.0)
                .collect();
            reach.sort_unstable();
            let root = find(&mut parent, u.0 as usize);
            let comp: Vec<u32> = (0..case.nodes)
                .filter(|&v| find(&mut parent, v) == root)
                .map(|v| v as u32)
                .collect();
            prop_assert_eq!(reach, comp);
        }
    }

    /// Edge lookup agrees with edge iteration.
    #[test]
    fn edge_lookup_consistent(case in edge_case()) {
        let g = build(&case);
        for u in g.nodes() {
            for e in g.edges(u) {
                prop_assert_eq!(g.edge_weight(u, e.to), Some(e.weight));
                prop_assert!(g.has_edge(u, e.to));
            }
        }
    }
}
