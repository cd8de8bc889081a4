//! Property tests for the CSR graph and traversals.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_graph::{bfs_within, GraphBuilder, NodeId};
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

proptest! {
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
            let reach: std::collections::HashSet<u32> =
                bfs_within(&g, u, g.node_count() as u32)
                    .into_iter()
                    .map(|r| r.node.0)
                    .collect();
            let root = find(&mut parent, u.0 as usize);
            let comp: std::collections::HashSet<u32> = (0..case.nodes)
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
