use std::collections::HashMap;
use std::collections::VecDeque;

use crate::csr::{Graph, NodeId};

/// A node reached by a bounded traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reached {
    /// The reached node.
    pub node: NodeId,
    /// Hop distance from the source.
    pub dist: u32,
    /// The hop distance as a path cost (`dist as f64`): BFS prices every
    /// edge at 1.
    pub cost: f64,
}

/// Breadth-first search from `src` visiting every node within `max_dist`
/// hops (treating edges as undirected — the builder materializes both
/// directions, so out-neighbors are the full neighborhood).
///
/// Returns reached nodes (including `src` at distance 0) in non-decreasing
/// distance order.
pub fn bfs_within(graph: &Graph, src: NodeId, max_dist: u32) -> Vec<Reached> {
    let mut dist: HashMap<u32, u32> = HashMap::new();
    dist.insert(src.0, 0);
    let mut queue = VecDeque::new();
    queue.push_back(src);
    let mut out = vec![Reached {
        node: src,
        dist: 0,
        cost: 0.0,
    }];
    while let Some(v) = queue.pop_front() {
        let d = dist.get(&v.0).copied().unwrap_or(0);
        if d == max_dist {
            continue;
        }
        for n in graph.neighbors(v) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(n.0) {
                e.insert(d + 1);
                out.push(Reached {
                    node: n,
                    dist: d + 1,
                    cost: (d + 1) as f64,
                });
                queue.push_back(n);
            }
        }
    }
    out
}

/// Minimum path cost from `src` to every node over paths of **at most**
/// `max_hops` edges (hop-layered Bellman–Ford, `O(max_hops · |E|)`).
///
/// Both index builds compute their "minimal loss of messages" with it
/// (edge costs are `−ln d` of the entered node, so the cheapest path has
/// the highest retention). A hop-capped Dijkstra would be wrong for the
/// job: it settles each node on its *globally* cheapest path and then
/// applies the hop cap to that path, so a node whose cheapest route is
/// long gets dropped even when a short-but-expensive route exists. The
/// index needs "best cost among ≤ cap-hop paths", which is exactly this
/// DP.
///
/// Returns `(cost, hop_distance)` per reachable node; `hop_distance` is
/// the BFS shortest hop count.
pub fn hop_bounded_costs<F>(
    graph: &Graph,
    src: NodeId,
    max_hops: u32,
    edge_cost: F,
) -> HashMap<u32, (f64, u32)>
where
    F: Fn(NodeId, NodeId) -> f64,
{
    let n = graph.node_count();
    let mut cur = vec![f64::INFINITY; n];
    if let Some(slot) = cur.get_mut(src.idx()) {
        *slot = 0.0;
    }
    let mut hops: HashMap<u32, u32> = HashMap::from([(src.0, 0)]);
    for h in 1..=max_hops {
        let mut next = cur.clone();
        // Relax every edge leaving a node whose ≤(h−1)-hop cost is finite.
        for v in graph.nodes() {
            let base = cur.get(v.idx()).copied().unwrap_or(f64::INFINITY);
            if !base.is_finite() {
                continue;
            }
            for e in graph.edges(v) {
                let c = edge_cost(v, e.to);
                debug_assert!(c >= 0.0, "edge costs must be non-negative");
                if let Some(slot) = next.get_mut(e.to.idx()) {
                    if base + c < *slot {
                        *slot = base + c;
                    }
                }
                hops.entry(e.to.0).or_insert(h);
            }
        }
        cur = next;
    }
    hops.into_iter()
        .map(|(node, d)| {
            let cost = cur.get(node as usize).copied().unwrap_or(f64::INFINITY);
            (node, (cost, d))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Path graph 0 — 1 — 2 — 3 — 4.
    fn path5() -> Graph {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..5).map(|_| b.add_node(0, vec![])).collect();
        for w in nodes.windows(2) {
            b.add_pair(w[0], w[1], 1.0, 1.0);
        }
        b.build()
    }

    #[test]
    fn bfs_respects_bound() {
        let g = path5();
        let r = bfs_within(&g, NodeId(0), 2);
        let nodes: Vec<u32> = r.iter().map(|x| x.node.0).collect();
        assert_eq!(nodes, vec![0, 1, 2]);
        assert_eq!(r[2].dist, 2);
    }

    #[test]
    fn bfs_zero_bound_returns_source_only() {
        let g = path5();
        let r = bfs_within(&g, NodeId(3), 0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].node, NodeId(3));
    }

    #[test]
    fn bfs_distances_are_shortest() {
        let mut b = GraphBuilder::new();
        // Diamond: 0-1, 0-2, 1-3, 2-3 → dist(0,3) = 2.
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[0], n[2], 1.0, 1.0);
        b.add_pair(n[1], n[3], 1.0, 1.0);
        b.add_pair(n[2], n[3], 1.0, 1.0);
        let g = b.build();
        let r = bfs_within(&g, NodeId(0), 10);
        let d3 = r.iter().find(|x| x.node == NodeId(3)).unwrap().dist;
        assert_eq!(d3, 2);
    }

    #[test]
    fn hop_cap_keeps_the_short_expensive_route() {
        // 0-1-2-3 is cheap but 3 hops; 0-4-3 is 2 hops through costly 4.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node(0, vec![])).collect();
        for (x, y) in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)] {
            b.add_pair(n[x], n[y], 1.0, 1.0);
        }
        let g = b.build();
        let cost = |_: NodeId, to: NodeId| if to == NodeId(4) { 1.0 } else { 0.1 };
        let uncapped = hop_bounded_costs(&g, NodeId(0), 3, cost);
        assert!((uncapped[&3].0 - 0.3).abs() < 1e-12, "{uncapped:?}");
        assert_eq!(uncapped[&3].1, 2, "hop distance is the BFS one");
        let capped = hop_bounded_costs(&g, NodeId(0), 2, cost);
        assert!((capped[&3].0 - 1.1).abs() < 1e-12, "{capped:?}");
    }
}
