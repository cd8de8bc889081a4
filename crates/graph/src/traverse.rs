use std::collections::VecDeque;

use crate::csr::{Graph, NodeId};

/// A node reached by a bounded traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reached {
    /// The reached node.
    pub node: NodeId,
    /// Hop distance from the source.
    pub dist: u32,
    /// The path cost: `dist as f64` from [`bfs_within`], which prices
    /// every edge at 1; the cheapest cost over paths of at most the hop
    /// cap from [`hop_bounded_costs`].
    pub cost: f64,
}

/// Breadth-first search from `src` visiting every node within `max_dist`
/// hops (treating edges as undirected — the builder materializes both
/// directions, so out-neighbors are the full neighborhood).
///
/// Returns reached nodes (including `src` at distance 0) in non-decreasing
/// distance order.
pub fn bfs_within(graph: &Graph, src: NodeId, max_dist: u32) -> Vec<Reached> {
    let mut seen = vec![false; graph.node_count()];
    let Some(s) = seen.get_mut(src.idx()) else {
        return Vec::new();
    };
    *s = true;
    let mut queue = VecDeque::from([(src, 0)]);
    let mut out = vec![Reached {
        node: src,
        dist: 0,
        cost: 0.0,
    }];
    while let Some((v, d)) = queue.pop_front() {
        if d == max_dist {
            continue;
        }
        for n in graph.neighbors(v) {
            if let Some(s @ false) = seen.get_mut(n.idx()) {
                *s = true;
                out.push(Reached {
                    node: n,
                    dist: d + 1,
                    cost: f64::from(d + 1),
                });
                queue.push_back((n, d + 1));
            }
        }
    }
    out
}

/// One node's state in [`HopScratch`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Cheapest cost found so far (`INFINITY`: no path yet).
    cost: f64,
    /// BFS hop count (`u32::MAX`: not reached).
    hops: u32,
    /// The cost fell in the current layer; the node is on the next frontier.
    fell: bool,
}

const UNREACHED: Slot = Slot {
    cost: f64::INFINITY,
    hops: u32::MAX,
    fell: false,
};

/// The reusable working memory of [`hop_bounded_costs`]: dense per-node
/// costs, hop counts and "cost fell" flags. One scratch serves any number
/// of sources; each call resets only the nodes the previous one reached.
#[derive(Debug, Default)]
pub struct HopScratch {
    slots: Vec<Slot>,
    /// Nodes the current source has reached.
    reached: Vec<u32>,
    /// The frontier of the current layer, with its costs from the layer
    /// before (a node's cost may fall again while the layer relaxes).
    frontier: Vec<(NodeId, f64)>,
    /// Nodes whose cost fell in the current layer.
    fell: Vec<u32>,
    out: Vec<Reached>,
}

/// Minimum path cost from `src` to every node over paths of **at most**
/// `max_hops` edges (hop-layered Bellman–Ford), where entering node `v`
/// costs `node_cost[v]` (entries past the slice's end cost 0).
///
/// Both index builds compute their "minimal loss of messages" with it
/// (node costs are `−ln d`, so the cheapest path has the highest
/// retention). A hop-capped Dijkstra would be wrong for the job: it
/// settles each node on its *globally* cheapest path and then applies the
/// hop cap to that path, so a node whose cheapest route is long gets
/// dropped even when a short-but-expensive route exists. The index needs
/// "best cost among ≤ cap-hop paths", which is exactly this DP.
///
/// Layer `h` relaxes only the out-edges of the nodes whose cost strictly
/// fell in layer `h − 1`: a node whose cost stayed put offers exactly the
/// candidates the layer before already applied. The costs and hop counts
/// are therefore those of relaxing every reached node's edges in every
/// layer, bit for bit, at `O(Σ_h |E(frontier_h)|)` instead of
/// `O(max_hops · |E|)`.
///
/// Returns every reached node, `src` included, in ascending id order;
/// `dist` is the BFS shortest hop count and `cost` the cheapest cost over
/// paths of at most `max_hops` edges (`INFINITY` when every such path
/// enters an infinite-cost node). The slice borrows `scratch` until the
/// next call.
pub fn hop_bounded_costs<'s>(
    graph: &Graph,
    src: NodeId,
    max_hops: u32,
    node_cost: &[f64],
    scratch: &'s mut HopScratch,
) -> &'s [Reached] {
    let HopScratch {
        slots,
        reached,
        frontier,
        fell,
        out,
    } = scratch;
    if slots.len() == graph.node_count() {
        for &v in reached.iter() {
            if let Some(slot) = slots.get_mut(v as usize) {
                *slot = UNREACHED;
            }
        }
    } else {
        slots.clear();
        slots.resize(graph.node_count(), UNREACHED);
    }
    reached.clear();
    frontier.clear();
    out.clear();
    let Some(slot) = slots.get_mut(src.idx()) else {
        return out;
    };
    slot.cost = 0.0;
    slot.hops = 0;
    reached.push(src.0);
    frontier.push((src, 0.0));
    for h in 1..=max_hops {
        if frontier.is_empty() {
            break;
        }
        for &(v, base) in frontier.iter() {
            for to in graph.neighbors(v) {
                let Some(slot) = slots.get_mut(to.idx()) else {
                    continue;
                };
                if slot.hops == u32::MAX {
                    slot.hops = h;
                    reached.push(to.0);
                }
                let c = node_cost.get(to.idx()).copied().unwrap_or(0.0);
                debug_assert!(c >= 0.0, "node costs must be non-negative");
                if base + c < slot.cost {
                    slot.cost = base + c;
                    if !slot.fell {
                        slot.fell = true;
                        fell.push(to.0);
                    }
                }
            }
        }
        frontier.clear();
        for v in fell.drain(..) {
            if let Some(slot) = slots.get_mut(v as usize) {
                slot.fell = false;
                frontier.push((NodeId(v), slot.cost));
            }
        }
    }
    reached.sort_unstable();
    out.extend(reached.iter().filter_map(|&v| {
        let slot = slots.get(v as usize)?;
        Some(Reached {
            node: NodeId(v),
            dist: slot.hops,
            cost: slot.cost,
        })
    }));
    out
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
        let cost = [0.1, 0.1, 0.1, 0.1, 1.0];
        let mut scratch = HopScratch::default();
        let uncapped = hop_bounded_costs(&g, NodeId(0), 3, &cost, &mut scratch)[3];
        assert!((uncapped.cost - 0.3).abs() < 1e-12, "{uncapped:?}");
        assert_eq!(uncapped.dist, 2, "hop distance is the BFS one");
        let capped = hop_bounded_costs(&g, NodeId(0), 2, &cost, &mut scratch)[3];
        assert!((capped.cost - 1.1).abs() < 1e-12, "{capped:?}");
    }

    #[test]
    fn scratch_reuse_forgets_the_previous_source() {
        let g = path5();
        let cost = [0.5; 5];
        let mut scratch = HopScratch::default();
        let from_end = hop_bounded_costs(&g, NodeId(4), 4, &cost, &mut scratch).to_vec();
        let from_start = hop_bounded_costs(&g, NodeId(0), 1, &cost, &mut scratch).to_vec();
        let nodes: Vec<u32> = from_start.iter().map(|r| r.node.0).collect();
        assert_eq!(nodes, vec![0, 1], "ascending ids, nothing left over");
        assert_eq!(from_start[1].dist, 1);
        assert_eq!(from_end[0].dist, 4);
        assert!((from_end[0].cost - 2.0).abs() < 1e-12);
        let fresh = hop_bounded_costs(&g, NodeId(4), 4, &cost, &mut HopScratch::default()).to_vec();
        assert_eq!(from_end, fresh);
    }
}
