use std::collections::{HashMap, VecDeque};
use std::fmt;

use ci_graph::NodeId;

/// Errors raised when assembling a joined tuple tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// An edge referenced a position outside the node list.
    EdgeOutOfRange { edge: (usize, usize), nodes: usize },
    /// The edge set does not form a tree (wrong count, cycle, or
    /// disconnected).
    NotATree,
    /// The node list contains a duplicate graph node.
    DuplicateNode(NodeId),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::EdgeOutOfRange { edge, nodes } => write!(
                f,
                "edge ({}, {}) out of range for {nodes} nodes",
                edge.0, edge.1
            ),
            TreeError::NotATree => write!(f, "edge set does not form a tree"),
            TreeError::DuplicateNode(n) => write!(f, "node {n} appears twice"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Canonical identity of a JTT: its sorted node set plus its sorted,
/// orientation-normalized edge list (see [`Jtt::canonical_key`]).
pub type CanonicalKey = (Vec<NodeId>, Vec<(NodeId, NodeId)>);

/// A joined tuple tree (Definition 3 of the paper): an unrooted tree over
/// data-graph nodes. Edges are stored as position pairs into the node list;
/// adjacency is precomputed for message passing.
#[derive(Debug, Clone)]
pub struct Jtt {
    nodes: Vec<NodeId>,
    edges: Vec<(usize, usize)>,
    adj: Vec<Vec<usize>>,
}

impl Jtt {
    /// Builds a JTT from a node list and undirected position-pair edges,
    /// validating tree-ness.
    pub fn new(nodes: Vec<NodeId>, edges: Vec<(usize, usize)>) -> Result<Self, TreeError> {
        let n = nodes.len();
        {
            let mut sorted = nodes.clone();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                if let &[a, b] = w {
                    if a == b {
                        return Err(TreeError::DuplicateNode(a));
                    }
                }
            }
        }
        if edges.len() + 1 != n {
            return Err(TreeError::NotATree);
        }
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            if a >= n || b >= n || a == b {
                return Err(TreeError::EdgeOutOfRange {
                    edge: (a, b),
                    nodes: n,
                });
            }
            if let Some(list) = adj.get_mut(a) {
                list.push(b);
            }
            if let Some(list) = adj.get_mut(b) {
                list.push(a);
            }
        }
        // Connectivity check (|E| = |V| − 1 plus connected ⇒ tree).
        if n > 0 {
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            if let Some(s) = seen.get_mut(0) {
                *s = true;
            }
            let mut count = 1;
            while let Some(v) = stack.pop() {
                for &u in adj.get(v).into_iter().flatten() {
                    if let Some(s) = seen.get_mut(u) {
                        if !*s {
                            *s = true;
                            count += 1;
                            stack.push(u);
                        }
                    }
                }
            }
            if count != n {
                return Err(TreeError::NotATree);
            }
        }
        for a in &mut adj {
            a.sort_unstable();
        }
        Ok(Jtt { nodes, edges, adj })
    }

    /// A single-node tree.
    pub fn singleton(node: NodeId) -> Self {
        // A one-node, zero-edge tree is valid by construction.
        Jtt {
            nodes: vec![node],
            edges: Vec::new(),
            adj: vec![Vec::new()],
        }
    }

    /// Graph node at a tree position.
    #[inline]
    pub fn node(&self, pos: usize) -> NodeId {
        debug_assert!(pos < self.nodes.len(), "tree position out of range");
        self.nodes.get(pos).copied().unwrap_or(NodeId(u32::MAX))
    }

    /// All graph nodes, by position.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Undirected edges as position pairs.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Tree positions adjacent to `pos`.
    pub fn adjacent(&self, pos: usize) -> &[usize] {
        self.adj.get(pos).map_or(&[], Vec::as_slice)
    }

    /// Number of nodes (the paper's `size(T)`).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Position of a graph node within the tree, if present.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }

    /// True if the graph node appears in the tree.
    pub fn contains(&self, node: NodeId) -> bool {
        self.position(node).is_some()
    }

    /// Tree positions with degree ≤ 1 (leaves; a singleton's only node is a
    /// leaf).
    pub fn leaves(&self) -> Vec<usize> {
        self.adj
            .iter()
            .enumerate()
            .filter(|(_, a)| a.len() <= 1)
            .map(|(p, _)| p)
            .collect()
    }

    /// Hop distances from `pos` to every tree position.
    pub fn distances_from(&self, pos: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.size()];
        if let Some(d) = dist.get_mut(pos) {
            *d = 0;
        }
        let mut q = VecDeque::from([pos]);
        while let Some(v) = q.pop_front() {
            let dv = dist.get(v).copied().unwrap_or(u32::MAX);
            for &u in self.adj.get(v).into_iter().flatten() {
                if let Some(du) = dist.get_mut(u) {
                    if *du == u32::MAX {
                        *du = dv.saturating_add(1);
                        q.push_back(u);
                    }
                }
            }
        }
        dist
    }

    /// Parent position of every tree position when the tree is rooted at
    /// position 0 (BFS; the root is its own parent) — the
    /// [`ParentTree`] form the RWMP flow kernel runs over.
    pub fn parent_positions(&self) -> Vec<u32> {
        let n = self.size();
        let mut parent = vec![u32::MAX; n];
        if let Some(p) = parent.get_mut(0) {
            *p = 0;
        }
        let mut queue = VecDeque::from([0usize]);
        while let Some(u) = queue.pop_front() {
            for &v in self.adjacent(u) {
                if let Some(p) = parent.get_mut(v) {
                    if *p == u32::MAX {
                        *p = u32::try_from(u).unwrap_or(u32::MAX);
                        queue.push_back(v);
                    }
                }
            }
        }
        parent
    }

    /// Longest path length (in hops) between any two nodes.
    pub fn diameter(&self) -> u32 {
        if self.size() <= 1 {
            return 0;
        }
        // Double BFS: farthest node from 0, then farthest from that.
        let d0 = self.distances_from(0);
        let far = d0
            .iter()
            .enumerate()
            .max_by_key(|&(_, &d)| d)
            .map_or(0, |(i, _)| i);
        let d1 = self.distances_from(far);
        d1.into_iter().max().unwrap_or(0)
    }

    /// Canonical identity: sorted graph-node edge pairs plus the sorted node
    /// set. Two JTTs over the same graph nodes and connections compare equal
    /// regardless of construction order — used to deduplicate answers.
    pub fn canonical_key(&self) -> CanonicalKey {
        let mut nodes = self.nodes.clone();
        nodes.sort_unstable();
        let mut edges: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (self.node(a), self.node(b));
                if x <= y {
                    (x, y)
                } else {
                    (y, x)
                }
            })
            .collect();
        edges.sort_unstable();
        (nodes, edges)
    }

    /// Positions on the unique path between two tree positions, inclusive.
    pub fn path(&self, from: usize, to: usize) -> Vec<usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut q = VecDeque::from([from]);
        parent.insert(from, from);
        while let Some(v) = q.pop_front() {
            if v == to {
                break;
            }
            for &u in self.adj.get(v).into_iter().flatten() {
                parent.entry(u).or_insert_with(|| {
                    q.push_back(u);
                    v
                });
            }
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            match parent.get(&cur) {
                Some(&p) => cur = p,
                // Unreachable in a connected tree; stop rather than spin.
                None => break,
            }
            path.push(cur);
        }
        path.reverse();
        path
    }
}

/// A tree in parent-array form: `nodes[i]` sits at position `i` and hangs
/// off position `parent[i]`; position 0 is the root (`parent[0] == 0`).
/// Search candidates are kept in this form, and [`Jtt::parent_positions`]
/// gives it for any JTT.
#[derive(Debug, Clone, Copy)]
pub struct ParentTree<'a> {
    nodes: &'a [NodeId],
    parent: &'a [u32],
}

impl<'a> ParentTree<'a> {
    /// Views `nodes` with the given parent positions (equal lengths).
    pub fn new(nodes: &'a [NodeId], parent: &'a [u32]) -> Self {
        debug_assert_eq!(nodes.len(), parent.len(), "one parent per node");
        ParentTree { nodes, parent }
    }

    /// Number of positions.
    pub fn size(self) -> usize {
        self.nodes.len()
    }

    /// Graph node at a position.
    pub fn node(self, pos: usize) -> Option<NodeId> {
        self.nodes.get(pos).copied()
    }

    /// Parent position of `pos` (the root is its own parent).
    pub(crate) fn parent(self, pos: usize) -> Option<usize> {
        self.parent.get(pos).map(|&p| p as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Chain 10 — 11 — 12 — 13.
    fn chain4() -> Jtt {
        Jtt::new(
            vec![n(10), n(11), n(12), n(13)],
            vec![(0, 1), (1, 2), (2, 3)],
        )
        .unwrap()
    }

    /// Star with center 20 and leaves 21..24.
    fn star4() -> Jtt {
        Jtt::new(
            vec![n(20), n(21), n(22), n(23), n(24)],
            vec![(0, 1), (0, 2), (0, 3), (0, 4)],
        )
        .unwrap()
    }

    #[test]
    fn tree_validation() {
        assert!(Jtt::new(vec![n(1), n(2)], vec![]).is_err()); // disconnected
        assert!(Jtt::new(vec![n(1), n(2), n(3)], vec![(0, 1), (1, 2), (2, 0)]).is_err()); // cycle / count
        assert_eq!(
            Jtt::new(vec![n(1), n(1)], vec![(0, 1)]).unwrap_err(),
            TreeError::DuplicateNode(n(1))
        );
        assert!(matches!(
            Jtt::new(vec![n(1), n(2)], vec![(0, 5)]).unwrap_err(),
            TreeError::EdgeOutOfRange { .. }
        ));
        // Self-loop edge rejected.
        assert!(Jtt::new(vec![n(1), n(2)], vec![(0, 0)]).is_err());
    }

    #[test]
    fn singleton_properties() {
        let t = Jtt::singleton(n(5));
        assert_eq!(t.size(), 1);
        assert_eq!(t.diameter(), 0);
        assert_eq!(t.leaves(), vec![0]);
        assert!(t.contains(n(5)));
    }

    #[test]
    fn leaves_and_diameter() {
        let c = chain4();
        assert_eq!(c.leaves(), vec![0, 3]);
        assert_eq!(c.diameter(), 3);
        let s = star4();
        assert_eq!(s.leaves(), vec![1, 2, 3, 4]);
        assert_eq!(s.diameter(), 2);
    }

    #[test]
    fn distances_and_paths() {
        let c = chain4();
        assert_eq!(c.distances_from(0), vec![0, 1, 2, 3]);
        assert_eq!(c.path(0, 3), vec![0, 1, 2, 3]);
        assert_eq!(c.path(3, 1), vec![3, 2, 1]);
        assert_eq!(c.path(2, 2), vec![2]);
    }

    #[test]
    fn canonical_key_is_order_independent() {
        let a = Jtt::new(vec![n(1), n(2), n(3)], vec![(0, 1), (1, 2)]).unwrap();
        let b = Jtt::new(vec![n(3), n(2), n(1)], vec![(0, 1), (1, 2)]).unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        let c = Jtt::new(vec![n(1), n(2), n(3)], vec![(0, 2), (2, 1)]).unwrap();
        assert_ne!(a.canonical_key(), c.canonical_key());
    }

    #[test]
    fn position_lookup() {
        let c = chain4();
        assert_eq!(c.position(n(12)), Some(2));
        assert_eq!(c.position(n(99)), None);
    }

    #[test]
    fn parent_positions_root_the_tree_at_position_zero() {
        // Rooted at position 0; positions 1 and 3 hang off position 4,
        // which is numbered after them (not a candidate rooting).
        let t = Jtt::new(
            vec![n(1), n(2), n(3), n(4), n(5)],
            vec![(0, 4), (4, 3), (4, 1), (0, 2)],
        )
        .unwrap();
        assert_eq!(t.parent_positions(), vec![0, 4, 0, 4, 0]);
    }
}
