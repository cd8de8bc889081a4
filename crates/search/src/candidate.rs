use ci_graph::NodeId;
use ci_rwmp::{Jtt, ParentTree};

use crate::query::QuerySpec;

/// A rooted candidate tree of the branch-and-bound search (§IV-B).
///
/// Position 0 is always the root. The *root-connection invariant* of the
/// paper's grow/merge construction — a candidate only ever attaches to the
/// rest of a larger tree through its root — is what makes the upper bounds
/// sound.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Graph nodes; `nodes[0]` is the root.
    pub nodes: Vec<NodeId>,
    /// Parent position per node; `parent[0] == 0`.
    pub parent: Vec<u32>,
    /// Union of matched keyword bits.
    pub mask: u32,
    /// Maximum root-to-leaf depth.
    pub depth: u32,
    /// Tree diameter.
    pub diameter: u32,
}

impl Candidate {
    /// Initial candidate: a single matcher node.
    pub fn seed(node: NodeId, mask: u32) -> Self {
        debug_assert!(mask != 0, "seed candidates are matcher nodes");
        Candidate {
            nodes: vec![node],
            parent: vec![0],
            mask,
            depth: 0,
            diameter: 0,
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        debug_assert!(!self.nodes.is_empty(), "candidates are never empty");
        self.nodes.first().copied().unwrap_or(NodeId(u32::MAX))
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph node appears in the candidate.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// An empty candidate shell — only useful as the target of
    /// [`Candidate::set_seed`] / [`Candidate::grow_into`] /
    /// [`Candidate::merge_into`]. The search scratch's build and pop slots
    /// hold these so candidate construction in the inner loop reuses
    /// their buffers.
    pub fn empty() -> Candidate {
        Candidate {
            nodes: Vec::new(),
            parent: Vec::new(),
            mask: 0,
            depth: 0,
            diameter: 0,
        }
    }

    /// Overwrites `self` with a seed candidate, reusing the buffers.
    pub fn set_seed(&mut self, node: NodeId, mask: u32) {
        debug_assert!(mask != 0, "seed candidates are matcher nodes");
        self.nodes.clear();
        self.nodes.push(node);
        self.parent.clear();
        self.parent.push(0);
        self.mask = mask;
        self.depth = 0;
        self.diameter = 0;
    }

    /// Overwrites `self` with a copy of `src`, reusing the buffers.
    pub fn assign(&mut self, src: CandidateRef<'_>) {
        self.nodes.clear();
        self.nodes.extend_from_slice(src.nodes);
        self.parent.clear();
        self.parent.extend_from_slice(src.parent);
        self.mask = src.mask;
        self.depth = src.depth;
        self.diameter = src.diameter;
    }

    /// The candidate as a borrowed view.
    pub fn view(&self) -> CandidateRef<'_> {
        CandidateRef {
            nodes: &self.nodes,
            parent: &self.parent,
            mask: self.mask,
            depth: self.depth,
            diameter: self.diameter,
        }
    }

    /// Shape of the candidate grown by one new root (see
    /// [`Candidate::grow_into`]), known before it is built.
    pub fn grow_shape(&self) -> Shape {
        Shape {
            size: self.size() + 1,
            depth: self.depth + 1,
            diameter: self.diameter.max(self.depth + 1),
        }
    }

    /// *Tree grow*: a new root `new_root` (a graph neighbor of the current
    /// root, not already contained) adopts this candidate as its single
    /// child subtree, written into a reused buffer (no allocation once the
    /// target's buffers have grown to size).
    pub fn grow_into(&self, new_root: NodeId, query: &QuerySpec, out: &mut Candidate) {
        debug_assert!(!self.contains(new_root), "grow target already in tree");
        out.nodes.clear();
        out.nodes.push(new_root);
        out.nodes.extend_from_slice(&self.nodes);
        out.parent.clear();
        out.parent.push(0);
        // Old position i → new position i + 1; old root's parent is the new
        // root (position 0).
        out.parent.push(0);
        for &p in self.parent.get(1..).unwrap_or(&[]) {
            out.parent.push(p + 1);
        }
        let shape = self.grow_shape();
        out.mask = self.mask | query.mask_of(new_root);
        out.depth = shape.depth;
        out.diameter = shape.diameter;
    }

    /// True when the non-root node sets of two same-rooted candidates are
    /// disjoint — the paper's merge sanity check against cycles.
    pub fn disjoint_from(a: CandidateRef<'_>, b: CandidateRef<'_>) -> bool {
        debug_assert_eq!(
            a.nodes.first(),
            b.nodes.first(),
            "merge requires equal roots"
        );
        let own = a.nodes.get(1..).unwrap_or(&[]);
        b.nodes
            .get(1..)
            .unwrap_or(&[])
            .iter()
            .all(|v| !own.contains(v))
    }

    /// *Tree merge*: overwrites `self` with the merge of two same-rooted
    /// candidates whose non-root node sets are disjoint
    /// ([`Candidate::disjoint_from`]), reusing the buffers: `a`'s
    /// positions first, then `b`'s non-root ones.
    pub fn merge_into(&mut self, a: CandidateRef<'_>, b: CandidateRef<'_>) {
        debug_assert!(Candidate::disjoint_from(a, b), "merge operands overlap");
        self.nodes.clear();
        self.nodes.extend_from_slice(a.nodes);
        self.nodes
            .extend_from_slice(b.nodes.get(1..).unwrap_or(&[]));
        self.parent.clear();
        self.parent.extend_from_slice(a.parent);
        let offset = u32::try_from(a.nodes.len())
            .unwrap_or(u32::MAX)
            .saturating_sub(1);
        for &p in b.parent.get(1..).unwrap_or(&[]) {
            self.parent.push(if p == 0 { 0 } else { p + offset });
        }
        self.mask = a.mask | b.mask;
        self.depth = a.depth.max(b.depth);
        // The two root subtrees share only the root, so the longest new
        // path joins their deepest leaves through it.
        self.diameter = a.diameter.max(b.diameter).max(a.depth + b.depth);
    }

    /// Writes the candidate's dedup identity into `out`: the root, then one
    /// `child << 32 | parent` word (graph node ids) per tree edge, sorted.
    /// Every non-root node is the child of exactly one edge, so for a fixed
    /// root this identifies the same trees as `(root, Jtt::canonical_key)`
    /// — the root orients every undirected edge — without building a
    /// [`Jtt`].
    pub fn identity_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.push(u64::from(self.root().0));
        for (child, &p) in self.nodes.iter().zip(&self.parent).skip(1) {
            let parent = self.nodes.get(p as usize).map_or(u32::MAX, |v| v.0);
            out.push((u64::from(child.0) << 32) | u64::from(parent));
        }
        if let Some(edges) = out.get_mut(1..) {
            edges.sort_unstable();
        }
    }

    /// The candidate in the parent-array form the flow kernel runs over.
    pub fn tree(&self) -> ParentTree<'_> {
        ParentTree::new(&self.nodes, &self.parent)
    }

    /// Converts to an (unrooted) [`Jtt`].
    pub fn to_jtt(&self) -> Jtt {
        let edges = self
            .parent
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &p)| (p as usize, i))
            .collect();
        // LINT-EXEMPT(invariant): seed/grow/merge maintain tree-ness by
        // construction (parent links always form a rooted tree over
        // distinct nodes); `Jtt::new` merely re-validates it.
        #[allow(clippy::expect_used)]
        Jtt::new(self.nodes.clone(), edges).expect("candidates are trees by construction")
    }
}

/// Allocating conveniences over the buffer-reusing operations, for tests.
#[cfg(test)]
impl Candidate {
    /// The candidate's shape.
    pub fn shape(&self) -> Shape {
        Shape {
            size: self.size(),
            depth: self.depth,
            diameter: self.diameter,
        }
    }

    /// Shape of the merge of `a` and `b`, as [`Candidate::merge_into`]
    /// derives it.
    pub fn merge_shape(a: CandidateRef<'_>, b: CandidateRef<'_>) -> Shape {
        Shape {
            size: a.nodes.len() + b.nodes.len() - 1,
            depth: a.depth.max(b.depth),
            diameter: a.diameter.max(b.diameter).max(a.depth + b.depth),
        }
    }

    /// [`Candidate::grow_into`] into a fresh candidate.
    pub fn grow(&self, new_root: NodeId, query: &QuerySpec) -> Candidate {
        let mut out = Candidate::empty();
        self.grow_into(new_root, query, &mut out);
        out
    }

    /// [`Candidate::merge_into`] into a fresh candidate, or `None` when the
    /// non-root node sets intersect.
    pub fn merge(&self, other: &Candidate) -> Option<Candidate> {
        let mut out = Candidate::empty();
        Candidate::disjoint_from(self.view(), other.view()).then(|| {
            out.merge_into(self.view(), other.view());
            out
        })
    }

    /// Non-root leaf positions (these stay leaves in every extension).
    pub fn frozen_leaves(&self) -> Vec<usize> {
        (1..self.size())
            .filter(|&i| !self.parent.iter().skip(1).any(|&p| p as usize == i))
            .collect()
    }
}

/// A borrowed candidate: the tree arrays and shape fields of a
/// [`Candidate`], wherever they are stored. The search keeps admitted
/// candidates in flat per-run buffers and merges them through this view,
/// so one merge implementation serves owned and stored operands.
#[derive(Debug, Clone, Copy)]
pub struct CandidateRef<'a> {
    /// Graph nodes; `nodes[0]` is the root.
    pub nodes: &'a [NodeId],
    /// Parent position per node; `parent[0] == 0`.
    pub parent: &'a [u32],
    /// Union of matched keyword bits.
    pub mask: u32,
    /// Maximum root-to-leaf depth.
    pub depth: u32,
    /// Tree diameter.
    pub diameter: u32,
}

/// Size, depth and diameter of a candidate: everything the `D` and
/// `max_tree_nodes` caps read. [`Candidate::grow_shape`] gives the shape
/// of a grow before it is built, so the search can skip a pop none of
/// whose grows fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Number of nodes.
    pub size: usize,
    /// Maximum root-to-leaf depth.
    pub depth: u32,
    /// Tree diameter.
    pub diameter: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MatcherInfo;

    fn query(keywords: usize, matchers: Vec<(u32, u32)>) -> QuerySpec {
        QuerySpec::new(
            (0..keywords).map(|i| format!("k{i}")).collect(),
            matchers
                .into_iter()
                .map(|(node, mask)| MatcherInfo {
                    node: NodeId(node),
                    mask,
                    match_count: mask.count_ones(),
                    word_count: 1,
                    gen: 1.0,
                })
                .collect(),
        )
    }

    #[test]
    fn grow_chain_tracks_depth_and_diameter() {
        let q = query(2, vec![(0, 0b01), (3, 0b10)]);
        let c = Candidate::seed(NodeId(0), 0b01);
        let c = c.grow(NodeId(1), &q);
        assert_eq!(c.root(), NodeId(1));
        assert_eq!(c.depth, 1);
        assert_eq!(c.diameter, 1);
        let c = c.grow(NodeId(2), &q);
        assert_eq!(c.depth, 2);
        assert_eq!(c.diameter, 2);
        assert_eq!(c.nodes, vec![NodeId(2), NodeId(1), NodeId(0)]);
        assert_eq!(c.mask, 0b01);
        let jtt = c.to_jtt();
        assert_eq!(jtt.diameter(), 2);
    }

    #[test]
    fn merge_combines_subtrees_at_root() {
        let q = query(2, vec![(0, 0b01), (2, 0b10)]);
        let left = Candidate::seed(NodeId(0), 0b01).grow(NodeId(9), &q);
        let right = Candidate::seed(NodeId(2), 0b10).grow(NodeId(9), &q);
        let merged = left.merge(&right).expect("disjoint subtrees merge");
        assert_eq!(merged.root(), NodeId(9));
        assert_eq!(merged.size(), 3);
        assert_eq!(merged.mask, 0b11);
        assert_eq!(merged.depth, 1);
        assert_eq!(merged.diameter, 2);
        let jtt = merged.to_jtt();
        assert_eq!(jtt.diameter(), 2);
        assert_eq!(jtt.leaves().len(), 2);
    }

    #[test]
    fn merge_rejects_overlap() {
        let q = query(2, vec![(0, 0b01), (2, 0b10)]);
        let a = Candidate::seed(NodeId(0), 0b01).grow(NodeId(9), &q);
        let b = Candidate::seed(NodeId(2), 0b10)
            .grow(NodeId(0), &q)
            .grow(NodeId(9), &q);
        assert!(a.merge(&b).is_none());
    }

    #[test]
    fn merged_diameter_spans_both_depths() {
        let q = query(2, vec![(0, 0b01), (5, 0b10)]);
        let deep = Candidate::seed(NodeId(0), 0b01)
            .grow(NodeId(1), &q)
            .grow(NodeId(2), &q)
            .grow(NodeId(9), &q); // depth 3
        let shallow = Candidate::seed(NodeId(5), 0b10).grow(NodeId(9), &q); // depth 1
        let merged = deep.merge(&shallow).unwrap();
        assert_eq!(merged.depth, 3);
        assert_eq!(merged.diameter, 4);
        assert_eq!(merged.to_jtt().diameter(), 4);
    }

    #[test]
    fn frozen_leaves_exclude_root() {
        let q = query(2, vec![(0, 0b01), (2, 0b10)]);
        let c = Candidate::seed(NodeId(0), 0b01).grow(NodeId(9), &q);
        // Root 9 is extendable; node 0 is a frozen leaf.
        assert_eq!(c.frozen_leaves(), vec![1]);
        let seed = Candidate::seed(NodeId(2), 0b10);
        assert!(seed.frozen_leaves().is_empty());
    }

    #[test]
    fn identity_distinguishes_roots() {
        let q = query(2, vec![(0, 0b01), (1, 0b10)]);
        // Same undirected tree {0—1}, rooted at 0 vs at 1.
        let a = Candidate::seed(NodeId(0), 0b01).grow(NodeId(1), &q);
        let b = Candidate::seed(NodeId(1), 0b10).grow(NodeId(0), &q);
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        a.identity_into(&mut ka);
        b.identity_into(&mut kb);
        assert_ne!(ka, kb);
        assert_eq!(a.to_jtt().canonical_key(), b.to_jtt().canonical_key());
    }

    #[test]
    fn identity_ignores_merge_order() {
        let q = query(2, vec![(0, 0b01), (2, 0b10)]);
        let left = Candidate::seed(NodeId(0), 0b01).grow(NodeId(9), &q);
        let right = Candidate::seed(NodeId(2), 0b10).grow(NodeId(9), &q);
        let (ab, ba) = (left.merge(&right).unwrap(), right.merge(&left).unwrap());
        assert_ne!(ab.nodes, ba.nodes, "positions differ");
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        ab.identity_into(&mut ka);
        ba.identity_into(&mut kb);
        assert_eq!(ka, kb);
    }

    #[test]
    fn shapes_predict_built_candidates() {
        let q = query(2, vec![(0, 0b01), (5, 0b10)]);
        let mut deep = Candidate::seed(NodeId(0), 0b01);
        for v in [1, 2, 9] {
            let want = deep.grow_shape();
            deep = deep.grow(NodeId(v), &q);
            assert_eq!(deep.shape(), want);
        }
        let shallow = Candidate::seed(NodeId(5), 0b10).grow(NodeId(9), &q);
        let want = Candidate::merge_shape(deep.view(), shallow.view());
        assert_eq!(deep.merge(&shallow).unwrap().shape(), want);
        let seed = Shape {
            size: 1,
            depth: 0,
            diameter: 0,
        };
        assert_eq!(Candidate::seed(NodeId(5), 0b10).shape(), seed);
    }
}
