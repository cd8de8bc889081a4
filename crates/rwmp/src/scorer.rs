use ci_graph::{Graph, NodeId};

use crate::dampen::{dampening_rate, Dampening};
use crate::tree::{Jtt, ParentTree};

/// Query-dependent information about a non-free node of a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBinding {
    /// Position of the node within the JTT.
    pub pos: usize,
    /// Distinct query keywords matched by the node (`|v_i ∩ Q|`), ≥ 1.
    pub match_count: u32,
    /// Token count of the node (`|v_i|`), ≥ 1.
    pub word_count: u32,
}

/// Per-node and aggregate scores of a JTT.
#[derive(Debug, Clone)]
pub struct TreeScore {
    /// Eq. 3 score of each non-free node, in binding order.
    pub node_scores: Vec<f64>,
    /// Eq. 4 tree score: mean of the node scores.
    pub score: f64,
}

/// Evaluates the RWMP scoring function over a data graph.
///
/// Holds the node importance vector `p` (from `ci-walk`), the derived
/// `p_min` / total surfer count `t`, and the dampening configuration.
pub struct Scorer<'g> {
    graph: &'g Graph,
    p: &'g [f64],
    p_min: f64,
    p_max: f64,
    t: f64,
    dampening: Dampening,
    /// Precomputed per-node dampening rates, when the owner (an engine
    /// snapshot) has materialized them once; `None` falls back to computing
    /// the Eq. 2 formula on demand.
    damp: Option<&'g [f64]>,
}

impl<'g> Scorer<'g> {
    /// Creates a scorer. `p` must hold one strictly positive importance per
    /// graph node; `p_min` must be its minimum.
    pub fn new(graph: &'g Graph, p: &'g [f64], p_min: f64, dampening: Dampening) -> Self {
        assert_eq!(
            p.len(),
            graph.node_count(),
            "importance vector length mismatch"
        );
        assert!(p_min > 0.0, "p_min must be positive");
        let p_max = p.iter().cloned().fold(p_min, f64::max);
        Scorer {
            graph,
            p,
            p_min,
            p_max,
            t: 1.0 / p_min,
            dampening,
            damp: None,
        }
    }

    /// Like [`Scorer::new`], but [`Scorer::dampening`] reads from the given
    /// precomputed per-node vector instead of re-deriving Eq. 2 on every
    /// call. `damp` must be `dampening_vector()`-equivalent: one rate per
    /// node, computed with the same `dampening` configuration — the engine
    /// snapshot computes it once and shares it between scoring, the
    /// distance indexes, and score explanations.
    pub fn with_dampening_vector(
        graph: &'g Graph,
        p: &'g [f64],
        p_min: f64,
        dampening: Dampening,
        damp: &'g [f64],
    ) -> Self {
        assert_eq!(
            damp.len(),
            graph.node_count(),
            "dampening vector length mismatch"
        );
        let mut s = Scorer::new(graph, p, p_min, dampening);
        s.damp = Some(damp);
        s
    }

    /// Materializes the per-node dampening rates (Eq. 2) as a vector, for
    /// index builds and for [`Scorer::with_dampening_vector`].
    pub fn dampening_vector(&self) -> Vec<f64> {
        self.graph.nodes().map(|v| self.dampening(v)).collect()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Importance of a node.
    #[inline]
    pub fn importance(&self, v: NodeId) -> f64 {
        self.p.get(v.idx()).copied().unwrap_or(0.0)
    }

    /// Total surfer count `t = 1/p_min`.
    pub fn total_surfers(&self) -> f64 {
        self.t
    }

    /// Dampening rate `d_i` of a node (Eq. 2); served from the precomputed
    /// vector when one was supplied at construction.
    #[inline]
    pub fn dampening(&self, v: NodeId) -> f64 {
        if let Some(damp) = self.damp {
            if let Some(&d) = damp.get(v.idx()) {
                return d;
            }
        }
        dampening_rate(self.dampening, self.importance(v), self.p_min)
    }

    /// The largest dampening rate any node can have — an upper bound on the
    /// per-hop retention of a message, used by the search bounds.
    pub fn max_dampening(&self) -> f64 {
        dampening_rate(self.dampening, self.p_max, self.p_min)
    }

    /// Message generation count `r_ii = t · p_i · |v_i ∩ Q| / |v_i|`
    /// (§III-C.1).
    pub fn generation(&self, v: NodeId, match_count: u32, word_count: u32) -> f64 {
        assert!(word_count > 0, "word count must be positive for a matcher");
        self.t * self.importance(v) * match_count as f64 / word_count as f64
    }

    /// Propagates messages of one source through the tree.
    ///
    /// Returns, for each tree position `i`, the *leaving* message count
    /// `f_{src,i}` (received messages dampened by `d_i`); the source
    /// position itself carries its full generation count `gen`. Splits
    /// follow the paper's rule: the share over edge `(m,k)` is
    /// `w_mk / Σ_{n ∈ N(v_m) ∩ V(T)} w_mn` with the denominator summing the
    /// weights toward *all* tree neighbors of `v_m` — including the one the
    /// messages came from, whose share is sent back and discarded.
    pub fn flows_from(&self, tree: &Jtt, src: usize, gen: f64) -> Vec<f64> {
        let parent = tree.parent_positions();
        let mut flows = FlowState::default();
        self.fill_flows(
            ParentTree::new(tree.nodes(), &parent),
            [(src, gen)],
            &mut flows,
        );
        flows.row(0).to_vec()
    }

    /// Scores a JTT (Eqs. 3–4). `bindings` lists the tree's non-free nodes
    /// with their match statistics; it must be non-empty.
    ///
    /// For a tree with a single non-free node the paper leaves the score
    /// undefined (no incoming messages); we use the node's own generation
    /// count, which preserves the importance ordering between single-node
    /// answers (see DESIGN.md).
    pub fn score_tree(&self, tree: &Jtt, bindings: &[NodeBinding]) -> TreeScore {
        assert!(
            !bindings.is_empty(),
            "a JTT needs at least one non-free node"
        );
        debug_assert!(
            bindings.iter().all(|b| b.pos < tree.size()),
            "binding position out of range"
        );
        let parent = tree.parent_positions();
        let mut flows = FlowState::default();
        let sources = bindings.iter().map(|b| {
            let gen = self.generation(tree.node(b.pos), b.match_count, b.word_count);
            (b.pos, gen)
        });
        self.fill_flows(ParentTree::new(tree.nodes(), &parent), sources, &mut flows);
        let mut per_source = Vec::with_capacity(bindings.len());
        let score = flows.reduce(Some(&mut per_source)).unwrap_or(f64::NAN);
        TreeScore {
            node_scores: per_source.into_iter().map(|(s, _)| s).collect(),
            score,
        }
    }

    /// Fills `out` with the Eq. 2 flow matrix of `tree`: one row per
    /// `(source position, generation count)`, in the order given.
    pub fn fill_flows(
        &self,
        tree: ParentTree<'_>,
        sources: impl IntoIterator<Item = (usize, f64)>,
        out: &mut FlowState,
    ) {
        out.clear(tree.size());
        for m in 0..tree.size() {
            out.values.push(self.split_denominator(tree, m));
        }
        for (src, gen) in sources {
            self.push_source(tree, src, gen, out);
        }
    }

    /// Advances `prev`, the flow matrix of a tree `T`, to `out`, the matrix
    /// of `grown`: `T` under a new root at position 0 that adopts `T`'s
    /// root as its only child, every position of `T` shifted up by one.
    /// `root_gen` is the new root's generation count when it is a source;
    /// its row comes first, then `prev`'s rows in order.
    ///
    /// Bit-identical to [`Scorer::fill_flows`] over `grown`, but only the
    /// region the new edge touches is recomputed. A flow depends only on
    /// the split denominators of the positions before it on its path, and
    /// the new edge changes only the denominator of `T`'s root. So a source
    /// below `T`'s root keeps every flow up to and including `T`'s root,
    /// and is resumed from there into the new root and the other branches.
    pub fn grow_flows(
        &self,
        grown: ParentTree<'_>,
        prev: &FlowState,
        root_gen: Option<f64>,
        out: &mut FlowState,
    ) {
        debug_assert_eq!(grown.size(), prev.size() + 1, "grown adds one node");
        out.clear(grown.size());
        out.values.push(self.split_denominator(grown, 0));
        out.values.push(self.split_denominator(grown, 1));
        out.values
            .extend_from_slice(prev.denominators().get(1..).unwrap_or(&[]));
        if let Some(gen) = root_gen {
            self.push_source(grown, 0, gen, out);
        }
        for (s, &old) in prev.sources.iter().enumerate() {
            let src = old as usize + 1;
            if old == 0 {
                // The source is `T`'s root, whose own split changed; its
                // generation count is the row's value at the source.
                self.push_source(grown, src, prev.value(s, 0), out);
                continue;
            }
            out.sources.push(old + 1);
            out.values.push(0.0);
            out.values.extend_from_slice(prev.row(s));
            // The branch the flow arrived through keeps its copied values.
            let mut entry = src;
            while let Some(p) = grown.parent(entry).filter(|&p| p > 1) {
                entry = p;
            }
            let (denom, row) = out.last_row();
            self.spread(grown, denom, row, 1, entry);
        }
    }

    /// Eq. 2 split denominator of position `m`: the raw edge weights from
    /// `v_m` toward all its tree neighbors, summed in ascending position
    /// order.
    fn split_denominator(&self, tree: ParentTree<'_>, m: usize) -> f64 {
        let Some(vm) = tree.node(m) else {
            return 0.0;
        };
        let mut denom = 0.0;
        for k in tree.neighbors(m) {
            if let Some(w) = tree.node(k).and_then(|vk| self.graph.edge_weight(vm, vk)) {
                denom += w;
            }
        }
        denom
    }

    /// Appends the row of source `src` holding `gen` messages, propagated
    /// through the whole tree.
    fn push_source(&self, tree: ParentTree<'_>, src: usize, gen: f64, out: &mut FlowState) {
        out.sources.push(u32::try_from(src).unwrap_or(u32::MAX));
        let start = out.values.len();
        out.values.resize(start + tree.size(), 0.0);
        if let Some(slot) = out.values.get_mut(start + src) {
            *slot = gen;
        }
        let (denom, row) = out.last_row();
        self.spread(tree, denom, row, src, src);
    }

    /// The Eq. 2 propagation loop: the `row[m]` messages leaving position
    /// `m` split over its neighbors by edge weight, each share dampened on
    /// arrival, and on outward until the leaves. The share toward `from`,
    /// the sender, is discarded (from the source itself, `from == m`
    /// excludes nothing).
    fn spread(&self, tree: ParentTree<'_>, denom: &[f64], row: &mut [f64], m: usize, from: usize) {
        let leaving = row.get(m).copied().unwrap_or(0.0);
        let d = denom.get(m).copied().unwrap_or(0.0);
        let Some(vm) = tree.node(m) else {
            return;
        };
        if leaving <= 0.0 || d <= 0.0 {
            return;
        }
        for k in tree.neighbors(m).filter(|&k| k != from) {
            let Some(vk) = tree.node(k) else {
                continue;
            };
            let Some(w) = self.graph.edge_weight(vm, vk) else {
                continue;
            };
            if let Some(slot) = row.get_mut(k) {
                *slot = leaving * w / d * self.dampening(vk);
            }
            self.spread(tree, denom, row, k, m);
        }
    }
}

/// The Eq. 2 flow matrix of one tree: for each message source, the flow it
/// delivers to every tree position. Filled by [`Scorer::fill_flows`] or
/// [`Scorer::grow_flows`] and reduced to Eqs. 3–4 by
/// [`FlowState::reduce`]. Its buffers keep their capacity, so a reused
/// matrix does not allocate.
#[derive(Debug, Default, Clone)]
pub struct FlowState {
    /// Source positions (row order of the source rows).
    sources: Vec<u32>,
    /// Row-major, `1 + sources.len()` rows of `n`: first each position's
    /// split denominator, then one row per source.
    values: Vec<f64>,
    /// Number of tree positions (the row width).
    n: usize,
}

impl FlowState {
    /// Source positions, in row order.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Number of tree positions (the row width).
    fn size(&self) -> usize {
        self.n
    }

    /// Flow of source row `s` at tree position `pos`. Out-of-range reads
    /// return `+∞`, so a missing entry can never lower a bound.
    pub fn value(&self, s: usize, pos: usize) -> f64 {
        if pos >= self.n {
            return f64::INFINITY;
        }
        self.values
            .get(
                s.saturating_add(1)
                    .saturating_mul(self.n)
                    .saturating_add(pos),
            )
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// Source row `s` (empty when out of range).
    pub fn row(&self, s: usize) -> &[f64] {
        self.values
            .get(s.saturating_add(1).saturating_mul(self.n)..)
            .and_then(|rest| rest.get(..self.n))
            .unwrap_or(&[])
    }

    /// The matrix's raw parts — source positions, then the row-major
    /// values (the denominator row first, then one row per source) — for
    /// flat storage outside the matrix. [`FlowState::assign_parts`]
    /// restores them.
    pub fn parts(&self) -> (&[u32], &[f64]) {
        (&self.sources, &self.values)
    }

    /// Overwrites `self` with parts read from [`FlowState::parts`] of a
    /// matrix over `n` tree positions, reusing the buffers.
    pub fn assign_parts(&mut self, sources: &[u32], values: &[f64], n: usize) {
        debug_assert_eq!(values.len(), (sources.len() + 1) * n, "row-major parts");
        self.clear(n);
        self.sources.extend_from_slice(sources);
        self.values.extend_from_slice(values);
    }

    /// Heap bytes the matrix's buffers hold (their capacity, not their
    /// length).
    pub fn capacity_bytes(&self) -> usize {
        self.sources.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<f64>()
    }

    fn clear(&mut self, n: usize) {
        self.sources.clear();
        self.values.clear();
        self.n = n;
    }

    fn denominators(&self) -> &[f64] {
        self.values.get(..self.n).unwrap_or(&[])
    }

    /// The split denominators and the last row, for propagation.
    fn last_row(&mut self) -> (&[f64], &mut [f64]) {
        let n = self.n;
        let Some((denom, rest)) = self.values.split_at_mut_checked(n) else {
            return (&[], &mut []);
        };
        let at = rest.len().saturating_sub(n);
        (denom, rest.get_mut(at..).unwrap_or(&mut []))
    }

    /// The Eq. 3–4 reduction: each source's node score is the least
    /// populous message type arriving there — the minimum over the *other*
    /// sources' flows into its position (Eq. 3) — and the tree score is
    /// their mean (Eq. 4). A lone source has no incoming messages and
    /// scores its own generation count (see DESIGN.md). `None` when the
    /// matrix has no source.
    ///
    /// With `per_source`, also appends each source's `(node score, row of
    /// the source whose flow was the minimum)`; ties keep the first row.
    pub fn reduce(&self, mut per_source: Option<&mut Vec<(f64, Option<usize>)>>) -> Option<f64> {
        let count = self.sources.len();
        if count == 0 {
            return None;
        }
        let mut sum = 0.0;
        for (i, &pos) in self.sources.iter().enumerate() {
            let pos = pos as usize;
            let (mut min, mut argmin) = (f64::INFINITY, None);
            if count == 1 {
                min = self.value(i, pos);
            }
            for j in (0..count).filter(|&j| j != i) {
                let f = self.value(j, pos);
                if f < min {
                    min = f;
                    argmin = Some(j);
                }
            }
            sum += min;
            if let Some(rec) = per_source.as_deref_mut() {
                rec.push((min, argmin));
            }
        }
        Some(sum / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_graph::GraphBuilder;

    /// Path 0 — 1 — 2 with unit weights; importance p.
    fn path3(p: Vec<f64>) -> (Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[1], n[2], 1.0, 1.0);
        (b.build(), p)
    }

    fn p_min(p: &[f64]) -> f64 {
        p.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn generation_formula() {
        let (g, p) = path3(vec![0.2, 0.3, 0.5]);
        let s = Scorer::new(&g, &p, p_min(&p), Dampening::paper_default());
        // t = 1/0.2 = 5; gen = 5 · 0.5 · 2 / 4 = 1.25.
        let gen = s.generation(NodeId(2), 2, 4);
        assert!((gen - 1.25).abs() < 1e-12);
        assert_eq!(s.total_surfers(), 5.0);
    }

    #[test]
    fn flows_on_a_path_dampen_at_each_node() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let s = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let tree = Jtt::new(vec![NodeId(0), NodeId(1), NodeId(2)], vec![(0, 1), (1, 2)]).unwrap();
        let f = s.flows_from(&tree, 0, 8.0);
        assert_eq!(f[0], 8.0);
        // Node 0's only tree neighbor is 1; all messages go there, then
        // dampen by d_1. Expected f1 = 8 · d(v1).
        let d1 = s.dampening(NodeId(1));
        assert!((f[1] - 8.0 * d1).abs() < 1e-9);
        // From node 1 (degree 2): denominator = w(1→0) + w(1→2) = 2, half
        // the leaving messages return toward the source and are discarded.
        let d2 = s.dampening(NodeId(2));
        assert!((f[2] - f[1] * 0.5 * d2).abs() < 1e-9);
        assert!(f[2] < f[1] && f[1] < f[0]);
    }

    #[test]
    fn asymmetric_weights_split_proportionally() {
        // Star: center 0 with leaves 1, 2, 3. w(0→1)=1, w(0→2)=2, w(0→3)=1.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[0], n[2], 2.0, 1.0);
        b.add_pair(n[0], n[3], 1.0, 1.0);
        let g = b.build();
        let p = vec![0.4, 0.2, 0.2, 0.2];
        let s = Scorer::new(&g, &p, 0.2, Dampening::paper_default());
        let tree = Jtt::new(vec![n[1], n[0], n[2], n[3]], vec![(0, 1), (1, 2), (1, 3)]).unwrap();
        // Source at leaf 1 (tree pos 0); messages pass through the center.
        let f = s.flows_from(&tree, 0, 10.0);
        // Center (tree pos 1) receives everything (its only path), dampened.
        let d_center = s.dampening(n[0]);
        assert!((f[1] - 10.0 * d_center).abs() < 1e-9);
        // Out of the center, denominator = 1 + 2 + 1 = 4; leaf 2 gets share
        // 2/4, leaf 3 gets 1/4 (the 1/4 toward the source is discarded).
        let d_leaf = s.dampening(n[2]);
        assert!((f[2] - f[1] * 0.5 * d_leaf).abs() < 1e-9);
        assert!((f[3] - f[1] * 0.25 * d_leaf).abs() < 1e-9);
    }

    #[test]
    fn single_non_free_node_scores_by_generation() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let s = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let tree = Jtt::singleton(NodeId(1));
        let score = s.score_tree(
            &tree,
            &[NodeBinding {
                pos: 0,
                match_count: 2,
                word_count: 2,
            }],
        );
        // gen = 4 · 0.5 · 2/2 = 2.
        assert!((score.score - 2.0).abs() < 1e-12);
    }

    #[test]
    fn two_matcher_chain_scores_min_flow_average() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let s = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let tree = Jtt::new(vec![NodeId(0), NodeId(1), NodeId(2)], vec![(0, 1), (1, 2)]).unwrap();
        let bind = [
            NodeBinding {
                pos: 0,
                match_count: 1,
                word_count: 2,
            },
            NodeBinding {
                pos: 2,
                match_count: 1,
                word_count: 2,
            },
        ];
        let ts = s.score_tree(&tree, &bind);
        // Symmetric ⇒ both node scores equal; score = node score.
        assert!((ts.node_scores[0] - ts.node_scores[1]).abs() < 1e-12);
        assert!((ts.score - ts.node_scores[0]).abs() < 1e-12);
        assert!(ts.score > 0.0);
    }

    #[test]
    fn important_connector_scores_higher() {
        // Two parallel 3-node chains differing only in the middle node's
        // importance — the paper's TSIMMIS example: the better-cited paper
        // must win.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
        // n0 — n1 — n2 (weak middle), n0 — n3 — n2 (strong middle).
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[1], n[2], 1.0, 1.0);
        b.add_pair(n[0], n[3], 1.0, 1.0);
        b.add_pair(n[3], n[2], 1.0, 1.0);
        let g = b.build();
        let p = vec![0.2, 0.05, 0.2, 0.55];
        let s = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let bind = |t: &Jtt| {
            vec![
                NodeBinding {
                    pos: t.position(n[0]).unwrap(),
                    match_count: 1,
                    word_count: 2,
                },
                NodeBinding {
                    pos: t.position(n[2]).unwrap(),
                    match_count: 1,
                    word_count: 2,
                },
            ]
        };
        let weak = Jtt::new(vec![n[0], n[1], n[2]], vec![(0, 1), (1, 2)]).unwrap();
        let strong = Jtt::new(vec![n[0], n[3], n[2]], vec![(0, 1), (1, 2)]).unwrap();
        let sw = s.score_tree(&weak, &bind(&weak)).score;
        let st = s.score_tree(&strong, &bind(&strong)).score;
        assert!(st > sw, "important connector {st} must beat {sw}");
    }

    #[test]
    fn smaller_trees_preferred_all_else_equal() {
        // Chain of 5 equal-importance nodes; matchers at the ends of a
        // 3-node subtree vs the full 5-node chain (Table I, property 2).
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node(0, vec![])).collect();
        for w in n.windows(2) {
            b.add_pair(w[0], w[1], 1.0, 1.0);
        }
        let g = b.build();
        let p = vec![0.2; 5];
        let s = Scorer::new(&g, &p, 0.2, Dampening::paper_default());
        let short = Jtt::new(vec![n[0], n[1], n[2]], vec![(0, 1), (1, 2)]).unwrap();
        let long = Jtt::new(
            vec![n[0], n[1], n[2], n[3], n[4]],
            vec![(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        .unwrap();
        let b2 = |a: usize, b_: usize| {
            vec![
                NodeBinding {
                    pos: a,
                    match_count: 1,
                    word_count: 2,
                },
                NodeBinding {
                    pos: b_,
                    match_count: 1,
                    word_count: 2,
                },
            ]
        };
        let s_short = s.score_tree(&short, &b2(0, 2)).score;
        let s_long = s.score_tree(&long, &b2(0, 4)).score;
        assert!(s_short > s_long);
    }

    #[test]
    fn min_flow_selects_weakest_source() {
        // Star center is the destination matcher; two sources with very
        // different importance — the min picks the weaker flow (Eq. 3).
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[1], n[0], 1.0, 1.0);
        b.add_pair(n[2], n[0], 1.0, 1.0);
        let g = b.build();
        let p = vec![0.1, 0.8, 0.1];
        let s = Scorer::new(&g, &p, 0.1, Dampening::paper_default());
        let tree = Jtt::new(vec![n[0], n[1], n[2]], vec![(0, 1), (0, 2)]).unwrap();
        let bind = [
            NodeBinding {
                pos: 0,
                match_count: 1,
                word_count: 1,
            },
            NodeBinding {
                pos: 1,
                match_count: 1,
                word_count: 1,
            },
            NodeBinding {
                pos: 2,
                match_count: 1,
                word_count: 1,
            },
        ];
        let ts = s.score_tree(&tree, &bind);
        let f_weak = s.flows_from(&tree, 2, s.generation(n[2], 1, 1));
        // Node 0's score is min over sources 1 and 2 — the weak source 2.
        assert!((ts.node_scores[0] - f_weak[0]).abs() < 1e-12);
    }

    #[test]
    fn precomputed_dampening_matches_on_demand() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let on_demand = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let damp = on_demand.dampening_vector();
        let precomputed =
            Scorer::with_dampening_vector(&g, &p, 0.25, Dampening::paper_default(), &damp);
        for v in g.nodes() {
            assert_eq!(on_demand.dampening(v), precomputed.dampening(v));
        }
        // Tree scores agree bit-for-bit too.
        let tree = Jtt::new(vec![NodeId(0), NodeId(1), NodeId(2)], vec![(0, 1), (1, 2)]).unwrap();
        let bind = [
            NodeBinding {
                pos: 0,
                match_count: 1,
                word_count: 2,
            },
            NodeBinding {
                pos: 2,
                match_count: 1,
                word_count: 2,
            },
        ];
        assert_eq!(
            on_demand.score_tree(&tree, &bind).score,
            precomputed.score_tree(&tree, &bind).score
        );
    }

    #[test]
    #[should_panic(expected = "at least one non-free")]
    fn empty_bindings_rejected() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let s = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        s.score_tree(&Jtt::singleton(NodeId(0)), &[]);
    }
}
