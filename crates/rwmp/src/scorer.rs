use ci_graph::{Graph, NodeId};

use crate::dampen::{dampening_rate, Dampening};
use crate::tree::{Jtt, ParentTree};

/// Evaluates the RWMP scoring function over a data graph.
///
/// Holds the node importance vector `p` (from `ci-walk`), the derived
/// `p_min` / total surfer count `t`, and the dampening configuration.
pub struct Scorer<'g> {
    graph: &'g Graph,
    p: &'g [f64],
    p_min: f64,
    /// Eq. 2 rate of the most important node, [`Scorer::max_dampening`].
    max_damp: f64,
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
            max_damp: dampening_rate(dampening, p_max, p_min),
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
    /// Computed once, at construction.
    pub fn max_dampening(&self) -> f64 {
        self.max_damp
    }

    /// Message generation count `r_ii = t · p_i · |v_i ∩ Q| / |v_i|`
    /// (§III-C.1).
    pub fn generation(&self, v: NodeId, match_count: u32, word_count: u32) -> f64 {
        assert!(word_count > 0, "word count must be positive for a matcher");
        self.t * self.importance(v) * match_count as f64 / word_count as f64
    }

    /// The Eq. 2 flow matrix of a finished tree rooted at position 0
    /// ([`Jtt::parent_positions`]): one row per `(source position,
    /// generation count)`, in the order given. [`FlowState::reduce`] turns
    /// it into the Eq. 3 node scores and the Eq. 4 tree score.
    ///
    /// Each row holds, per tree position `i`, the *leaving* message count
    /// `f_{src,i}` (received messages dampened by `d_i`); the source
    /// position itself carries its full generation count. Splits follow
    /// the paper's rule: the share over edge `(m,k)` is
    /// `w_mk / Σ_{n ∈ N(v_m) ∩ V(T)} w_mn` with the denominator summing the
    /// weights toward *all* tree neighbors of `v_m` — including the one the
    /// messages came from, whose share is sent back and discarded.
    pub fn tree_flows(
        &self,
        tree: &Jtt,
        sources: impl IntoIterator<Item = (usize, f64)>,
    ) -> FlowState {
        let parent = tree.parent_positions();
        let mut flows = FlowState::default();
        self.fill_flows(ParentTree::new(tree.nodes(), &parent), sources, &mut flows);
        flows
    }

    /// Fills `out` with the Eq. 2 flow matrix of `tree`: one row per
    /// `(source position, generation count)`, in the order given. The
    /// tree's edge table is loaded first, with the only weight lookups of
    /// the fill: two per edge.
    pub fn fill_flows(
        &self,
        tree: ParentTree<'_>,
        sources: impl IntoIterator<Item = (usize, f64)>,
        out: &mut FlowState,
    ) {
        out.clear(tree.size());
        self.load_table(tree, out);
        for (src, gen) in sources {
            out.push_source(src, gen);
        }
    }

    /// Advances `prev`, the flow matrix of `prev_tree`, to `out`, the
    /// matrix of `prev_tree` grown by `new_root`: a new root at position 0
    /// that adopts `prev_tree`'s root as its only child, every position
    /// shifted up by one. `root_gen` is the new root's generation count
    /// when it is a source; its row comes first, then `prev`'s sources in
    /// order.
    ///
    /// Bit-identical to [`Scorer::fill_flows`] over the grown tree. The
    /// one new edge changes only the old root's denominator, so each of
    /// `prev`'s rows is copied one position up and only what leaves the
    /// old root is recomputed: the new root's entry, and the subtrees of
    /// the old root's other children (all of them when the old root is
    /// the row's source). Only a source new root sweeps a whole row.
    /// `prev`'s edge table is loaded (on first use, then kept) only when
    /// a grow reads it: a source new root, a branched old root, or an old
    /// root that is a source with children. Otherwise the old root's
    /// denominator needs one weight toward its child, looked up once per
    /// `prev` and cached.
    pub fn grow_flows(
        &self,
        prev_tree: ParentTree<'_>,
        prev: &mut FlowState,
        new_root: NodeId,
        root_gen: Option<f64>,
        out: &mut FlowState,
    ) {
        debug_assert_eq!(prev_tree.size(), prev.n, "prev holds prev_tree's flows");
        out.clear(prev.n + 1);
        let old_root = prev_tree.node(0).unwrap_or(new_root);
        let (up, down) = self.weights(old_root, new_root);
        let damp = self.dampening(new_root);
        let mut children = (1..prev.n).filter(|&k| prev_tree.parent(k) == Some(0));
        let child = children.next();
        let branched = children.next().is_some();
        let root_source = prev.sources.contains(&0);
        // The old root's denominator: the new root is its first
        // neighbour, then its children in ascending position.
        let denom = if root_gen.is_some() || branched || (root_source && child.is_some()) {
            if !prev.loaded {
                self.load_table(prev_tree, prev);
            }
            out.grow_table(prev, up, down, damp)
        } else if let Some(c) = child {
            up + self.root_down(prev_tree, prev, c)
        } else {
            up
        };
        if let Some(gen) = root_gen {
            out.push_source(0, gen);
        }
        for (s, &src) in prev.sources.iter().enumerate() {
            let row = prev.row(s);
            let leaving = row.first().copied().unwrap_or(0.0);
            out.sources.push(src + 1);
            out.values.push(share(leaving, up, denom, damp));
            out.values.extend_from_slice(row);
            if branched || (src == 0 && child.is_some()) {
                out.reroute_last(src as usize + 1);
            }
        }
    }

    /// `w(root → child)` of `tree`'s root and its only child `child`,
    /// cached in `flows` until it is cleared.
    fn root_down(&self, tree: ParentTree<'_>, flows: &mut FlowState, child: usize) -> f64 {
        if let Some(w) = flows.root_down {
            return w;
        }
        let w = match (tree.node(0), tree.node(child)) {
            (Some(root), Some(v)) => self.graph.edge_weight(root, v).unwrap_or(0.0),
            _ => 0.0,
        };
        flows.root_down = Some(w);
        w
    }

    /// Weights `(w(child → parent), w(parent → child))` of a tree edge,
    /// 0 for a missing direction (edge weights are positive).
    fn weights(&self, child: NodeId, parent: NodeId) -> (f64, f64) {
        (
            self.graph.edge_weight(child, parent).unwrap_or(0.0),
            self.graph.edge_weight(parent, child).unwrap_or(0.0),
        )
    }

    /// Loads `tree`'s edge table into `flows`: per position its parent,
    /// both edge weights toward it and its dampening rate, then the
    /// parent-before-child order and the split denominators.
    fn load_table(&self, tree: ParentTree<'_>, flows: &mut FlowState) {
        flows.links.clear();
        for pos in 0..tree.size() {
            let p = tree.parent(pos).unwrap_or(0);
            let (up, down) = match (tree.node(pos), tree.node(p)) {
                (Some(v), Some(vp)) if pos != 0 => self.weights(v, vp),
                _ => (0.0, 0.0),
            };
            flows.links.push(Link {
                parent: u32::try_from(p).unwrap_or(0),
                up,
                down,
                damp: tree.node(pos).map_or(0.0, |v| self.dampening(v)),
                denom: 0.0,
                mark: false,
            });
        }
        flows.index_table();
    }
}

/// One tree position in a [`FlowState`]'s edge table.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// Parent position (the root, position 0, is its own parent).
    parent: u32,
    /// Scratch flag: while a row is pushed, the position is on the path
    /// from its source to the root; while the table is indexed, it is
    /// placed in the order (and then, its parent term is summed); while
    /// a grown row is rerouted, its entry is redone.
    mark: bool,
    /// `w(v_i → v_parent)`, 0 when missing or at the root.
    up: f64,
    /// `w(v_parent → v_i)`, 0 when missing or at the root.
    down: f64,
    /// Dampening rate `d_i` of the position's node.
    damp: f64,
    /// Eq. 2 split denominator: the weights from `v_i` toward all its
    /// tree neighbours, summed in ascending neighbour position.
    denom: f64,
}

/// The Eq. 2 share of `leaving` messages sent over an edge of weight `w`
/// (0 when missing) out of a node with split denominator `d`, dampened on
/// arrival by `damp`. Nothing moves when the sender holds no messages or
/// has no outgoing weight.
#[inline]
fn share(leaving: f64, w: f64, d: f64, damp: f64) -> f64 {
    if leaving <= 0.0 || d <= 0.0 || w <= 0.0 {
        return 0.0;
    }
    leaving * w / d * damp
}

/// The Eq. 2 flow matrix of one tree: for each message source, the flow it
/// delivers to every tree position. Filled by [`Scorer::fill_flows`] or
/// [`Scorer::grow_flows`] and reduced to Eqs. 3–4 by
/// [`FlowState::reduce`]. Its buffers keep their capacity, so a reused
/// matrix does not allocate.
///
/// Besides the rows it holds the tree's edge table: per position, its
/// parent, the edge weights toward it, its dampening rate and its split
/// denominator, plus a parent-before-child order. A row is then one walk
/// from the source up to the root and one sweep down the order, reading
/// no weight. The table is scratch: [`FlowState::parts`] leaves it out,
/// and [`FlowState::assign_parts`] marks it unloaded.
#[derive(Debug, Default, Clone)]
pub struct FlowState {
    /// Source positions (row order).
    sources: Vec<u32>,
    /// Row-major, one row of `n` per source.
    values: Vec<f64>,
    /// Number of tree positions (the row width).
    n: usize,
    /// The edge table, one entry per position.
    links: Vec<Link>,
    /// Positions, every parent before its children.
    order: Vec<u32>,
    /// True when `links` and `order` describe the rows' tree.
    loaded: bool,
    /// `w(root → child)` when the root has one child, cached by the
    /// first grow that reads it without loading the table.
    root_down: Option<f64>,
}

impl FlowState {
    /// Source positions, in row order.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Flow of source row `s` at tree position `pos`. Out-of-range reads
    /// return `+∞`, so a missing entry can never lower a bound.
    pub fn value(&self, s: usize, pos: usize) -> f64 {
        if pos >= self.n {
            return f64::INFINITY;
        }
        self.values
            .get(s.saturating_mul(self.n).saturating_add(pos))
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// Source row `s` (empty when out of range).
    pub fn row(&self, s: usize) -> &[f64] {
        self.values
            .get(s.saturating_mul(self.n)..)
            .and_then(|rest| rest.get(..self.n))
            .unwrap_or(&[])
    }

    /// The matrix's raw parts — source positions, then the row-major
    /// values, one row per source — for flat storage outside the matrix.
    /// [`FlowState::assign_parts`] restores them.
    pub fn parts(&self) -> (&[u32], &[f64]) {
        (&self.sources, &self.values)
    }

    /// Overwrites `self` with parts read from [`FlowState::parts`] of a
    /// matrix over `n` tree positions, reusing the buffers. The edge table
    /// is not among the parts: [`Scorer::grow_flows`] reloads it on first
    /// use.
    pub fn assign_parts(&mut self, sources: &[u32], values: &[f64], n: usize) {
        debug_assert_eq!(values.len(), sources.len() * n, "row-major parts");
        self.clear(n);
        self.sources.extend_from_slice(sources);
        self.values.extend_from_slice(values);
    }

    /// Heap bytes the matrix's buffers hold (their capacity, not their
    /// length), the edge table included.
    pub fn capacity_bytes(&self) -> usize {
        (self.sources.capacity() + self.order.capacity()) * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<f64>()
            + self.links.capacity() * std::mem::size_of::<Link>()
    }

    fn clear(&mut self, n: usize) {
        self.sources.clear();
        self.values.clear();
        self.links.clear();
        self.order.clear();
        self.loaded = false;
        self.root_down = None;
        self.n = n;
    }

    /// Loads the table of `prev`'s tree grown by a new root with dampening
    /// rate `damp` over an edge of weights `up` (old root → new root) and
    /// `down` (back): `prev`'s table shifted by one position, with the new
    /// root first and the old root's denominator, which it returns,
    /// recomputed.
    fn grow_table(&mut self, prev: &FlowState, up: f64, down: f64, damp: f64) -> f64 {
        // The new root's one neighbour is the old root.
        self.links.push(Link {
            damp,
            denom: down,
            ..Link::default()
        });
        self.links.extend(prev.links.iter().map(|l| Link {
            parent: l.parent + 1,
            ..*l
        }));
        self.order.push(0);
        self.order.extend(prev.order.iter().map(|&k| k + 1));
        let mut denom = up;
        for l in self.links.iter().skip(2).filter(|l| l.parent == 1) {
            denom += l.down;
        }
        if let Some(l) = self.links.get_mut(1) {
            *l = Link {
                parent: 0,
                up,
                down,
                denom,
                ..*l
            };
        }
        self.loaded = true;
        denom
    }

    /// Recomputes the entries of the last row that the grown table's new
    /// old-root denominator changes: the subtrees of the old root's
    /// (position 1's) children, except the one holding the row's source
    /// `src`. Down the order, a position is redone when its parent is the
    /// old root and it is not on the source's side, or when its parent
    /// was redone; every other entry keeps its operands.
    fn reroute_last(&mut self, src: usize) {
        let start = self.values.len().saturating_sub(self.n);
        let row = self.values.get_mut(start..).unwrap_or(&mut []);
        let links = &mut self.links;
        // The old root's child on the source's side (the old root itself
        // when it is the source, which leaves no side untouched).
        let mut side = src;
        while let Some(l) = links.get(side).filter(|l| l.parent > 1) {
            side = l.parent as usize;
        }
        for &k in &self.order {
            let k = k as usize;
            let Some(&l) = links.get(k) else {
                continue;
            };
            let p = l.parent as usize;
            let redo = match p {
                0 => false,
                1 => k != side,
                _ => links.get(p).is_some_and(|l| l.mark),
            };
            if let Some(l) = links.get_mut(k) {
                l.mark = redo;
            }
            if redo {
                let leaving = row.get(p).copied().unwrap_or(0.0);
                let denom = links.get(p).map_or(0.0, |l| l.denom);
                if let Some(slot) = row.get_mut(k) {
                    *slot = share(leaving, l.down, denom, l.damp);
                }
            }
        }
        for l in links.iter_mut() {
            l.mark = false;
        }
    }

    /// Completes a table whose links hold parents and weights: the
    /// parent-before-child order, then the split denominators. Both are
    /// one pass for any parent array, also one that numbers a parent
    /// after its child (as [`Jtt::parent_positions`] may).
    fn index_table(&mut self) {
        let links = &mut self.links;
        // Order: walk up from each unplaced position to its first placed
        // ancestor, then append that path top-down.
        self.order.clear();
        if let Some(root) = links.first_mut() {
            root.mark = true;
            self.order.push(0);
        }
        for start in 1..links.len() {
            let at = self.order.len();
            let mut k = start;
            while let Some(l) = links.get_mut(k).filter(|l| !l.mark) {
                l.mark = true;
                self.order.push(u32::try_from(k).unwrap_or(0));
                k = l.parent as usize;
            }
            if let Some(path) = self.order.get_mut(at..) {
                path.reverse();
            }
        }
        for l in links.iter_mut() {
            l.mark = false;
        }
        // Denominators, in ascending neighbour position: child `k` adds
        // `down[k]` to its parent's sum in ascending `k`, and a position's
        // own parent term joins its sum just before the first child
        // numbered after the parent, or last.
        for k in 1..links.len() {
            let Some(&Link { parent, down, .. }) = links.get(k) else {
                break;
            };
            let p = parent as usize;
            let grand = links.get(p).map_or(0, |l| l.parent as usize);
            if let Some(l) = links.get_mut(p) {
                if p != 0 && !l.mark && grand < k {
                    l.denom += l.up;
                    l.mark = true;
                }
                l.denom += down;
            }
        }
        for l in links.iter_mut().skip(1) {
            if !l.mark {
                l.denom += l.up;
            }
            l.mark = false;
        }
        self.loaded = true;
    }

    /// Appends the row of source `src` holding `gen` messages, propagated
    /// through the whole tree: first up the path from the source to the
    /// root, then down the order to every other position, each from the
    /// neighbour the messages arrive through — its parent.
    fn push_source(&mut self, src: usize, gen: f64) {
        self.sources.push(u32::try_from(src).unwrap_or(u32::MAX));
        let start = self.values.len();
        self.values.resize(start + self.n, 0.0);
        let links = &mut self.links;
        let row = self.values.get_mut(start..).unwrap_or(&mut []);
        if let Some(slot) = row.get_mut(src) {
            *slot = gen;
        }
        let mut k = src;
        while let Some(l) = links.get_mut(k).filter(|l| !l.mark) {
            l.mark = true;
            let (p, up, denom) = (l.parent as usize, l.up, l.denom);
            if p == k {
                break; // the root
            }
            let leaving = row.get(k).copied().unwrap_or(0.0);
            let damp = links.get(p).map_or(0.0, |l| l.damp);
            if let Some(slot) = row.get_mut(p) {
                *slot = share(leaving, up, denom, damp);
            }
            k = p;
        }
        for &k in &self.order {
            let k = k as usize;
            let Some(&l) = links.get(k) else {
                continue;
            };
            if l.mark {
                continue;
            }
            let p = l.parent as usize;
            let leaving = row.get(p).copied().unwrap_or(0.0);
            let denom = links.get(p).map_or(0.0, |l| l.denom);
            if let Some(slot) = row.get_mut(k) {
                *slot = share(leaving, l.down, denom, l.damp);
            }
        }
        let mut k = src;
        while let Some(l) = links.get_mut(k).filter(|l| l.mark) {
            l.mark = false;
            k = l.parent as usize;
        }
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

    /// One source per position, each matching one keyword of two words.
    fn sources(s: &Scorer<'_>, tree: &Jtt, positions: &[usize]) -> Vec<(usize, f64)> {
        positions
            .iter()
            .map(|&pos| (pos, s.generation(tree.node(pos), 1, 2)))
            .collect()
    }

    /// Eq. 4 tree score and Eq. 3 node scores of `tree` with `sources`.
    fn score(s: &Scorer<'_>, tree: &Jtt, sources: Vec<(usize, f64)>) -> (f64, Vec<f64>) {
        let mut per_source = Vec::new();
        let score = s.tree_flows(tree, sources).reduce(Some(&mut per_source));
        (
            score.unwrap(),
            per_source.into_iter().map(|(s, _)| s).collect(),
        )
    }

    #[test]
    fn flows_on_a_path_dampen_at_each_node() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let s = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let tree = Jtt::new(vec![NodeId(0), NodeId(1), NodeId(2)], vec![(0, 1), (1, 2)]).unwrap();
        let flows = s.tree_flows(&tree, [(0, 8.0)]);
        let f = flows.row(0);
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
        let flows = s.tree_flows(&tree, [(0, 10.0)]);
        let f = flows.row(0);
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
        let gen = s.generation(NodeId(1), 2, 2);
        let (score, _) = score(&s, &Jtt::singleton(NodeId(1)), vec![(0, gen)]);
        // gen = 4 · 0.5 · 2/2 = 2.
        assert!((score - 2.0).abs() < 1e-12);
    }

    #[test]
    fn two_matcher_chain_scores_min_flow_average() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let s = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let tree = Jtt::new(vec![NodeId(0), NodeId(1), NodeId(2)], vec![(0, 1), (1, 2)]).unwrap();
        let (score, nodes) = score(&s, &tree, sources(&s, &tree, &[0, 2]));
        // Symmetric ⇒ both node scores equal; score = node score.
        assert!((nodes[0] - nodes[1]).abs() < 1e-12);
        assert!((score - nodes[0]).abs() < 1e-12);
        assert!(score > 0.0);
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
        let weak = Jtt::new(vec![n[0], n[1], n[2]], vec![(0, 1), (1, 2)]).unwrap();
        let strong = Jtt::new(vec![n[0], n[3], n[2]], vec![(0, 1), (1, 2)]).unwrap();
        let (sw, _) = score(&s, &weak, sources(&s, &weak, &[0, 2]));
        let (st, _) = score(&s, &strong, sources(&s, &strong, &[0, 2]));
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
        let (s_short, _) = score(&s, &short, sources(&s, &short, &[0, 2]));
        let (s_long, _) = score(&s, &long, sources(&s, &long, &[0, 4]));
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
        let flows = s.tree_flows(&tree, (0..3).map(|pos| (pos, s.generation(n[pos], 1, 1))));
        let mut per_source = Vec::new();
        flows.reduce(Some(&mut per_source));
        // Node 0's score is min over sources 1 and 2 — the weak source 2.
        assert_eq!(per_source[0], (flows.value(2, 0), Some(2)));
        assert!(flows.value(2, 0) < flows.value(1, 0));
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
        let src = sources(&on_demand, &tree, &[0, 2]);
        assert_eq!(
            score(&on_demand, &tree, src.clone()).0.to_bits(),
            score(&precomputed, &tree, src).0.to_bits()
        );
    }

    /// The rate computed once at construction is the Eq. 2 rate of the
    /// most important node, bit for bit, under either dampening kind and
    /// with a precomputed per-node vector.
    #[test]
    fn max_dampening_is_the_rate_of_p_max() {
        let (g, p) = path3(vec![0.2, 0.5, 0.3]);
        for kind in [
            Dampening::paper_default(),
            Dampening::Logarithmic { alpha: 0.3, g: 3.0 },
            Dampening::Linear { p_max: 0.5 },
        ] {
            let want = dampening_rate(kind, 0.5, 0.2).to_bits();
            let s = Scorer::new(&g, &p, 0.2, kind);
            assert_eq!(s.max_dampening().to_bits(), want, "{kind:?}");
            let damp = s.dampening_vector();
            let v = Scorer::with_dampening_vector(&g, &p, 0.2, kind, &damp);
            assert_eq!(v.max_dampening().to_bits(), want, "{kind:?}");
        }
    }

    /// A tree with no source has no score: its flow matrix reduces to
    /// `None`, the answer-scoring contract for a tree without a matcher.
    #[test]
    fn no_sources_reduce_to_none() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let s = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let tree = Jtt::new(vec![NodeId(0), NodeId(1), NodeId(2)], vec![(0, 1), (1, 2)]).unwrap();
        let flows = s.tree_flows(&tree, []);
        assert!(flows.sources().is_empty());
        assert_eq!(flows.reduce(None), None);
        assert_eq!(
            s.tree_flows(&Jtt::singleton(NodeId(0)), []).reduce(None),
            None
        );
    }
}
