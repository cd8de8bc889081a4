use ci_graph::{Graph, NodeId};

use crate::oracle::DistanceOracle;
use crate::parallel::PairRows;

/// §V-A naive index: exact shortest distances and maximal retention factors
/// for every node pair within `cap` hops.
///
/// Build cost is one hop-layered DP ([`ci_graph::hop_bounded_costs`]) per
/// node, which relaxes only the edges out of nodes whose cost fell in the
/// layer before (`O(cap · |E|)` at worst); the pairs land in flat
/// per-source rows in source order, so nothing is hashed or sorted. Space
/// is `O(|V|²)` in the worst case (the paper's motivation for star
/// indexing). Use it on samples or as the exactness oracle in tests.
pub struct NaiveIndex {
    cap: u32,
    // (u, v) -> (distance, retention upper bound)
    rows: PairRows,
    damp: Vec<f64>,
    d_max: f64,
}

impl NaiveIndex {
    /// Builds the index. `damp[i]` is the dampening rate of node `i`
    /// (Eq. 2, supplied by the RWMP scorer); `cap` bounds the stored hop
    /// distance and should be at least the search diameter `D`.
    pub fn build(graph: &Graph, damp: &[f64], cap: u32) -> Self {
        Self::build_with_threads(graph, damp, cap, 1)
    }

    /// Like [`NaiveIndex::build`], with the per-source traversals fanned
    /// out over `threads` scoped workers. Sources are partitioned into
    /// contiguous chunks and each row is computed independently, so the
    /// resulting tables are bit-identical at every thread count
    /// (`threads <= 1` is exactly the serial build).
    pub fn build_with_threads(graph: &Graph, damp: &[f64], cap: u32, threads: usize) -> Self {
        assert_eq!(
            damp.len(),
            graph.node_count(),
            "dampening vector length mismatch"
        );
        let d_max = damp.iter().cloned().fold(0.0f64, f64::max).min(1.0);
        NaiveIndex {
            cap,
            rows: PairRows::build(graph, damp, cap, threads, |_| true),
            damp: damp.to_vec(),
            d_max,
        }
    }

    /// Canonical serialization of the stored tables — the paper's `DS`
    /// (hop distance) and `LS` (retention, stored bit-exact via
    /// `f64::to_bits`) columns in ascending `(u, v)` order. Two builds
    /// produce equal bytes here iff their tables are identical bit for
    /// bit; the parallel-build determinism harness compares these.
    pub fn table_bytes(&self) -> Vec<u8> {
        self.rows.table_bytes()
    }

    /// The hop cap the index was built with.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// Exact distance, if the pair lies within the cap.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        self.rows.get(u, v).map(|e| e.0)
    }
}

impl DistanceOracle for NaiveIndex {
    fn dist_lb(&self, u: NodeId, v: NodeId) -> u32 {
        if u == v {
            return 0;
        }
        match self.rows.get(u, v) {
            Some((d, _)) => d,
            // Not reachable within cap hops ⇒ distance ≥ cap + 1.
            None => self.cap + 1,
        }
    }

    fn retention_ub(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 1.0;
        }
        match self.rows.get(u, v) {
            Some((_, r)) => r.min(self.damp.get(v.idx()).copied().unwrap_or(1.0)),
            // Any path has more than `cap` hops, each retaining ≤ d_max.
            None => self.d_max.powi(self.cap as i32 + 1),
        }
    }

    /// Both bounds out of a single `DS`/`LS` row lookup — the memo layer's
    /// miss path calls this, one row search per probe.
    fn probe(&self, u: NodeId, v: NodeId) -> (u32, f64) {
        if u == v {
            return (0, 1.0);
        }
        match self.rows.get(u, v) {
            Some((d, r)) => (d, r.min(self.damp.get(v.idx()).copied().unwrap_or(1.0))),
            None => (self.cap + 1, self.d_max.powi(self.cap as i32 + 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_graph::GraphBuilder;

    /// Path 0 — 1 — 2 — 3 with per-node dampening rates.
    fn path4() -> (Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
        for w in n.windows(2) {
            b.add_pair(w[0], w[1], 1.0, 1.0);
        }
        (b.build(), vec![0.5, 0.25, 0.5, 0.8])
    }

    #[test]
    fn distances_are_exact_within_cap() {
        let (g, d) = path4();
        let idx = NaiveIndex::build(&g, &d, 3);
        assert_eq!(idx.distance(NodeId(0), NodeId(3)), Some(3));
        assert_eq!(idx.distance(NodeId(0), NodeId(0)), Some(0));
        assert_eq!(idx.dist_lb(NodeId(0), NodeId(2)), 2);
    }

    #[test]
    fn beyond_cap_lower_bound_is_cap_plus_one() {
        let (g, d) = path4();
        let idx = NaiveIndex::build(&g, &d, 2);
        assert_eq!(idx.distance(NodeId(0), NodeId(3)), None);
        assert_eq!(idx.dist_lb(NodeId(0), NodeId(3)), 3);
    }

    #[test]
    fn retention_is_product_of_dampening() {
        let (g, d) = path4();
        let idx = NaiveIndex::build(&g, &d, 3);
        // 0 → 3 passes nodes 1, 2, 3: retention = 0.25 · 0.5 · 0.8.
        let r = idx.retention_ub(NodeId(0), NodeId(3));
        assert!((r - 0.25 * 0.5 * 0.8).abs() < 1e-12, "retention {r}");
        // Adjacent: only the destination dampens.
        let r1 = idx.retention_ub(NodeId(0), NodeId(1));
        assert!((r1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn retention_picks_best_path() {
        // Two 2-hop routes from 0 to 3: via 1 (damp 0.9) or via 2 (damp 0.1).
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[1], n[3], 1.0, 1.0);
        b.add_pair(n[0], n[2], 1.0, 1.0);
        b.add_pair(n[2], n[3], 1.0, 1.0);
        let g = b.build();
        let damp = vec![0.5, 0.9, 0.1, 0.5];
        let idx = NaiveIndex::build(&g, &damp, 4);
        let r = idx.retention_ub(NodeId(0), NodeId(3));
        assert!(
            (r - 0.9 * 0.5).abs() < 1e-12,
            "best path via node 1, got {r}"
        );
    }

    #[test]
    fn retention_beyond_cap_uses_dmax_power() {
        let (g, d) = path4();
        let idx = NaiveIndex::build(&g, &d, 1);
        let r = idx.retention_ub(NodeId(0), NodeId(3));
        assert!((r - 0.8f64.powi(2)).abs() < 1e-12);
    }

    #[test]
    fn longer_path_can_retain_more_than_shortest() {
        // Shortest path 0→3 is 2 hops via a terrible node; a 3-hop detour
        // through good nodes retains more. The index must report the best
        // retention, not the shortest path's.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0); // bad middle
        b.add_pair(n[1], n[3], 1.0, 1.0);
        b.add_pair(n[0], n[2], 1.0, 1.0); // good detour start
        b.add_pair(n[2], n[4], 1.0, 1.0);
        b.add_pair(n[4], n[3], 1.0, 1.0);
        let g = b.build();
        let damp = vec![0.5, 0.01, 0.9, 0.5, 0.9];
        let idx = NaiveIndex::build(&g, &damp, 4);
        assert_eq!(idx.distance(NodeId(0), NodeId(3)), Some(2));
        let r = idx.retention_ub(NodeId(0), NodeId(3));
        assert!(
            (r - 0.9 * 0.9 * 0.5).abs() < 1e-12,
            "detour retention, got {r}"
        );
    }

    #[test]
    fn cap_boundary_exact_and_beyond() {
        // Path 0 — 1 — 2 — 3 — 4 — 5 with cap 4: node 4 sits at exactly
        // `cap` hops from node 0 (stored, exact), node 5 at `cap + 1`
        // (must be absent — a clamped Some(cap) would claim exactness for
        // an out-of-range pair).
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..6).map(|_| b.add_node(0, vec![])).collect();
        for w in n.windows(2) {
            b.add_pair(w[0], w[1], 1.0, 1.0);
        }
        let g = b.build();
        let damp = vec![0.5; 6];
        let cap = 4;
        let idx = NaiveIndex::build(&g, &damp, cap);
        assert_eq!(idx.distance(NodeId(0), NodeId(4)), Some(cap));
        assert_eq!(idx.dist_lb(NodeId(0), NodeId(4)), cap);
        assert_eq!(
            idx.distance(NodeId(0), NodeId(5)),
            None,
            "a frontier cut at the cap must not clamp"
        );
        assert_eq!(idx.dist_lb(NodeId(0), NodeId(5)), cap + 1);
        // The cap+1 pair's retention falls back to the d_max power bound.
        let r = idx.retention_ub(NodeId(0), NodeId(5));
        assert!((r - 0.5f64.powi(cap as i32 + 1)).abs() < 1e-12);
    }

    #[test]
    fn parallel_build_tables_are_byte_equal() {
        let (g, d) = path4();
        let serial = NaiveIndex::build(&g, &d, 3).table_bytes();
        for threads in [2, 3, 8] {
            let par = NaiveIndex::build_with_threads(&g, &d, 3, threads);
            assert_eq!(par.table_bytes(), serial, "{threads} threads diverged");
            assert_eq!(par.len(), 12);
        }
    }

    #[test]
    fn size_accounting() {
        let (g, d) = path4();
        let idx = NaiveIndex::build(&g, &d, 3);
        // Path of 4 nodes: all 12 ordered pairs are within 3 hops.
        assert_eq!(idx.len(), 12);
        assert!(!idx.is_empty());
        assert_eq!(idx.cap(), 3);
    }
}
