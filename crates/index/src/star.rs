use std::cmp::Reverse;

use ci_graph::{Graph, NodeId};

use crate::oracle::DistanceOracle;
use crate::parallel::PairRows;

/// How often each relation tag occurs in `tags`, indexed by tag.
fn count_tags(tags: impl Iterator<Item = u16>) -> Vec<usize> {
    let mut count = Vec::new();
    for t in tags.map(usize::from) {
        if count.len() <= t {
            count.resize(t + 1, 0);
        }
        if let Some(c) = count.get_mut(t) {
            *c += 1;
        }
    }
    count
}

/// The entry of `tag` in a [`count_tags`] table (0 past its end).
fn tag_count(count: &[usize], tag: u16) -> usize {
    count.get(usize::from(tag)).copied().unwrap_or(0)
}

/// Greedy detection of star relations: the smallest set of relation tags
/// (tables) such that every edge of the graph touches a node of one of
/// them. For the paper's schemas this finds `{Movie}` on IMDB and
/// `{Paper}` on DBLP.
pub fn detect_star_relations(graph: &Graph) -> Vec<u16> {
    // The relation tags of each undirected edge's endpoints.
    let mut uncovered: Vec<(u16, u16)> = Vec::new();
    for u in graph.nodes() {
        for e in graph.edges(u) {
            if u.0 < e.to.0 {
                uncovered.push((graph.relation(u), graph.relation(e.to)));
            }
        }
    }
    let rel_nodes = count_tags(graph.nodes().map(|v| graph.relation(v)));
    let mut chosen: Vec<u16> = Vec::new();
    while !uncovered.is_empty() {
        let count = count_tags(
            uncovered
                .iter()
                .flat_map(|&(ra, rb)| [Some(ra), (rb != ra).then_some(rb)])
                .flatten(),
        );
        // Prefer maximal edge coverage; break ties toward the relation with
        // fewer nodes (a smaller index) and then the smaller tag.
        let Some((best, _)) = (0..=u16::MAX)
            .zip(count)
            .filter(|&(_, c)| c > 0)
            .max_by_key(|&(rel, c)| (c, Reverse(tag_count(&rel_nodes, rel)), Reverse(rel)))
        else {
            // Unreachable: a non-empty uncovered set always yields
            // candidate relations. Stop rather than spin.
            break;
        };
        chosen.push(best);
        uncovered.retain(|&(ra, rb)| ra != best && rb != best);
    }
    chosen.sort_unstable();
    chosen
}

/// §V-B star index: only nodes of star relations are indexed.
///
/// The star property (every edge touches a star node, hence every non-star
/// node's neighbors are all star nodes) is validated at build time; the
/// three lookup cases of the paper rely on it.
///
/// Star-pair distances and retentions are exact within the cap. Lookups
/// involving non-star nodes apply the hop corrections of Fig. 5 and return
/// a distance **lower bound** and retention **upper bound**:
///
/// * distance, one non-star endpoint: `d(u,v) ≥ 1 + min_h d(u,h)` over the
///   non-star node's star neighbors `h` (the first hop off a non-star node
///   always lands on a star node);
/// * distance, two non-star endpoints: `d(u,v) ≥ 2 + min_{a,b} d(a,b)`;
/// * retention composes the same way: the star-to-star stretch is bounded
///   by the stored retention, and every extra hop multiplies a known
///   dampening factor ≤ 1.
pub struct StarIndex {
    cap: u32,
    star: Vec<bool>,
    rows: PairRows,
    damp: Vec<f64>,
    d_max: f64,
}

impl StarIndex {
    /// Builds the index over nodes whose relation tag is in
    /// `star_relations`. `damp[i]` is the dampening rate of node `i`; `cap`
    /// bounds the stored hop distance and should be at least the search
    /// diameter `D`.
    ///
    /// # Panics
    ///
    /// If some edge touches no star node (the star property would be
    /// violated and the bounds unsound).
    pub fn build(graph: &Graph, damp: &[f64], cap: u32, star_relations: &[u16]) -> Self {
        Self::build_with_threads(graph, damp, cap, star_relations, 1)
    }

    /// Like [`StarIndex::build`], with the per-star-node traversals fanned
    /// out over `threads` scoped workers in contiguous source chunks. The
    /// resulting tables are bit-identical at every thread count
    /// (`threads <= 1` is exactly the serial build).
    ///
    /// # Panics
    ///
    /// If some edge touches no star node (the star property would be
    /// violated and the bounds unsound).
    pub fn build_with_threads(
        graph: &Graph,
        damp: &[f64],
        cap: u32,
        star_relations: &[u16],
        threads: usize,
    ) -> Self {
        assert_eq!(
            damp.len(),
            graph.node_count(),
            "dampening vector length mismatch"
        );
        let rels = count_tags(star_relations.iter().copied());
        let star: Vec<bool> = graph
            .nodes()
            .map(|v| tag_count(&rels, graph.relation(v)) > 0)
            .collect();
        let starred = |v: NodeId| star.get(v.idx()).copied().unwrap_or(false);
        for u in graph.nodes() {
            if starred(u) {
                continue;
            }
            for n in graph.neighbors(u) {
                assert!(
                    starred(n),
                    "star property violated: edge {u}-{n} touches no star node"
                );
            }
        }
        let d_max = damp.iter().cloned().fold(0.0f64, f64::max).min(1.0);
        // The hop-layered DP of NaiveIndex::build, from and to star nodes.
        let rows = PairRows::build(graph, damp, cap, threads, starred);
        StarIndex {
            cap,
            star,
            rows,
            damp: damp.to_vec(),
            d_max,
        }
    }

    /// Canonical serialization of the star-pair tables (see
    /// [`crate::NaiveIndex::table_bytes`]), prefixed with the star-node
    /// bitmap so two builds are byte-equal here iff both the indexed pairs
    /// and the star partition agree exactly.
    pub fn table_bytes(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self.star.iter().map(|&s| u8::from(s)).collect();
        out.extend_from_slice(&self.rows.table_bytes());
        out
    }

    /// True if the node is a star node.
    pub fn is_star(&self, v: NodeId) -> bool {
        self.star.get(v.idx()).copied().unwrap_or(false)
    }

    /// Dampening rate of a node (1.0 for an unknown node — neutral under
    /// the multiplicative retention composition).
    fn damp_of(&self, v: NodeId) -> f64 {
        self.damp.get(v.idx()).copied().unwrap_or(1.0)
    }

    /// Number of stored star-node pairs.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.len() == 0
    }

    /// The hop cap the index was built with.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Wraps the index with its graph to form a [`DistanceOracle`].
    pub fn into_oracle(self, graph: &Graph) -> StarOracle<'_, StarIndex> {
        StarOracle { graph, index: self }
    }

    /// Borrowing variant of [`StarIndex::into_oracle`], for callers that
    /// keep the index alive elsewhere (e.g. the engine, which builds one
    /// oracle per query).
    pub fn oracle<'a>(&'a self, graph: &'a Graph) -> StarOracle<'a, &'a StarIndex> {
        StarOracle { graph, index: self }
    }

    /// Distance (exact-or-`cap+1`) and retention upper bound between two
    /// star nodes; `(0, 1.0)` when they coincide.
    fn star_pair(&self, u: NodeId, v: NodeId) -> (u32, f64) {
        if u == v {
            return (0, 1.0);
        }
        self.rows
            .get(u, v)
            .unwrap_or((self.cap + 1, self.d_max.powi(self.cap as i32 + 1)))
    }

    /// The star neighbors of a non-star node, straight off its CSR row:
    /// by the star property (checked at build) every neighbor of a
    /// non-star node is a star node, so there are `graph.out_degree(v)`
    /// of them.
    fn star_neighbors<'a>(
        &'a self,
        graph: &'a Graph,
        v: NodeId,
    ) -> impl Iterator<Item = NodeId> + 'a {
        debug_assert!(!self.is_star(v), "star neighbors of a star node");
        graph
            .neighbors(v)
            .inspect(|&n| debug_assert!(self.is_star(n), "star property violated at {n}"))
    }
}

/// Above this many (star-neighbor × star-neighbor) combinations, case-3
/// lookups fall back to cheap constant bounds — for hub pairs the exact
/// quadratic scan costs more time than its pruning saves.
const PAIR_SCAN_LIMIT: usize = 256;

/// [`StarIndex`] bundled with its graph (lookups enumerate star neighbors).
pub struct StarOracle<'g, I: std::borrow::Borrow<StarIndex>> {
    graph: &'g Graph,
    index: I,
}

impl<'g, I: std::borrow::Borrow<StarIndex>> StarOracle<'g, I> {
    /// The wrapped index.
    pub fn index(&self) -> &StarIndex {
        self.index.borrow()
    }
}

impl<'g, I: std::borrow::Borrow<StarIndex>> DistanceOracle for StarOracle<'g, I> {
    fn dist_lb(&self, u: NodeId, v: NodeId) -> u32 {
        let ix = self.index.borrow();
        if u == v {
            return 0;
        }
        if self.graph.has_edge(u, v) {
            return 1;
        }
        match (ix.is_star(u), ix.is_star(v)) {
            // Case 1: both star — exact (or cap+1 when out of range).
            (true, true) => ix.star_pair(u, v).0,
            // Case 2: one star endpoint. The non-star node's first hop
            // lands on a star neighbor h, so d(u,v) ≥ 1 + min_h d(star, h).
            (true, false) | (false, true) => {
                let (s, ns) = if ix.is_star(u) { (u, v) } else { (v, u) };
                // An isolated non-star node gives no information: 0.
                ix.star_neighbors(self.graph, ns)
                    .map(|h| ix.star_pair(s, h).0)
                    .min()
                    .map_or(0, |m| 1 + m)
            }
            // Case 3: both non-star — both first hops land on star nodes.
            (false, false) => {
                let (du, dv) = (self.graph.out_degree(u), self.graph.out_degree(v));
                if du == 0 || dv == 0 {
                    return 0;
                }
                if du * dv > PAIR_SCAN_LIMIT {
                    // Hub pair: the quadratic scan costs more than it
                    // prunes. Non-adjacent non-star nodes are ≥ 2 apart.
                    return 2;
                }
                let mut m = u32::MAX;
                for a in ix.star_neighbors(self.graph, u) {
                    for b in ix.star_neighbors(self.graph, v) {
                        m = m.min(ix.star_pair(a, b).0);
                    }
                }
                2 + m
            }
        }
    }

    fn retention_ub(&self, u: NodeId, v: NodeId) -> f64 {
        let ix = self.index.borrow();
        if u == v {
            return 1.0;
        }
        if self.graph.has_edge(u, v) {
            // Direct edge: the best possible retention is the destination's
            // own dampening rate (longer detours only multiply more factors
            // below 1 while still ending with d_v).
            return ix.damp_of(v);
        }
        match (ix.is_star(u), ix.is_star(v)) {
            (true, true) => ix.star_pair(u, v).1,
            // Star u ⇒ ... ⇒ h → v: retention = ρ(u⇒h) · d_v ≤ ρ(u,h) · d_v.
            (true, false) => {
                if self.graph.out_degree(v) == 0 {
                    return 1.0;
                }
                let best = ix
                    .star_neighbors(self.graph, v)
                    .map(|h| ix.star_pair(u, h).1)
                    .fold(0.0f64, f64::max);
                (best * ix.damp_of(v)).min(1.0)
            }
            // Non-star u → h ⇒ ... ⇒ v: retention = d_h · ρ(h⇒v) ≤ d_h · ρ(h,v).
            (false, true) => {
                if self.graph.out_degree(u) == 0 {
                    return 1.0;
                }
                ix.star_neighbors(self.graph, u)
                    .map(|h| ix.damp_of(h) * ix.star_pair(h, v).1)
                    .fold(0.0f64, f64::max)
                    .min(1.0)
            }
            // Non-star u → a ⇒ ... ⇒ b → v: d_a · ρ(a,b) · d_v.
            (false, false) => {
                let (du, dv) = (self.graph.out_degree(u), self.graph.out_degree(v));
                if du == 0 || dv == 0 {
                    return 1.0;
                }
                if du * dv > PAIR_SCAN_LIMIT {
                    // Hub pair: fall back to the hop-composition bound
                    // d_max (first star hop) · d_v (destination).
                    return (ix.d_max * ix.damp_of(v)).min(1.0);
                }
                let mut best = 0.0f64;
                for a in ix.star_neighbors(self.graph, u) {
                    for b in ix.star_neighbors(self.graph, v) {
                        best = best.max(ix.damp_of(a) * ix.star_pair(a, b).1);
                    }
                }
                (best * ix.damp_of(v)).min(1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveIndex;
    use ci_graph::GraphBuilder;

    /// Two "movies" (relation 1) sharing one "actor" (relation 0), with one
    /// extra actor per movie:
    ///
    /// a0 — m0 — a1 — m1 — a2
    fn imdb_like() -> (Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let a0 = b.add_node(0, vec![]);
        let m0 = b.add_node(1, vec![]);
        let a1 = b.add_node(0, vec![]);
        let m1 = b.add_node(1, vec![]);
        let a2 = b.add_node(0, vec![]);
        b.add_pair(a0, m0, 1.0, 1.0);
        b.add_pair(a1, m0, 1.0, 1.0);
        b.add_pair(a1, m1, 1.0, 1.0);
        b.add_pair(a2, m1, 1.0, 1.0);
        (b.build(), vec![0.3, 0.6, 0.4, 0.7, 0.2])
    }

    #[test]
    fn detects_the_movie_relation_as_star() {
        let (g, _) = imdb_like();
        assert_eq!(detect_star_relations(&g), vec![1]);
    }

    #[test]
    fn detection_ties_go_to_fewer_nodes_then_the_smaller_tag() {
        // One edge between relations 2 and 1: both cover it.
        let tie = |extra_rel1_node: bool| {
            let mut b = GraphBuilder::new();
            let x = b.add_node(2, vec![]);
            let y = b.add_node(1, vec![]);
            if extra_rel1_node {
                b.add_node(1, vec![]);
            }
            b.add_pair(x, y, 1.0, 1.0);
            detect_star_relations(&b.build())
        };
        assert_eq!(tie(true), vec![2], "relation 1 has more nodes");
        assert_eq!(tie(false), vec![1], "equal sizes: the smaller tag");
    }

    #[test]
    fn detection_covers_every_edge() {
        // Chain of relations 0 — 1 — 2 — 3.
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(0, vec![]);
        let n1 = b.add_node(1, vec![]);
        let n2 = b.add_node(2, vec![]);
        let n3 = b.add_node(3, vec![]);
        b.add_pair(n0, n1, 1.0, 1.0);
        b.add_pair(n1, n2, 1.0, 1.0);
        b.add_pair(n2, n3, 1.0, 1.0);
        let g = b.build();
        let rels = detect_star_relations(&g);
        for u in g.nodes() {
            for e in g.edges(u) {
                assert!(
                    rels.contains(&g.relation(u)) || rels.contains(&g.relation(e.to)),
                    "edge {u}-{} uncovered by {rels:?}",
                    e.to
                );
            }
        }
        assert!(rels.len() <= 2);
    }

    #[test]
    fn star_pairs_are_exact() {
        let (g, d) = imdb_like();
        let idx = StarIndex::build(&g, &d, 4, &[1]);
        assert!(idx.is_star(NodeId(1)) && idx.is_star(NodeId(3)));
        assert!(!idx.is_star(NodeId(0)));
        let oracle = idx.into_oracle(&g);
        // m0 — a1 — m1: distance 2.
        assert_eq!(oracle.dist_lb(NodeId(1), NodeId(3)), 2);
    }

    #[test]
    fn case2_and_case3_distances() {
        let (g, d) = imdb_like();
        let oracle = StarIndex::build(&g, &d, 6, &[1]).into_oracle(&g);
        // Case 2: a0 (non-star) to m1 (star): true distance 3;
        // bound = 1 + d(m0, m1) = 3 (exact here).
        assert_eq!(oracle.dist_lb(NodeId(0), NodeId(3)), 3);
        // Case 3: a0 to a2: true distance 4; bound = 2 + d(m0, m1) = 4.
        assert_eq!(oracle.dist_lb(NodeId(0), NodeId(4)), 4);
        // Case 3 with shared star neighbor: a0 to a1 via m0: true 2;
        // bound = 2 + d(m0, m0) = 2.
        assert_eq!(oracle.dist_lb(NodeId(0), NodeId(2)), 2);
    }

    #[test]
    fn bounds_sandwich_truth() {
        // Distance lower bounds must never exceed the true distance, and
        // retention upper bounds never fall below the true (naive-index)
        // retention.
        let (g, d) = imdb_like();
        let naive = NaiveIndex::build(&g, &d, 6);
        let star = StarIndex::build(&g, &d, 6, &[1]).into_oracle(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                let true_d = naive.distance(u, v).unwrap_or(7);
                assert!(
                    star.dist_lb(u, v) <= true_d,
                    "dist_lb({u},{v}) = {} > true {true_d}",
                    star.dist_lb(u, v)
                );
                if u != v {
                    let true_r = naive.retention_ub(u, v);
                    assert!(
                        star.retention_ub(u, v) >= true_r - 1e-12,
                        "retention_ub({u},{v}) = {} < true {true_r}",
                        star.retention_ub(u, v)
                    );
                }
            }
        }
    }

    #[test]
    fn adjacent_nodes_shortcut() {
        let (g, d) = imdb_like();
        let oracle = StarIndex::build(&g, &d, 4, &[1]).into_oracle(&g);
        assert_eq!(oracle.dist_lb(NodeId(0), NodeId(1)), 1);
        assert!((oracle.retention_ub(NodeId(0), NodeId(1)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn case3_retention_composes_dampening() {
        let (g, d) = imdb_like();
        let oracle = StarIndex::build(&g, &d, 6, &[1]).into_oracle(&g);
        // a0 → m0 → a1 → m1 → a2: retention ub
        // = d(m0) · ρ(m0, m1) · d(a2) where ρ(m0,m1) = d(a1)·d(m1).
        let expect = 0.6 * (0.4 * 0.7) * 0.2;
        let got = oracle.retention_ub(NodeId(0), NodeId(4));
        assert!((got - expect).abs() < 1e-12, "got {got}, want {expect}");
    }

    #[test]
    fn star_index_is_smaller_than_naive() {
        let (g, d) = imdb_like();
        let naive = NaiveIndex::build(&g, &d, 6);
        let star = StarIndex::build(&g, &d, 6, &[1]);
        assert!(star.len() < naive.len());
        // Only the 2 ordered movie pairs are stored.
        assert_eq!(star.len(), 2);
    }

    #[test]
    fn parallel_build_tables_are_byte_equal() {
        let (g, d) = imdb_like();
        let serial = StarIndex::build(&g, &d, 6, &[1]).table_bytes();
        for threads in [2, 5] {
            let par = StarIndex::build_with_threads(&g, &d, 6, &[1], threads);
            assert_eq!(par.table_bytes(), serial, "{threads} threads diverged");
        }
    }

    #[test]
    fn out_of_cap_star_pair_prunes() {
        let (g, d) = imdb_like();
        let oracle = StarIndex::build(&g, &d, 1, &[1]).into_oracle(&g);
        // m0 and m1 are 2 apart, beyond cap 1 ⇒ lb = cap + 1 = 2.
        assert_eq!(oracle.dist_lb(NodeId(1), NodeId(3)), 2);
    }

    #[test]
    #[should_panic(expected = "star property violated")]
    fn build_rejects_non_star_partition() {
        let (g, d) = imdb_like();
        // Relation 0 (actors) does not cover the actor—movie edges' movie
        // side... it does actually; use an empty star set instead.
        StarIndex::build(&g, &d, 4, &[]);
    }
}
