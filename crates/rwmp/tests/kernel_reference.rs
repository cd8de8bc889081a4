//! The Eq. 2 flow kernel against a recursive reference, bit for bit.
//!
//! The reference is Eq. 2 written as a recursion, independent of the
//! kernel's edge table: a split denominator per position, summed over its
//! tree neighbours in ascending position, then a depth-first walk from
//! each source that sends `leaving * w / d * damp` to every neighbour but
//! the sender, reading every weight from the graph. The kernel
//! ([`Scorer::fill_flows`], [`Scorer::grow_flows`]) must reproduce every
//! row of it exactly, for any parent array: candidate-shaped trees (every
//! parent numbered before its child), `Jtt::parent_positions` of shuffled
//! trees (a parent may come after its child), multi-source rows, and
//! edges with one direction missing.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_graph::{Graph, GraphBuilder, NodeId};
use ci_rwmp::{Dampening, FlowState, Jtt, ParentTree, Scorer};
use proptest::prelude::*;

/// The recursive reference kernel over a parent-array tree.
mod reference {
    use super::*;

    /// Tree neighbours of `pos` in ascending position order: its parent
    /// and its children.
    fn neighbors(parent: &[u32], pos: usize) -> Vec<usize> {
        let up = parent[pos] as usize;
        (0..parent.len())
            .filter(|&k| k != pos && (k == up || parent[k] as usize == pos))
            .collect()
    }

    /// Eq. 2 split denominator of position `m`.
    fn split_denominator(graph: &Graph, nodes: &[NodeId], parent: &[u32], m: usize) -> f64 {
        let mut denom = 0.0;
        for k in neighbors(parent, m) {
            if let Some(w) = graph.edge_weight(nodes[m], nodes[k]) {
                denom += w;
            }
        }
        denom
    }

    #[allow(clippy::too_many_arguments)]
    fn spread(
        scorer: &Scorer<'_>,
        nodes: &[NodeId],
        parent: &[u32],
        denom: &[f64],
        row: &mut [f64],
        m: usize,
        from: usize,
    ) {
        let (leaving, d) = (row[m], denom[m]);
        if leaving <= 0.0 || d <= 0.0 {
            return;
        }
        for k in neighbors(parent, m).into_iter().filter(|&k| k != from) {
            let Some(w) = scorer.graph().edge_weight(nodes[m], nodes[k]) else {
                continue;
            };
            row[k] = leaving * w / d * scorer.dampening(nodes[k]);
            spread(scorer, nodes, parent, denom, row, k, m);
        }
    }

    /// One row per `(source, generation)`, in the order given.
    pub fn rows(
        scorer: &Scorer<'_>,
        nodes: &[NodeId],
        parent: &[u32],
        sources: &[(usize, f64)],
    ) -> Vec<Vec<f64>> {
        let denom: Vec<f64> = (0..nodes.len())
            .map(|m| split_denominator(scorer.graph(), nodes, parent, m))
            .collect();
        sources
            .iter()
            .map(|&(src, gen)| {
                let mut row = vec![0.0; nodes.len()];
                row[src] = gen;
                spread(scorer, nodes, parent, &denom, &mut row, src, src);
                row
            })
            .collect()
    }
}

/// Asserts that `flows` holds exactly the reference rows of the tree.
fn assert_bitwise(
    scorer: &Scorer<'_>,
    nodes: &[NodeId],
    parent: &[u32],
    sources: &[(usize, f64)],
    flows: &FlowState,
) -> Result<(), TestCaseError> {
    let want = reference::rows(scorer, nodes, parent, sources);
    let positions: Vec<u32> = sources.iter().map(|&(s, _)| s as u32).collect();
    prop_assert_eq!(flows.sources(), positions.as_slice());
    for (s, row) in want.iter().enumerate() {
        let got: Vec<u64> = flows.row(s).iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = row.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(got, want, "row {} of {:?} / {:?}", s, nodes, parent);
    }
    Ok(())
}

/// Graph nodes of a case: tree positions first, then one per grow.
const NODES: usize = 14;

#[derive(Debug, Clone)]
struct Case {
    importance: Vec<u32>,
    /// Tree size.
    size: usize,
    /// Parent choice per position (`parents[i] % i`).
    parents: Vec<usize>,
    /// Per edge: 0/1 both directions, 2 child → parent only, 3 parent →
    /// child only, 4 neither.
    kinds: Vec<u8>,
    weights: Vec<u8>,
    /// Non-tree edges, for realistic adjacency lists.
    extra: Vec<(usize, usize)>,
    /// Shuffle keys for the `Jtt` form.
    shuffle: Vec<u32>,
    /// Per position: not a source (0), else generation `(x − 1) · 0.75`.
    sources: Vec<u8>,
    /// Per grow: new-root edge kind, generation selector, and whether the
    /// grown-from flows are first round-tripped through their parts.
    grows: Vec<(u8, u8, bool)>,
}

fn case() -> impl Strategy<Value = Case> {
    let tree = (
        proptest::collection::vec(1u32..1000, NODES),
        1usize..=8,
        proptest::collection::vec(0usize..64, 8),
        proptest::collection::vec(0u8..5, NODES),
        proptest::collection::vec(1u8..9, 2 * NODES),
    );
    let rest = (
        proptest::collection::vec((0usize..NODES, 0usize..NODES), 0..10),
        proptest::collection::vec(0u32..1000, 8),
        proptest::collection::vec(0u8..5, 8),
        proptest::collection::vec((0u8..5, 0u8..5, proptest::bool::ANY), 0..6),
    );
    (tree, rest).prop_map(
        |((importance, size, parents, kinds, weights), (extra, shuffle, sources, grows))| Case {
            importance,
            size,
            parents,
            kinds,
            weights,
            extra,
            shuffle,
            sources,
            grows,
        },
    )
}

/// Adds the tree edge `child — parent` of kind `kind` (see
/// [`Case::kinds`]): weight `a / 10` toward the parent, `w / 10` toward
/// the child. Tenths are inexact in binary, so sums of three or more of
/// them depend on their order.
fn connect(b: &mut GraphBuilder, child: NodeId, parent: NodeId, kind: u8, a: u8, w: u8) {
    if matches!(kind, 0..=2) {
        b.add_edge(child, parent, f64::from(a) / 10.0);
    }
    if matches!(kind, 0 | 1 | 3) {
        b.add_edge(parent, child, f64::from(w) / 10.0);
    }
}

/// The case's graph and importance vector, and the tree's parent array
/// (candidate-shaped: every parent numbered before its child).
fn build(case: &Case) -> (Graph, Vec<f64>, Vec<u32>) {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..NODES).map(|_| b.add_node(0, vec![])).collect();
    let mut parent = vec![0u32];
    for i in 1..case.size {
        let p = case.parents[i] % i;
        parent.push(p as u32);
        let (a, w) = (case.weights[2 * i], case.weights[2 * i + 1]);
        connect(&mut b, nodes[i], nodes[p], case.kinds[i], a, w);
    }
    // Each grow's new root `size + j` hangs over the previous root.
    for (j, &(kind, _, _)) in case.grows.iter().enumerate() {
        let (old_root, root) = (if j == 0 { 0 } else { case.size + j - 1 }, case.size + j);
        let (a, w) = (case.weights[2 * root], case.weights[2 * root + 1]);
        connect(&mut b, nodes[old_root], nodes[root], kind, a, w);
    }
    for &(x, y) in &case.extra {
        if x != y {
            b.add_pair(nodes[x], nodes[y], 0.15, 0.25);
        }
    }
    let total: f64 = case.importance.iter().map(|&x| f64::from(x)).sum();
    let p = case
        .importance
        .iter()
        .map(|&x| f64::from(x) / total)
        .collect();
    (b.build(), p, parent)
}

fn gen_of(x: u8) -> Option<f64> {
    (x > 0).then(|| f64::from(x - 1) * 0.75)
}

fn sources_of(case: &Case, n: usize) -> Vec<(usize, f64)> {
    (0..n)
        .filter_map(|pos| gen_of(case.sources[pos]).map(|g| (pos, g)))
        .collect()
}

/// A tree and its sources grown by `new_root` (a source when `root_gen`
/// is given): every position shifts up by one under the new position 0.
fn grown(
    (nodes, parent, sources): (&[NodeId], &[u32], &[(usize, f64)]),
    new_root: NodeId,
    root_gen: Option<f64>,
) -> (Vec<NodeId>, Vec<u32>, Vec<(usize, f64)>) {
    let nodes = std::iter::once(new_root).chain(nodes.iter().copied());
    let parent = [0, 0]
        .into_iter()
        .chain(parent.iter().skip(1).map(|&q| q + 1));
    let sources = root_gen
        .map(|g| (0, g))
        .into_iter()
        .chain(sources.iter().map(|&(pos, g)| (pos + 1, g)));
    (nodes.collect(), parent.collect(), sources.collect())
}

fn scorer<'g>(graph: &'g Graph, p: &'g [f64]) -> Scorer<'g> {
    let p_min = p.iter().copied().fold(f64::INFINITY, f64::min);
    Scorer::new(graph, p, p_min, Dampening::paper_default())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Candidate-shaped trees, filled from scratch and then grown root by
    /// root: every matrix of the chain equals the reference bitwise, for
    /// grown-from flows that carry their edge table and for ones restored
    /// from their parts, which reload it.
    #[test]
    fn fill_and_grow_chains_match_the_reference(case in case()) {
        let (graph, p, parent) = build(&case);
        let s = scorer(&graph, &p);
        let mut nodes: Vec<NodeId> = (0..case.size as u32).map(NodeId).collect();
        let mut parent = parent;
        let mut sources = sources_of(&case, case.size);
        let mut flows = FlowState::default();
        s.fill_flows(ParentTree::new(&nodes, &parent), sources.iter().copied(), &mut flows);
        assert_bitwise(&s, &nodes, &parent, &sources, &flows)?;
        for (j, &(_, gen_sel, round_trip)) in case.grows.iter().enumerate() {
            let new_root = NodeId((case.size + j) as u32);
            if round_trip {
                let (src, values) = flows.parts();
                let (src, values) = (src.to_vec(), values.to_vec());
                flows.assign_parts(&src, &values, nodes.len());
            }
            let root_gen = gen_of(gen_sel);
            let mut out = FlowState::default();
            s.grow_flows(ParentTree::new(&nodes, &parent), &mut flows, new_root, root_gen, &mut out);
            (nodes, parent, sources) = grown((&nodes, &parent, &sources), new_root, root_gen);
            assert_bitwise(&s, &nodes, &parent, &sources, &out)?;
            let mut fresh = FlowState::default();
            s.fill_flows(ParentTree::new(&nodes, &parent), sources.iter().copied(), &mut fresh);
            prop_assert_eq!(fresh.parts(), out.parts());
            flows = out;
        }
    }

    /// The same trees as `Jtt`s with shuffled positions, in the parent
    /// form `Jtt::parent_positions` gives — which may number a parent
    /// after its child — filled and then grown once.
    #[test]
    fn shuffled_jtt_trees_match_the_reference(case in case()) {
        let (graph, p, parent) = build(&case);
        let s = scorer(&graph, &p);
        let n = case.size;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (case.shuffle[i], i));
        let mut at = vec![0; n];
        for (new, &old) in order.iter().enumerate() {
            at[old] = new;
        }
        let nodes: Vec<NodeId> = order.iter().map(|&i| NodeId(i as u32)).collect();
        let edges = (1..n).map(|i| (at[parent[i] as usize], at[i])).collect();
        let tree = Jtt::new(nodes, edges).unwrap();
        let parent = tree.parent_positions();
        let sources = sources_of(&case, n);
        let mut flows = FlowState::default();
        s.fill_flows(ParentTree::new(tree.nodes(), &parent), sources.iter().copied(), &mut flows);
        assert_bitwise(&s, tree.nodes(), &parent, &sources, &flows)?;
        // Grow it by a graph node outside the tree.
        let new_root = NodeId(NODES as u32 - 1);
        let mut out = FlowState::default();
        s.grow_flows(ParentTree::new(tree.nodes(), &parent), &mut flows, new_root, Some(1.25), &mut out);
        let (nodes, parent, sources) =
            grown((tree.nodes(), &parent, &sources), new_root, Some(1.25));
        assert_bitwise(&s, &nodes, &parent, &sources, &out)?;
    }
}

/// A hand-built case of each kind the proptests draw from: position 1
/// has its children 2 and 3 numbered before its parent 4, so its
/// denominator must sum `0.1 + 0.3 + 0.7` in that order (parent first
/// would round differently); the edge 3 → 1 is missing; three sources.
#[test]
fn parent_after_child_with_a_one_way_edge() {
    let mut b = GraphBuilder::new();
    let n: Vec<NodeId> = (0..5).map(|_| b.add_node(0, vec![])).collect();
    b.add_pair(n[0], n[4], 0.2, 0.9);
    b.add_pair(n[4], n[1], 0.4, 0.7);
    b.add_pair(n[1], n[2], 0.1, 0.6);
    b.add_edge(n[1], n[3], 0.3);
    let graph = b.build();
    let p = vec![0.3, 0.1, 0.2, 0.15, 0.25];
    let s = scorer(&graph, &p);
    let tree = Jtt::new(n.clone(), vec![(0, 4), (4, 1), (1, 2), (1, 3)]).unwrap();
    let parent = tree.parent_positions();
    assert_eq!(parent, vec![0, 4, 1, 1, 0]);
    assert_ne!(0.1 + 0.3 + 0.7, 0.7 + 0.1 + 0.3, "the order is visible");
    let sources = [(2, 2.0), (3, 1.0), (0, 0.5)];
    let mut flows = FlowState::default();
    s.fill_flows(ParentTree::new(&n, &parent), sources, &mut flows);
    assert_bitwise(&s, &n, &parent, &sources, &flows).unwrap();
    // Messages from 3 cannot leave it: its only edge points inward.
    assert!(flows
        .row(1)
        .iter()
        .enumerate()
        .all(|(i, &f)| i == 3 || f == 0.0));
    assert!(flows.row(0)[3] > 0.0);
}

/// The graph of the grow-branch tests: nodes 0–9, every tree edge of the
/// trees below, both ways, with tenths weights (inexact, so summation
/// order shows).
fn branch_graph() -> (Graph, Vec<f64>) {
    let mut b = GraphBuilder::new();
    let n: Vec<NodeId> = (0..10).map(|_| b.add_node(0, vec![])).collect();
    for (x, y, a, w) in [
        (0, 1, 0.3, 0.7),
        (0, 2, 0.6, 0.2),
        (1, 3, 0.1, 0.9),
        (2, 5, 0.4, 0.3),
        (0, 6, 0.2, 0.6),
        (0, 7, 0.9, 0.1),
        (0, 8, 0.7, 0.3),
        (8, 9, 0.3, 0.1),
    ] {
        b.add_pair(n[x], n[y], a, w);
    }
    let p = (0..10).map(|i| 0.05 + 0.01 * f64::from(i)).collect();
    (b.build(), p)
}

/// Grows the tree `(nodes, parent)` with rows `sources` by `new_root`,
/// from grown-from flows filled in place (`round_trip == false`) or
/// restored from their parts into a fresh matrix. Checks the grown rows
/// against the reference and a fresh fill, bit for bit, and returns
/// whether the grow loaded the grown-from edge table — seen as the
/// grown-from matrix's buffers growing, which only a table load does.
fn grow_checked(
    tree: (&[NodeId], &[u32], &[(usize, f64)]),
    new_root: NodeId,
    root_gen: Option<f64>,
    round_trip: bool,
) -> bool {
    let (graph, p) = branch_graph();
    let s = scorer(&graph, &p);
    let (nodes, parent, sources) = tree;
    let mut prev = FlowState::default();
    s.fill_flows(
        ParentTree::new(nodes, parent),
        sources.iter().copied(),
        &mut prev,
    );
    if round_trip {
        let (src, values) = prev.parts();
        let mut restored = FlowState::default();
        restored.assign_parts(src, values, nodes.len());
        prev = restored;
    }
    let before = prev.capacity_bytes();
    let mut out = FlowState::default();
    s.grow_flows(
        ParentTree::new(nodes, parent),
        &mut prev,
        new_root,
        root_gen,
        &mut out,
    );
    let (nodes, parent, sources) = grown(tree, new_root, root_gen);
    assert_bitwise(&s, &nodes, &parent, &sources, &out).unwrap();
    let mut fresh = FlowState::default();
    s.fill_flows(
        ParentTree::new(&nodes, &parent),
        sources.iter().copied(),
        &mut fresh,
    );
    assert_eq!(fresh.parts(), out.parts());
    // Every row has flow everywhere, so a wrong entry cannot hide as 0.
    for r in 0..sources.len() {
        assert!(
            out.row(r).iter().all(|&f| f > 0.0),
            "row {r}: {:?}",
            out.row(r)
        );
    }
    prev.capacity_bytes() != before
}

/// Runs [`grow_checked`] from in-place and from restored flows, and
/// returns whether the restored grow loaded the table (an in-place fill
/// has it already).
fn grow_both_ways(
    tree: (&[NodeId], &[u32], &[(usize, f64)]),
    new_root: NodeId,
    root_gen: Option<f64>,
) -> bool {
    assert!(!grow_checked(tree, new_root, root_gen, false));
    grow_checked(tree, new_root, root_gen, true)
}

fn ids(xs: &[u32]) -> Vec<NodeId> {
    xs.iter().copied().map(NodeId).collect()
}

/// A single-node pop: its row is its generation count, and the new root's
/// entry needs only the new edge. No table.
#[test]
fn grow_of_a_single_node_pop() {
    let nodes = ids(&[1]);
    let loaded = grow_both_ways((&nodes, &[0], &[(0, 2.0)]), NodeId(0), None);
    assert!(!loaded, "a single-node pop needs no table");
}

/// A chain pop `0 — 1 — 3` with the free root 0 and the source 3, grown
/// by the free 8: each row gains one entry, from the root's one weight
/// toward its child. No table.
#[test]
fn grow_of_a_chain_by_a_free_root_loads_no_table() {
    let nodes = ids(&[0, 1, 3]);
    let sources = [(1, 0.5), (2, 1.5)];
    let loaded = grow_both_ways((&nodes, &[0, 0, 1], &sources), NodeId(8), None);
    assert!(!loaded, "a free chain grow needs no table");
}

/// A pop branched at its free root 0 (children 1 and 2, sources 3 and 5
/// below them), grown by the free 8: each row's other branch is
/// recomputed with the root's new denominator.
#[test]
fn grow_of_a_branched_root() {
    let nodes = ids(&[0, 1, 2, 3, 5, 6]);
    let parent = [0, 0, 0, 1, 2, 0];
    let sources = [(3, 1.5), (4, 2.5)];
    let loaded = grow_both_ways((&nodes, &parent, &sources), NodeId(8), None);
    assert!(loaded, "a branched root reads the table");
}

/// A pop whose root 0 is itself a source with children 1 and 7: its own
/// row is recomputed below the root, the other rows only gain the new
/// root's entry.
#[test]
fn grow_of_a_source_root_with_children() {
    let nodes = ids(&[0, 1, 3]);
    let sources = [(0, 2.0), (2, 1.5)];
    let loaded = grow_both_ways((&nodes, &[0, 0, 1], &sources), NodeId(8), None);
    assert!(loaded, "a source root with children reads the table");
    let nodes = ids(&[0, 1, 7]);
    let loaded = grow_both_ways((&nodes, &[0, 0, 0], &[(0, 2.0)]), NodeId(8), None);
    assert!(loaded);
}

/// A source new root: its row is swept over the whole grown table, the
/// existing rows gain one entry.
#[test]
fn grow_by_a_source_root() {
    let nodes = ids(&[0, 1, 3]);
    let loaded = grow_both_ways((&nodes, &[0, 0, 1], &[(2, 1.5)]), NodeId(8), Some(0.75));
    assert!(loaded, "a source new root reads the table");
    let nodes = ids(&[1]);
    assert!(grow_both_ways(
        (&nodes, &[0], &[(0, 2.0)]),
        NodeId(0),
        Some(1.25)
    ));
}

/// Grows of grows, with and without a round trip through the parts in
/// between: each step is checked against the reference. One chain starts
/// at a single node (then a free chain, a source new root, a source root
/// with children, a source new root); the other at a branched pop.
#[test]
fn grow_chains_through_every_branch() {
    let (graph, p) = branch_graph();
    let s = scorer(&graph, &p);
    let single: (Vec<u32>, Vec<u32>, Vec<(usize, f64)>) = (vec![3], vec![0], vec![(0, 1.5)]);
    let branched = (
        vec![0, 1, 2, 3, 5, 6],
        vec![0, 0, 0, 1, 2, 0],
        vec![(3, 1.5), (4, 2.5)],
    );
    let chains = [
        (
            single,
            vec![(1, None), (0, Some(2.0)), (8, None), (9, Some(0.5))],
        ),
        (branched, vec![(8, None), (9, Some(0.5))]),
    ];
    for round_trip in [false, true] {
        for ((nodes, parent, sources), grows) in &chains {
            let (mut nodes, mut parent, mut sources) =
                (ids(nodes), parent.clone(), sources.clone());
            let mut flows = FlowState::default();
            s.fill_flows(
                ParentTree::new(&nodes, &parent),
                sources.iter().copied(),
                &mut flows,
            );
            for &(v, gen) in grows {
                if round_trip {
                    let (src, values) = flows.parts();
                    let (src, values) = (src.to_vec(), values.to_vec());
                    flows.assign_parts(&src, &values, nodes.len());
                }
                let mut out = FlowState::default();
                let new_root = NodeId(v);
                s.grow_flows(
                    ParentTree::new(&nodes, &parent),
                    &mut flows,
                    new_root,
                    gen,
                    &mut out,
                );
                (nodes, parent, sources) = grown((&nodes, &parent, &sources), new_root, gen);
                assert_bitwise(&s, &nodes, &parent, &sources, &out).unwrap();
                flows = out;
            }
        }
    }
}
