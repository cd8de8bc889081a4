//! Property tests: the naive index agrees with ground-truth traversals,
//! and the star index's bounds stay on the sound side, on random graphs
//! with the star property.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_graph::{bfs_within, Graph, GraphBuilder, NodeId};
use ci_index::{DistanceOracle, NaiveIndex, StarIndex};
use proptest::prelude::*;

/// A random bipartite-ish "star schema" graph: relation 1 nodes are star
/// hubs; relation 0 nodes only connect to hubs (the star property).
#[derive(Debug, Clone)]
struct StarCase {
    hubs: usize,
    satellites: usize,
    links: Vec<(usize, usize, u8)>,
    hub_links: Vec<(usize, usize, u8)>,
    damp: Vec<u8>,
}

fn star_case() -> impl Strategy<Value = StarCase> {
    (2usize..6, 2usize..10).prop_flat_map(|(hubs, satellites)| {
        (
            proptest::collection::vec((0..satellites, 0..hubs, 1u8..6), 1..3 * satellites),
            proptest::collection::vec((0..hubs, 0..hubs, 1u8..6), 0..hubs),
            proptest::collection::vec(1u8..99, hubs + satellites),
        )
            .prop_map(move |(links, hub_links, damp)| StarCase {
                hubs,
                satellites,
                links,
                hub_links,
                damp,
            })
    })
}

fn build(case: &StarCase) -> (Graph, Vec<f64>) {
    let mut b = GraphBuilder::new();
    let sats: Vec<NodeId> = (0..case.satellites)
        .map(|_| b.add_node(0, vec![]))
        .collect();
    let hubs: Vec<NodeId> = (0..case.hubs).map(|_| b.add_node(1, vec![])).collect();
    for &(s, h, w) in &case.links {
        b.add_pair(sats[s], hubs[h], w as f64, w as f64);
    }
    for &(h1, h2, w) in &case.hub_links {
        if h1 != h2 {
            b.add_pair(hubs[h1], hubs[h2], w as f64, w as f64);
        }
    }
    let damp: Vec<f64> = case.damp.iter().map(|&d| d as f64 / 100.0).collect();
    (b.build(), damp)
}

proptest! {
    /// Naive-index distances equal BFS distances exactly (within the cap).
    #[test]
    fn naive_distance_equals_bfs(case in star_case()) {
        let (g, damp) = build(&case);
        let cap = 5;
        let idx = NaiveIndex::build(&g, &damp, cap);
        for u in g.nodes() {
            let mut truth = vec![None; g.node_count()];
            for r in bfs_within(&g, u, cap) {
                truth[r.node.idx()] = Some(r.dist);
            }
            for v in g.nodes() {
                match truth[v.idx()] {
                    Some(d) => prop_assert_eq!(idx.distance(u, v), Some(d)),
                    None => {
                        prop_assert_eq!(idx.distance(u, v), None);
                        prop_assert_eq!(idx.dist_lb(u, v), cap + 1);
                    }
                }
            }
        }
    }

    /// Naive retention is achievable: it never exceeds the product of the
    /// maximum dampening over the path length, and equals the destination
    /// dampening for adjacent pairs.
    #[test]
    fn naive_retention_bounds(case in star_case()) {
        let (g, damp) = build(&case);
        let idx = NaiveIndex::build(&g, &damp, 5);
        let d_max = damp.iter().cloned().fold(0.0f64, f64::max);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v { continue; }
                if let Some(d) = idx.distance(u, v) {
                    let r = idx.retention_ub(u, v);
                    prop_assert!(r > 0.0 && r <= 1.0);
                    // A path of d hops dampens at least … d times? No —
                    // the best retention path may be longer but through
                    // better nodes; still every path has ≥ d hops, so
                    // retention ≤ d_max^d.
                    prop_assert!(
                        r <= d_max.powi(d as i32) + 1e-12,
                        "retention {r} exceeds d_max^{d}"
                    );
                    if d == 1 {
                        prop_assert!(r >= damp[v.idx()] - 1e-12, "direct edge achievable");
                    }
                }
            }
        }
    }

    /// Cross-oracle equivalence: when every relation is a star relation,
    /// the star index stores exactly the naive index's pairs, so the two
    /// oracles must agree on distance and retention for every node pair
    /// within the cap (and on the out-of-cap fallbacks beyond it). The
    /// star oracle's three lookup cases all collapse to case 1 here, so
    /// any disagreement means one of the builds drifted.
    #[test]
    fn all_star_oracle_matches_naive(case in star_case()) {
        let (g, damp) = build(&case);
        let cap = 5;
        let naive = NaiveIndex::build(&g, &damp, cap);
        let star = StarIndex::build(&g, &damp, cap, &[0, 1]).into_oracle(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(
                    star.dist_lb(u, v),
                    naive.dist_lb(u, v),
                    "distance disagreement at ({}, {})", u, v
                );
                let rs = star.retention_ub(u, v);
                let rn = naive.retention_ub(u, v);
                // The adjacency shortcut reads d_v directly while the naive
                // table stores min(exp(Σ ln d), d_v); equal up to rounding.
                prop_assert!(
                    (rs - rn).abs() <= 1e-12,
                    "retention disagreement at ({}, {}): star {} vs naive {}", u, v, rs, rn
                );
            }
        }
    }

    /// Parallel index builds are differentially equal to serial ones on
    /// every generated graph: same `DS`/`LS` bytes, bit for bit.
    #[test]
    fn parallel_builds_match_serial(case in star_case(), threads in 2usize..9) {
        let (g, damp) = build(&case);
        let naive_serial = NaiveIndex::build(&g, &damp, 5).table_bytes();
        let naive_par = NaiveIndex::build_with_threads(&g, &damp, 5, threads).table_bytes();
        prop_assert_eq!(naive_serial, naive_par);
        let star_serial = StarIndex::build(&g, &damp, 5, &[1]).table_bytes();
        let star_par = StarIndex::build_with_threads(&g, &damp, 5, &[1], threads).table_bytes();
        prop_assert_eq!(star_serial, star_par);
    }

    /// Star-index bounds sandwich naive-index truth on star-schema graphs.
    #[test]
    fn star_bounds_sound(case in star_case()) {
        let (g, damp) = build(&case);
        let exact = NaiveIndex::build(&g, &damp, 6);
        let star = StarIndex::build(&g, &damp, 6, &[1]);
        prop_assert!(star.len() <= exact.len());
        let oracle = star.into_oracle(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                // Bounds only need to hold for reachable pairs (any finite
                // lower bound is sound against an infinite distance).
                if let Some(true_d) = exact.distance(u, v) {
                    prop_assert!(
                        oracle.dist_lb(u, v) <= true_d,
                        "dist_lb({u},{v}) = {} > {true_d}",
                        oracle.dist_lb(u, v)
                    );
                }
                if u != v && exact.distance(u, v).is_some() {
                    prop_assert!(
                        oracle.retention_ub(u, v) >= exact.retention_ub(u, v) - 1e-12,
                        "retention_ub({u},{v}) too small"
                    );
                }
            }
        }
    }
}
