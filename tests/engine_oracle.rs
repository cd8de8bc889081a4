//! Engine-level exactness: the full `Engine` pipeline (text index →
//! matchers → B&B with the configured star index) agrees with the naive
//! enumeration on real generated data, across diameters and k.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_datagen::{dblp_workload, generate_dblp, DblpConfig};
use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, Engine, IndexKind};

fn engine(diameter: u32, k: usize, index: IndexKind) -> (ci_datagen::DblpData, Engine) {
    let data = generate_dblp(DblpConfig {
        papers: 90,
        authors: 50,
        conferences: 5,
        ..Default::default()
    });
    let e = Engine::build(
        &data.db,
        CiRankConfig {
            weights: WeightConfig::dblp_default(),
            diameter,
            k,
            index,
            // Exact mode: no caps, so the naive comparison is an oracle.
            max_expansions: None,
            naive_max_paths: 100_000,
            naive_max_combinations: 2_000_000,
            ..Default::default()
        },
    )
    .unwrap();
    (data, e)
}

#[test]
fn bnb_equals_naive_through_the_engine() {
    for (d, k) in [(2, 3), (3, 5), (4, 5)] {
        let (data, e) = engine(d, k, IndexKind::Star { relations: None });
        let e = e.session();
        for q in dblp_workload(&data, 6, 17) {
            let query = q.keywords.join(" ");
            let bnb = e.search(&query).unwrap();
            let (naive, naive_stats) = e.search_naive(&query).unwrap();
            assert!(
                !naive_stats.truncated(),
                "oracle must be exhaustive (D={d})"
            );
            assert_eq!(bnb.len(), naive.len(), "query {query:?} (D={d}, k={k})");
            for (a, b) in bnb.iter().zip(&naive) {
                assert!(
                    (a.score - b.score).abs() < 1e-9 * a.score.max(1.0),
                    "query {query:?} (D={d}): {} vs {}",
                    a.score,
                    b.score
                );
            }
        }
    }
}

#[test]
fn k_truncates_but_preserves_prefix() {
    let (data, e5) = engine(3, 5, IndexKind::Star { relations: None });
    let (_, e2) = engine(3, 2, IndexKind::Star { relations: None });
    let (e5, e2) = (e5.session(), e2.session());
    for q in dblp_workload(&data, 5, 23) {
        let query = q.keywords.join(" ");
        let five = e5.search(&query).unwrap();
        let two = e2.search(&query).unwrap();
        assert!(two.len() <= 2);
        assert!(two.len() <= five.len());
        for (a, b) in five.iter().zip(&two) {
            assert!((a.score - b.score).abs() < 1e-9, "top-k prefix stability");
        }
    }
}
