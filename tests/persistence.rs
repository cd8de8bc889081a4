//! Cross-crate persistence: a generated database survives dump → load with
//! identical search behaviour (same graph, same importance, same answers).

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
use ci_rank::{CiRankConfig, Engine};
use ci_storage::persist;

#[test]
fn reloaded_database_searches_identically() {
    let data = generate_dblp(DblpConfig {
        papers: 150,
        authors: 80,
        conferences: 6,
        ..Default::default()
    });

    let mut buf = Vec::new();
    persist::dump(&data.db, &mut buf).unwrap();
    let reloaded = persist::load(&mut buf.as_slice()).unwrap();

    assert_eq!(reloaded.tuple_count(), data.db.tuple_count());
    assert_eq!(reloaded.link_count(), data.db.link_count());

    let cfg = CiRankConfig {
        weights: WeightConfig::dblp_default(),
        ..Default::default()
    };
    let original = Engine::build(&data.db, cfg.clone()).unwrap();
    let restored = Engine::build(&reloaded, cfg).unwrap();

    assert_eq!(original.graph().node_count(), restored.graph().node_count());
    assert_eq!(original.graph().edge_count(), restored.graph().edge_count());

    let (original, restored) = (original.session(), restored.session());
    for q in dblp_workload(&data, 8, 3) {
        let query = q.keywords.join(" ");
        let a = original.search(&query).unwrap();
        let b = restored.search(&query).unwrap();
        assert_eq!(a.len(), b.len(), "query {query:?}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.tree.canonical_key(), y.tree.canonical_key());
        }
    }
}

#[test]
fn dump_is_stable_across_runs() {
    let gen = || {
        generate_dblp(DblpConfig {
            papers: 60,
            authors: 30,
            conferences: 4,
            ..Default::default()
        })
    };
    let mut a = Vec::new();
    persist::dump(&gen().db, &mut a).unwrap();
    let mut b = Vec::new();
    persist::dump(&gen().db, &mut b).unwrap();
    assert_eq!(a, b, "generation and dumping are deterministic");
}
