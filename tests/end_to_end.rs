//! End-to-end runs over generated IMDB and DBLP databases: answer
//! invariants, ranking sanity, and cross-index consistency.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_datagen::{
    dblp_workload, generate_dblp, generate_imdb, imdb_synthetic_workload, DblpConfig, ImdbConfig,
};
use ci_graph::{MergeSpec, WeightConfig};
use ci_rank::{CiRankConfig, Engine, IndexKind};

fn imdb_engine(index: IndexKind) -> (ci_datagen::ImdbData, Engine) {
    let data = generate_imdb(ImdbConfig {
        movies: 120,
        actors: 80,
        actresses: 60,
        directors: 20,
        producers: 15,
        companies: 10,
        ..Default::default()
    });
    let cfg = CiRankConfig {
        weights: WeightConfig::imdb_default(),
        merge: Some(MergeSpec::over(vec![
            data.tables.actor,
            data.tables.actress,
            data.tables.director,
            data.tables.producer,
        ])),
        index,
        ..Default::default()
    };
    let engine = Engine::build(&data.db, cfg).unwrap();
    (data, engine)
}

#[test]
fn imdb_answers_satisfy_invariants() {
    let (data, engine) = imdb_engine(IndexKind::Star { relations: None });
    let queries = imdb_synthetic_workload(&data, 15, 3);
    let mut answered = 0;
    let session = engine.session();
    for q in &queries {
        let query = q.keywords.join(" ");
        let answers = session.search(&query).unwrap();
        if !answers.is_empty() {
            answered += 1;
        }
        for a in &answers {
            // Diameter and size respected.
            assert!(a.tree.diameter() <= engine.config().diameter);
            assert!(a.tree.size() <= engine.config().max_tree_nodes);
            // Every keyword covered.
            for kw in &q.keywords {
                assert!(
                    a.tree
                        .nodes()
                        .iter()
                        .any(|&v| engine.text_index().tf(kw, v.0) > 0),
                    "answer misses keyword {kw:?}"
                );
            }
            // Every leaf matches some keyword.
            for leaf in a.tree.leaves() {
                let v = a.tree.node(leaf);
                assert!(
                    q.keywords
                        .iter()
                        .any(|kw| engine.text_index().tf(kw, v.0) > 0),
                    "free leaf in answer"
                );
            }
            assert!(a.score > 0.0);
        }
        // Scores descending.
        for w in answers.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
    assert!(
        answered >= queries.len() / 2,
        "most queries produce answers"
    );
}

#[test]
fn dblp_search_is_deterministic() {
    let data = generate_dblp(DblpConfig {
        papers: 200,
        authors: 100,
        conferences: 8,
        ..Default::default()
    });
    let cfg = CiRankConfig {
        weights: WeightConfig::dblp_default(),
        ..Default::default()
    };
    let e1 = Engine::build(&data.db, cfg.clone()).unwrap();
    let e2 = Engine::build(&data.db, cfg).unwrap();
    let (s1, s2) = (e1.session(), e2.session());
    for q in dblp_workload(&data, 10, 5) {
        let query = q.keywords.join(" ");
        let a1 = s1.search(&query).unwrap();
        let a2 = s2.search(&query).unwrap();
        assert_eq!(a1.len(), a2.len());
        for (x, y) in a1.iter().zip(&a2) {
            assert_eq!(x.score.to_bits(), y.score.to_bits());
            assert_eq!(x.tree.canonical_key(), y.tree.canonical_key());
        }
    }
}

#[test]
fn all_index_kinds_return_identical_rankings() {
    let (data, plain) = imdb_engine(IndexKind::None);
    let (_, naive) = imdb_engine(IndexKind::Naive);
    let (_, star) = imdb_engine(IndexKind::Star { relations: None });
    let queries = imdb_synthetic_workload(&data, 10, 9);
    let (plain, naive, star) = (plain.session(), naive.session(), star.session());
    for q in &queries {
        let query = q.keywords.join(" ");
        let a = plain.search(&query).unwrap();
        let b = naive.search(&query).unwrap();
        let c = star.search(&query).unwrap();
        assert_eq!(a.len(), b.len(), "query {query:?}");
        assert_eq!(a.len(), c.len(), "query {query:?}");
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert!((x.score - y.score).abs() < 1e-9);
            assert!((x.score - z.score).abs() < 1e-9);
        }
    }
}

#[test]
fn person_merge_changes_the_graph() {
    let data = generate_imdb(ImdbConfig {
        movies: 100,
        actors: 60,
        actresses: 40,
        directors: 60, // many directors → likely name collisions with actors
        producers: 10,
        companies: 8,
        ..Default::default()
    });
    let merged = Engine::build(
        &data.db,
        CiRankConfig {
            weights: WeightConfig::imdb_default(),
            merge: Some(MergeSpec::over(vec![
                data.tables.actor,
                data.tables.actress,
                data.tables.director,
            ])),
            ..Default::default()
        },
    )
    .unwrap();
    let unmerged = Engine::build(
        &data.db,
        CiRankConfig {
            weights: WeightConfig::imdb_default(),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        merged.graph().node_count() < unmerged.graph().node_count(),
        "name collisions must merge: {} vs {}",
        merged.graph().node_count(),
        unmerged.graph().node_count()
    );
}
