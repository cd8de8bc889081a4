//! Failure-path coverage across the workspace: bad inputs must produce
//! typed errors (or clean empty results), never panics.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, CiRankError, Engine};
use ci_storage::{schemas, StorageError, TupleId, Value};

#[test]
fn storage_rejects_bad_inputs() {
    let (mut db, t) = schemas::dblp();
    // Arity mismatch.
    assert!(matches!(
        db.insert(t.paper, vec![Value::text("only title")]),
        Err(StorageError::ArityMismatch { .. })
    ));
    // Type mismatch.
    assert!(matches!(
        db.insert(t.paper, vec![Value::int(5), Value::int(5)]),
        Err(StorageError::TypeMismatch { .. })
    ));
    // Link to a missing row.
    let a = db.insert(t.author, vec![Value::text("ada")]).unwrap();
    let ghost = TupleId::new(t.paper, 7);
    assert!(db.link(t.author_paper, a, ghost).is_err());
    // Wrong endpoint table.
    let p = db
        .insert(t.paper, vec![Value::text("x"), Value::int(1)])
        .unwrap();
    assert!(matches!(
        db.link(t.author_paper, p, a),
        Err(StorageError::LinkEndpointMismatch { .. })
    ));
}

#[test]
fn engine_rejects_empty_database() {
    let (db, _) = schemas::dblp();
    assert_eq!(
        Engine::build(&db, CiRankConfig::default()).unwrap_err(),
        CiRankError::EmptyDatabase
    );
}

fn small_engine() -> Engine {
    let (mut db, t) = schemas::dblp();
    let a = db.insert(t.author, vec![Value::text("ada crane")]).unwrap();
    let p = db
        .insert(t.paper, vec![Value::text("lonely paper"), Value::int(2001)])
        .unwrap();
    db.link(t.author_paper, a, p).unwrap();
    Engine::build(
        &db,
        CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn engine_rejects_empty_and_oversized_queries() {
    let engine = small_engine();
    let e = engine.session();
    assert_eq!(e.search("").unwrap_err(), CiRankError::EmptyQuery);
    assert_eq!(e.search(" ,.! ").unwrap_err(), CiRankError::EmptyQuery);
    let huge: String = (0..40).map(|i| format!("kw{i} ")).collect();
    assert!(matches!(
        e.search(&huge).unwrap_err(),
        CiRankError::TooManyKeywords(40)
    ));
}

#[test]
fn unanswerable_and_disconnected_queries_return_empty() {
    let e = small_engine();
    // One keyword matches, the other does not exist.
    assert!(e.session().search("crane zebra").unwrap().is_empty());
    // Both match but the only answer exceeds a tiny diameter: build an
    // engine with D = 0.
    let (mut db, t) = schemas::dblp();
    let a = db.insert(t.author, vec![Value::text("ada crane")]).unwrap();
    let p = db
        .insert(t.paper, vec![Value::text("lonely paper"), Value::int(2001)])
        .unwrap();
    db.link(t.author_paper, a, p).unwrap();
    let e0 = Engine::build(
        &db,
        CiRankConfig {
            weights: WeightConfig::dblp_default(),
            diameter: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let e0 = e0.session();
    assert!(e0.search("crane lonely").unwrap().is_empty());
    // Single-node answers still work at D = 0.
    assert!(!e0.search("ada crane").unwrap().is_empty());
}

#[test]
fn expansion_cap_reports_truncation_without_breaking() {
    let (mut db, t) = schemas::dblp();
    // A dense little graph.
    let authors: Vec<_> = (0..6)
        .map(|i| {
            db.insert(t.author, vec![Value::text(format!("author number{i}"))])
                .unwrap()
        })
        .collect();
    for i in 0..8 {
        let p = db
            .insert(
                t.paper,
                vec![Value::text(format!("paper {i}")), Value::int(2000)],
            )
            .unwrap();
        for a in authors.iter().take(3 + i % 3) {
            db.link(t.author_paper, *a, p).unwrap();
        }
    }
    let e = Engine::build(
        &db,
        CiRankConfig {
            weights: WeightConfig::dblp_default(),
            max_expansions: Some(2),
            ..Default::default()
        },
    )
    .unwrap();
    let (answers, stats) = e.session().search_with_stats("number0 number1").unwrap();
    assert!(stats.truncated());
    assert_eq!(
        stats.truncation,
        Some(ci_rank::TruncationReason::Expansions)
    );
    // Truncated runs may return fewer/suboptimal answers but stay sane.
    for a in &answers {
        assert!(a.score > 0.0);
    }
}
