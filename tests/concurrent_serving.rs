//! Concurrency contract of the snapshot architecture: one immutable
//! `EngineSnapshot` behind an `Arc` serves queries from many threads at
//! once, and every thread sees exactly the answers a single-threaded run
//! produces (the snapshot is never mutated; per-thread state lives in
//! each thread's `QuerySession`).

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::sync::Arc;
use std::thread;

use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, Engine, EngineSnapshot, QueryBudget, QuerySession};
use ci_storage::{schemas, Database, Value};

// Compile-time check: the snapshot (and the engine façade wrapping it)
// must be shareable across threads without locks.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<Engine>();
    assert_send_sync::<Arc<EngineSnapshot>>();
};

/// A bibliography with several overlapping author/paper clusters so the
/// queries produce multi-answer result lists with real tie-breaking.
fn library_db() -> Database {
    let (mut db, t) = schemas::dblp();
    let authors: Vec<_> = (0..6)
        .map(|i| {
            db.insert(t.author, vec![Value::text(format!("author number{i}"))])
                .unwrap()
        })
        .collect();
    for i in 0..10 {
        let p = db
            .insert(
                t.paper,
                vec![
                    Value::text(format!("paper topic{} shared", i % 3)),
                    Value::int(1990 + i),
                ],
            )
            .unwrap();
        db.link(t.author_paper, authors[i as usize % 6], p).unwrap();
        db.link(t.author_paper, authors[(i as usize + 1) % 6], p)
            .unwrap();
        // Citation chains give the random walk something to rank.
        if i >= 3 {
            let cited = db
                .insert(
                    t.paper,
                    vec![Value::text(format!("cited work {i}")), Value::int(1980)],
                )
                .unwrap();
            db.link(t.cites, p, cited).unwrap();
        }
    }
    db
}

fn queries() -> Vec<&'static str> {
    vec![
        "number0 number1",
        "topic0 shared",
        "number2 topic1",
        "number4 number5",
        "shared topic2",
    ]
}

/// Flattened fingerprint of a result list: scores and node sets, enough
/// to detect any cross-thread divergence including tie-break order.
fn fingerprint(session: &QuerySession<'_>, query: &str) -> Vec<(u64, Vec<u32>)> {
    session
        .search(query)
        .unwrap()
        .into_iter()
        .map(|a| {
            (
                a.score.to_bits(),
                a.nodes.iter().map(|n| n.node.0).collect(),
            )
        })
        .collect()
}

#[test]
fn parallel_queries_match_single_threaded_results() {
    let engine = Engine::build(
        &library_db(),
        CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        },
    )
    .unwrap();

    // Ground truth, single-threaded.
    let session = engine.session();
    let expected: Vec<_> = queries().iter().map(|q| fingerprint(&session, q)).collect();

    // 4+ threads, each running the whole workload several times against
    // the same shared snapshot (cloning the engine clones the Arc only).
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let engine = engine.clone();
            thread::spawn(move || {
                let session = engine.session();
                let mut runs = Vec::new();
                for _ in 0..3 {
                    let run: Vec<_> = queries().iter().map(|q| fingerprint(&session, q)).collect();
                    runs.push(run);
                }
                runs
            })
        })
        .collect();

    for h in handles {
        for run in h.join().expect("query thread panicked") {
            assert_eq!(run, expected, "threaded results diverged");
        }
    }
}

#[test]
fn per_thread_sessions_have_independent_budgets() {
    let engine = Engine::build(
        &library_db(),
        CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        },
    )
    .unwrap();
    let snapshot = Arc::clone(engine.snapshot());

    // One thread runs with an expired deadline (must truncate), another
    // unconstrained (must not) — sessions don't leak state through the
    // shared snapshot.
    let strict = {
        let snap = Arc::clone(&snapshot);
        thread::spawn(move || {
            let session = snap
                .session()
                .with_budget(QueryBudget::default().with_timeout(std::time::Duration::ZERO));
            let (_, stats) = session.search_with_stats("number0 number1").unwrap();
            stats.truncation
        })
    };
    let relaxed = {
        let snap = Arc::clone(&snapshot);
        thread::spawn(move || {
            let (answers, stats) = snap.session().search_with_stats("number0 number1").unwrap();
            (answers.len(), stats.truncation)
        })
    };
    assert_eq!(
        strict.join().unwrap(),
        Some(ci_rank::TruncationReason::Deadline)
    );
    let (n, truncation) = relaxed.join().unwrap();
    assert!(n > 0);
    assert_eq!(truncation, None);
}
