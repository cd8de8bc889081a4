//! Session-reuse contract: a long-lived `QuerySession` behaves exactly like
//! a fresh one on every call.
//!
//! Budgets are per query and must never leak between queries. Each
//! configuration below (a budget, a `k`, a trace level) replays one mixed
//! query list, erroring queries included, twice: through one reused
//! session, and through a fresh session per query. Answers (bit-exact
//! scores and node lists), errors and every `SearchStats` counter must
//! agree. The oracle-cache counters are the one exception: a warm cache
//! hits where a cold one misses, which is what the cache is for.
//!
//! The timeout configuration sleeps past its timeout between building the
//! session and querying it. A timeout is relative to each query's start,
//! so the reused session must still finish every query like a fresh one.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::time::Duration;

use ci_datagen::{generate_dblp, DblpConfig};
use ci_graph::WeightConfig;
use ci_rank::{
    CiRankConfig, EngineBuilder, EngineSnapshot, IndexKind, QueryBudget, QuerySession, TraceLevel,
};

fn snapshot() -> EngineSnapshot {
    let data = generate_dblp(DblpConfig {
        papers: 60,
        authors: 30,
        conferences: 4,
        seed: 5,
        ..Default::default()
    });
    EngineBuilder::new(CiRankConfig {
        weights: WeightConfig::dblp_default(),
        index: IndexKind::Star { relations: None },
        build_threads: 1,
        ..Default::default()
    })
    .build(&data.db)
    .unwrap()
}

fn queries() -> Vec<String> {
    let data = generate_dblp(DblpConfig {
        papers: 60,
        authors: 30,
        conferences: 4,
        seed: 5,
        ..Default::default()
    });
    let mut qs: Vec<String> = ci_datagen::dblp_workload(&data, 8, 3)
        .into_iter()
        .map(|q| q.keywords.join(" "))
        .collect();
    // Erroring queries between real ones: no keyword match, and empty.
    qs.insert(2, "zzqxv".into());
    qs.insert(5, String::new());
    qs
}

/// One query's observable outcome: answers as (score bits, node ids), the
/// stats with the cache counters cleared, or the error text.
type Outcome = Result<(Vec<(u64, Vec<u32>)>, ci_search::SearchStats), String>;

fn outcome(session: &QuerySession<'_>, q: &str) -> Outcome {
    session
        .search_with_stats(q)
        .map(|(answers, mut stats)| {
            stats.cache = None;
            let answers = answers
                .iter()
                .map(|a| {
                    let nodes = a.nodes.iter().map(|n| n.node.0).collect();
                    (a.score.to_bits(), nodes)
                })
                .collect();
            (answers, stats)
        })
        .map_err(|e| e.to_string())
}

#[test]
fn reused_session_matches_fresh_sessions() {
    let snap = snapshot();
    let queries = queries();
    let budgets = [
        ("unlimited", QueryBudget::UNLIMITED),
        ("expansions", QueryBudget::default().with_max_expansions(40)),
        ("candidates", QueryBudget::default().with_max_candidates(60)),
        (
            "timeout",
            QueryBudget::default()
                .with_max_expansions(400)
                .with_timeout(Duration::from_millis(150)),
        ),
        (
            "expired",
            QueryBudget::default().with_timeout(Duration::ZERO),
        ),
    ];
    let mut compared = 0;
    for (label, budget) in budgets {
        for k in [1usize, 4] {
            for trace in [TraceLevel::Off, TraceLevel::Full] {
                let mut opts = snap.session().options().clone();
                opts.budget = budget;
                opts.k = k;
                opts.trace = trace;
                let reused = snap.session().with_options(opts.clone());
                if label == "timeout" {
                    // Let the timeout elapse between building the session
                    // and its first query.
                    std::thread::sleep(Duration::from_millis(200));
                }
                for q in &queries {
                    let fresh = snap.session().with_options(opts.clone());
                    let want = outcome(&fresh, q);
                    let got = outcome(&reused, q);
                    assert_eq!(
                        got, want,
                        "{label}, k={k}, trace={trace:?}: reused session diverged on {q:?}"
                    );
                    if label == "timeout" {
                        if let Ok((_, stats)) = &got {
                            assert_ne!(
                                stats.truncation,
                                Some(ci_rank::TruncationReason::Deadline),
                                "a relative timeout must be armed per query ({q:?})"
                            );
                        }
                    }
                    if label == "expired" {
                        if let Ok((_, stats)) = &got {
                            assert_eq!(stats.pops, 0, "a zero timeout stops before any pop");
                            // Unanswerable queries return before any work.
                            assert!(
                                stats.registered == 0
                                    || stats.truncation
                                        == Some(ci_rank::TruncationReason::Deadline)
                            );
                        }
                    }
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, 5 * 2 * 2 * queries.len());
}
