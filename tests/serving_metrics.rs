//! Serving-metrics agreement contract (`ci-obs`).
//!
//! The [`ci_rank::MetricsRegistry`] hung off every snapshot is fed by
//! sessions with relaxed atomic adds; this test replays the fingerprint
//! workloads while summing every per-run [`ci_search::SearchStats`] by
//! hand and asserts the registry's totals agree exactly — single-threaded
//! and across concurrently serving sessions — and that every query method
//! of the session, the re-ranking and BANKS entry points included, is
//! counted once.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_rank::Ranker;
use ci_rank_suite::fingerprint::{build, cases};
use ci_search::{SearchOptions, SearchStats};

/// Hand-summed expectations for one replayed workload: the registry-level
/// values, and one total per entry of the per-run counter list.
#[derive(Default)]
struct Expected {
    queries: u64,
    errors: u64,
    answers: u64,
    /// Runs with any truncation reason.
    truncated: u64,
    counters: [u64; SearchStats::COUNTERS],
}

impl Expected {
    fn add(&mut self, other: &Expected) {
        self.queries += other.queries;
        self.errors += other.errors;
        self.answers += other.answers;
        self.truncated += other.truncated;
        for (total, v) in self.counters.iter_mut().zip(other.counters) {
            *total += v;
        }
    }

    fn counter(&self, name: &str) -> u64 {
        let names = SearchStats::counter_names();
        self.counters[names.iter().position(|n| *n == name).unwrap()]
    }
}

fn replay(session: &ci_rank::QuerySession<'_>, queries: &[String]) -> Expected {
    let mut e = Expected::default();
    for q in queries {
        match session.search_with_stats(q) {
            Ok((answers, stats)) => {
                e.queries += 1;
                e.answers += answers.len() as u64;
                e.truncated += u64::from(stats.truncation.is_some());
                for (total, (_, v)) in e.counters.iter_mut().zip(stats.counters()) {
                    *total += v as u64;
                }
            }
            Err(_) => e.errors += 1,
        }
    }
    e
}

fn assert_agrees(delta: &ci_rank::MetricsSnapshot, e: &Expected, label: &str) {
    assert_eq!(delta.queries, e.queries, "{label}: queries");
    assert_eq!(delta.errors, e.errors, "{label}: errors");
    assert_eq!(delta.answers, e.answers, "{label}: answers");
    for ((name, total), want) in delta.counters().zip(e.counters) {
        assert_eq!(total, want, "{label}: {name}");
    }
    assert!(
        [
            "dead_pops",
            "merge_shape",
            "merge_matcher_overlap",
            "merge_overlap"
        ]
        .iter()
        .all(|name| e.counter(name) > 0),
        "{label}: the workload exercises the rejection counters"
    );
    assert_eq!(delta.truncated_total(), e.truncated, "{label}: truncations");
    // Every successful query lands in exactly one latency bucket, and the
    // total time is consistent with the bucketed counts.
    assert_eq!(
        delta.latency_buckets.iter().sum::<u64>(),
        e.queries,
        "{label}: histogram counts sum to the query count"
    );
}

#[test]
fn metrics_agree_with_search_stats_totals() {
    for (label, kind, data, queries) in cases() {
        let snap = build(&data.db, kind, 1).unwrap();
        let before = snap.metrics().snapshot();
        let session = snap.session();
        let expected = replay(&session, &queries);
        assert!(expected.queries > 0, "{label}: workload searches for real");
        let delta = snap.metrics().snapshot().delta_since(&before);
        assert_agrees(&delta, &expected, label);

        // The JSON snapshot carries the same totals.
        let json = snap.metrics().snapshot().to_json();
        for (name, total) in delta.counters() {
            assert!(
                json.contains(&format!("\"{name}\":{total},")),
                "{label}: {name} in {json}"
            );
        }
        assert!(
            json.contains("\"latency_histogram_us\":["),
            "{label}: {json}"
        );
    }
}

#[test]
fn metrics_are_exact_across_concurrent_sessions() {
    let (label, kind, data, queries) = cases().remove(1); // zipf/star
    let snap = build(&data.db, kind, 1).unwrap();
    const THREADS: usize = 4;
    let before = snap.metrics().snapshot();
    let per_thread: Vec<Expected> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| scope.spawn(|| replay(&snap.session(), &queries)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut total = Expected::default();
    for e in &per_thread {
        total.add(e);
    }
    let delta = snap.metrics().snapshot().delta_since(&before);
    assert_agrees(&delta, &total, label);
    assert_eq!(delta.queries, (THREADS as u64) * per_thread[0].queries);
}

#[test]
fn candidate_pool_runs_and_errors_are_recorded() {
    let (label, kind, data, mut queries) = cases().remove(1); // zipf/star
    queries.push(String::new()); // rejected by query parsing
                                 // The pool run at the configured k is the run `search_with_stats`
                                 // makes, so a replay on an identical snapshot gives the expectation.
    let expected = replay(
        &build(&data.db, kind.clone(), 1).unwrap().session(),
        &queries,
    );
    assert_eq!(expected.errors, 1, "{label}: the empty query errors");
    let snap = build(&data.db, kind, 1).unwrap();
    let before = snap.metrics().snapshot();
    let session = snap.session();
    for q in &queries {
        let _ = session.candidate_pool(q, 5);
    }
    let delta = snap.metrics().snapshot().delta_since(&before);
    assert_agrees(&delta, &expected, label);
}

/// `rank` and `search_ranked` feed the registry like the branch-and-bound
/// methods: `rank` records only query parse errors, because the pool it
/// re-ranks was already counted; and `search_ranked` counts once, with the
/// counters of its pool run.
#[test]
fn ranking_entry_points_feed_the_registry() {
    let (label, kind, data, mut queries) = cases().remove(1); // zipf/star
    queries.push(String::new()); // rejected by query parsing
    let parsed = (queries.len() - 1) as u64;
    let snap = build(&data.db, kind, 1).unwrap();
    let session = snap.session();
    let delta_of = |run: &dyn Fn(&str) -> usize| {
        let before = snap.metrics().snapshot();
        let answers: usize = queries.iter().map(|q| run(q)).sum();
        (
            snap.metrics().snapshot().delta_since(&before),
            answers as u64,
        )
    };

    let pools: Vec<_> = queries
        .iter()
        .map(|q| session.candidate_pool(q, 6).unwrap_or_default())
        .collect();
    let before = snap.metrics().snapshot();
    for (q, pool) in queries.iter().zip(&pools) {
        let _ = session.rank(q, pool, Ranker::Spark);
    }
    let rank = snap.metrics().snapshot().delta_since(&before);
    assert_eq!(
        (rank.queries, rank.errors, rank.answers),
        (0, 1, 0),
        "{label}: rank records its parse error only"
    );

    let (pool_run, pooled) = delta_of(&|q| session.candidate_pool(q, 6).map_or(0, |p| p.len()));
    let (ranked, answers) = delta_of(&|q| {
        session
            .search_ranked(q, Ranker::Banks, 6)
            .map_or(0, |a| a.len())
    });
    assert_eq!(answers, pooled, "{label}: re-ranking keeps the pool");
    assert_eq!(ranked.queries, parsed, "{label}: search_ranked counts once");
    assert_eq!(ranked.errors, 1, "{label}: search_ranked parse error");
    assert_eq!(ranked.answers, answers, "{label}: search_ranked answers");
    // The same runs, so the same work; only the oracle-cache traffic
    // differs, because the session's cache is warm the second time.
    let work = |m: &ci_rank::MetricsSnapshot| -> Vec<(&str, u64)> {
        m.counters()
            .filter(|(name, _)| !name.starts_with("cache_"))
            .collect()
    };
    assert_eq!(
        work(&ranked),
        work(&pool_run),
        "{label}: search_ranked records its pool run"
    );
}

/// Every merge attempt lands in exactly one class:
/// `merges = merge_shape + merge_sig_disjoint + merge_matcher_overlap +
/// merge_overlap + scan-passed`. The partner index
/// skips over-cap partners and counts them in O(1) as `merge_shape`; every
/// other attempt is enumerated, and a [`ci_rank::TraceLevel::Full`] run —
/// which runs the same enumeration and must report identical statistics —
/// records each as one `Merge` event. Its event stream then gives
/// scan-passed independently: the attempts recorded as merged, less the
/// signature-disjoint ones.
#[test]
fn merge_attempts_land_in_exactly_one_class() {
    use ci_rank::{TraceEvent, TraceLevel};
    let (label, kind, data, queries) = cases().remove(1); // zipf/star
    let snap = build(&data.db, kind, 1).unwrap();
    let off = snap.session();
    let full = snap.session().with_options(SearchOptions {
        trace: TraceLevel::Full,
        trace_capacity: ci_rank_suite::fingerprint::FULL_TRACE_CAPACITY,
        ..snap.config().search_options()
    });
    let (mut shape, mut scanned) = (0, 0);
    for q in &queries {
        let Ok((_, stats)) = off.search_with_stats(q) else {
            continue;
        };
        let (_, traced) = full.search_with_stats(q).unwrap();
        assert_eq!(stats, traced, "{label}: {q:?} Off vs Full statistics");
        let trace = full.last_trace();
        assert_eq!(trace.dropped(), 0, "{label}: {q:?} trace capacity");
        let mut enumerated = 0;
        let mut merged = 0;
        for e in trace.events() {
            if let TraceEvent::Merge { merged: m, .. } = e {
                enumerated += 1;
                merged += usize::from(*m);
            }
        }
        let r = &stats.rejections;
        assert_eq!(
            enumerated,
            stats.merges - r.merge_shape,
            "{label}: {q:?} enumerated attempts"
        );
        let scan_passed = merged - r.merge_sig_disjoint;
        assert_eq!(
            stats.merges,
            r.merge_shape
                + r.merge_sig_disjoint
                + r.merge_matcher_overlap
                + r.merge_overlap
                + scan_passed,
            "{label}: {q:?} merge classes"
        );
        shape += r.merge_shape;
        scanned += scan_passed;
    }
    assert!(
        shape > 0 && scanned > 0,
        "{label}: the workload skips partners and passes scans"
    );
}
