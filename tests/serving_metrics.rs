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
use ci_search::SearchOptions;

/// Hand-summed expectations for one replayed workload.
#[derive(Default)]
struct Expected {
    queries: u64,
    errors: u64,
    answers: u64,
    pops: u64,
    registered: u64,
    bound_pruned: u64,
    distance_pruned: u64,
    merges: u64,
    dead_pops: u64,
    merge_shape: u64,
    merge_rule: u64,
    infeasible_leaves: u64,
    duplicate: u64,
    merge_sig_disjoint: u64,
    merge_matcher_overlap: u64,
    merge_overlap: u64,
    truncated: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_overflow: u64,
}

fn replay(session: &ci_rank::QuerySession<'_>, queries: &[String]) -> Expected {
    let mut e = Expected::default();
    for q in queries {
        match session.search_with_stats(q) {
            Ok((answers, stats)) => {
                e.queries += 1;
                e.answers += answers.len() as u64;
                e.pops += stats.pops as u64;
                e.registered += stats.registered as u64;
                e.bound_pruned += stats.bound_pruned as u64;
                e.distance_pruned += stats.distance_pruned as u64;
                e.merges += stats.merges as u64;
                let r = &stats.rejections;
                e.dead_pops += r.dead_pops as u64;
                e.merge_shape += r.merge_shape as u64;
                e.merge_rule += r.merge_rule as u64;
                e.infeasible_leaves += r.infeasible_leaves as u64;
                e.duplicate += r.duplicate as u64;
                e.merge_sig_disjoint += r.merge_sig_disjoint as u64;
                e.merge_matcher_overlap += r.merge_matcher_overlap as u64;
                e.merge_overlap += r.merge_overlap as u64;
                e.truncated += u64::from(stats.truncation.is_some());
                if let Some(c) = &stats.cache {
                    e.cache_hits += c.hits as u64;
                    e.cache_misses += c.misses as u64;
                    e.cache_overflow += c.overflow as u64;
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
    assert_eq!(delta.pops, e.pops, "{label}: pops");
    assert_eq!(delta.registered, e.registered, "{label}: registered");
    assert_eq!(delta.bound_pruned, e.bound_pruned, "{label}: bound_pruned");
    assert_eq!(
        delta.distance_pruned, e.distance_pruned,
        "{label}: distance_pruned"
    );
    assert_eq!(delta.merges, e.merges, "{label}: merges");
    assert_eq!(delta.dead_pops, e.dead_pops, "{label}: dead pops");
    assert_eq!(delta.merge_shape, e.merge_shape, "{label}: shape merges");
    assert_eq!(delta.merge_rule, e.merge_rule, "{label}: merge rule");
    assert_eq!(
        delta.rejected_infeasible_leaves, e.infeasible_leaves,
        "{label}: infeasible leaves"
    );
    assert_eq!(delta.rejected_duplicate, e.duplicate, "{label}: duplicate");
    assert_eq!(
        delta.merge_sig_disjoint, e.merge_sig_disjoint,
        "{label}: signature-disjoint merges"
    );
    assert_eq!(
        delta.merge_matcher_overlap, e.merge_matcher_overlap,
        "{label}: matcher-signature overlaps"
    );
    assert_eq!(delta.merge_overlap, e.merge_overlap, "{label}: overlap");
    assert!(
        e.dead_pops > 0 && e.merge_shape > 0 && e.merge_matcher_overlap > 0 && e.merge_overlap > 0,
        "{label}: the workload exercises the rejection counters"
    );
    assert_eq!(delta.truncated_total(), e.truncated, "{label}: truncations");
    assert_eq!(delta.cache_hits, e.cache_hits, "{label}: cache hits");
    assert_eq!(delta.cache_misses, e.cache_misses, "{label}: cache misses");
    assert_eq!(
        delta.cache_overflow, e.cache_overflow,
        "{label}: cache overflow"
    );
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
        assert!(
            json.contains(&format!("\"pops\":{}", delta.pops)),
            "{label}: {json}"
        );
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
        total.queries += e.queries;
        total.errors += e.errors;
        total.answers += e.answers;
        total.pops += e.pops;
        total.registered += e.registered;
        total.bound_pruned += e.bound_pruned;
        total.distance_pruned += e.distance_pruned;
        total.merges += e.merges;
        total.dead_pops += e.dead_pops;
        total.merge_shape += e.merge_shape;
        total.merge_rule += e.merge_rule;
        total.infeasible_leaves += e.infeasible_leaves;
        total.duplicate += e.duplicate;
        total.merge_sig_disjoint += e.merge_sig_disjoint;
        total.merge_matcher_overlap += e.merge_matcher_overlap;
        total.merge_overlap += e.merge_overlap;
        total.truncated += e.truncated;
        total.cache_hits += e.cache_hits;
        total.cache_misses += e.cache_misses;
        total.cache_overflow += e.cache_overflow;
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

/// `search_banks`, `rank` and `search_ranked` feed the registry like the
/// branch-and-bound methods: a BANKS run is one query with its answers and
/// latency and zero branch-and-bound counters; `rank` records only query
/// parse errors, because the pool it re-ranks was already counted; and
/// `search_ranked` counts once, with the counters of its pool run.
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

    let (banks, answers) = delta_of(&|q| session.search_banks(q).map_or(0, |a| a.len()));
    assert!(answers > 0, "{label}: BANKS answers the workload");
    assert_eq!(banks.queries, parsed, "{label}: one query per BANKS run");
    assert_eq!(banks.errors, 1, "{label}: BANKS parse error");
    assert_eq!(banks.answers, answers, "{label}: BANKS answers");
    assert_eq!(banks.latency_buckets.iter().sum::<u64>(), parsed);
    assert_eq!(
        (
            banks.pops,
            banks.registered,
            banks.merges,
            banks.truncated_total()
        ),
        (0, 0, 0, 0),
        "{label}: BANKS runs no branch-and-bound"
    );

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
    assert_eq!(
        (ranked.pops, ranked.registered, ranked.merges),
        (pool_run.pops, pool_run.registered, pool_run.merges),
        "{label}: search_ranked records its pool run"
    );
}

/// `search_banks` reads `k` and `D` from the session's options, so a
/// `with_options` override applies to it as to the branch-and-bound path.
#[test]
fn banks_honors_session_options() {
    let (label, kind, data, queries) = cases().remove(1); // zipf/star
    let snap = build(&data.db, kind, 1).unwrap();
    assert_eq!(snap.config().k, 5);
    let configured = snap.session();
    let two = snap.session().with_options(SearchOptions {
        k: 2,
        ..snap.config().search_options()
    });
    let mut longer = 0;
    for q in &queries {
        let Ok(full) = configured.search_banks(q) else {
            continue;
        };
        let short = two.search_banks(q).unwrap();
        assert!(short.len() <= 2, "{label}: {q:?} gave {}", short.len());
        assert_eq!(short.len(), full.len().min(2), "{label}: {q:?}");
        longer += usize::from(full.len() > 2);
    }
    assert!(longer > 0, "{label}: some query has more than two answers");
}

/// Every merge attempt lands in exactly one class:
/// `merges = merge_shape + merge_rule + merge_sig_disjoint +
/// merge_matcher_overlap + merge_overlap + scan-passed`. The partner index
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
                + r.merge_rule
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
