//! Serving-metrics agreement contract (`ci-obs`).
//!
//! The [`ci_rank::MetricsRegistry`] hung off every snapshot is fed by
//! sessions with relaxed atomic adds; this test replays the fingerprint
//! workloads while summing every per-run [`ci_search::SearchStats`] by
//! hand and asserts the registry's totals agree exactly — single-threaded
//! and across concurrently serving sessions.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_rank_suite::fingerprint::{build, cases};

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
    structural: u64,
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
                e.structural += r.structural as u64;
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
    assert_eq!(
        delta.rejected_structural, e.structural,
        "{label}: structural"
    );
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
        e.structural > 0 && e.merge_matcher_overlap > 0 && e.merge_overlap > 0,
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
        total.structural += e.structural;
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
