//! Serving metrics: cumulative, thread-safe counters for a snapshot's
//! whole query workload.
//!
//! [`ci_search::SearchStats`] describes *one* run; a served snapshot
//! answers many queries from many threads, and an operator wants the
//! aggregate: how many queries, how slow, how often budgets truncate,
//! how well the distance-oracle caches hold up. [`MetricsRegistry`] is
//! that aggregate — a fixed set of relaxed [`AtomicU64`] counters hung
//! off every [`crate::EngineSnapshot`], fed by [`crate::QuerySession`]
//! after each search.
//!
//! Design constraints (see `docs/observability.md` for the catalogue):
//!
//! * **Concurrent-safe, never blocking.** Every update is a relaxed
//!   atomic add; there are no locks, so recording can sit on the serving
//!   path of a snapshot shared across threads.
//! * **Observational only.** Metrics are *derived from* a search's
//!   [`ci_search::SearchStats`] after the fact; nothing on the query hot
//!   path reads them, so they cannot perturb results or the replay
//!   fingerprints.
//! * **No external dependencies.** [`MetricsSnapshot::to_json`] renders
//!   by hand, matching the bench harness's hand-rolled JSON.
//!
//! Relaxed ordering means a [`MetricsRegistry::snapshot`] taken while
//! queries are in flight may observe a query's latency before its pop
//! count (or vice versa); totals are exact once the workload quiesces,
//! which is the agreement property the integration tests check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ci_search::{CacheStats, RejectionStats, SearchStats, TruncationReason};

/// Upper bounds (inclusive, in microseconds) of the fixed latency
/// histogram buckets; a final overflow bucket catches everything slower.
///
/// The bounds follow a 1–2.5–5 ladder from 50 µs to 10 s. Small lookups
/// land in the sub-millisecond buckets; warm exact queries on the
/// benchmark's DBLP workload sit around 14 ms (wall-clock median); and the
/// second-scale buckets separate slow queries from runaway ones. The
/// overflow bucket flags runs that should have had a
/// [`crate::QueryBudget`] deadline.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 17] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Number of histogram buckets: one per bound plus the overflow bucket.
pub const LATENCY_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

/// Cumulative serving counters for one [`crate::EngineSnapshot`].
///
/// Obtain it with [`crate::EngineSnapshot::metrics`]; read it with
/// [`MetricsRegistry::snapshot`]. All counters are monotonically
/// non-decreasing over the snapshot's lifetime.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Searches completed successfully (any ranker, B&B or naive).
    queries: AtomicU64,
    /// Searches that returned an error (e.g. keyword with no matches).
    errors: AtomicU64,
    /// Total answers returned across all successful searches.
    answers: AtomicU64,
    /// Σ [`SearchStats::pops`].
    pops: AtomicU64,
    /// Σ [`SearchStats::registered`].
    registered: AtomicU64,
    /// Σ [`SearchStats::bound_pruned`].
    bound_pruned: AtomicU64,
    /// Σ [`SearchStats::distance_pruned`].
    distance_pruned: AtomicU64,
    /// Σ [`SearchStats::merges`].
    merges: AtomicU64,
    /// Σ [`RejectionStats::dead_pops`].
    dead_pops: AtomicU64,
    /// Σ [`RejectionStats::merge_shape`].
    merge_shape: AtomicU64,
    /// Σ [`RejectionStats::infeasible_leaves`].
    rejected_infeasible_leaves: AtomicU64,
    /// Σ [`RejectionStats::duplicate`].
    rejected_duplicate: AtomicU64,
    /// Σ [`RejectionStats::merge_rule`].
    merge_rule: AtomicU64,
    /// Σ [`RejectionStats::merge_sig_disjoint`].
    merge_sig_disjoint: AtomicU64,
    /// Σ [`RejectionStats::merge_matcher_overlap`].
    merge_matcher_overlap: AtomicU64,
    /// Σ [`RejectionStats::merge_overlap`].
    merge_overlap: AtomicU64,
    /// Runs truncated by the expansion budget.
    truncated_expansions: AtomicU64,
    /// Runs truncated by the wall-clock deadline.
    truncated_deadline: AtomicU64,
    /// Runs truncated by the candidate-memory budget.
    truncated_candidates: AtomicU64,
    /// Runs truncated by a naive enumeration cap.
    truncated_enumeration: AtomicU64,
    /// Σ oracle-cache hits over runs that reported [`CacheStats`].
    cache_hits: AtomicU64,
    /// Σ oracle-cache misses over runs that reported [`CacheStats`].
    cache_misses: AtomicU64,
    /// Σ oracle-cache overflow over runs that reported [`CacheStats`].
    cache_overflow: AtomicU64,
    /// Σ wall-clock search time in microseconds (saturating).
    latency_total_us: AtomicU64,
    /// Query counts per latency bucket; see [`LATENCY_BUCKET_BOUNDS_US`].
    latency_buckets: [AtomicU64; LATENCY_BUCKETS],
}

/// Saturating usize→u64 conversion for counter feeds.
fn to_u64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

impl MetricsRegistry {
    /// A fresh registry with every counter at zero.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Records one completed search: its per-run [`SearchStats`], the
    /// number of answers it returned, and its wall-clock latency.
    pub fn record_search(&self, stats: &SearchStats, answers: usize, latency: Duration) {
        let r = Ordering::Relaxed;
        self.queries.fetch_add(1, r);
        self.answers.fetch_add(to_u64(answers), r);
        self.pops.fetch_add(to_u64(stats.pops), r);
        self.registered.fetch_add(to_u64(stats.registered), r);
        self.bound_pruned.fetch_add(to_u64(stats.bound_pruned), r);
        self.distance_pruned
            .fetch_add(to_u64(stats.distance_pruned), r);
        self.merges.fetch_add(to_u64(stats.merges), r);
        self.record_rejections(&stats.rejections);
        match stats.truncation {
            None => {}
            Some(TruncationReason::Expansions) => {
                self.truncated_expansions.fetch_add(1, r);
            }
            Some(TruncationReason::Deadline) => {
                self.truncated_deadline.fetch_add(1, r);
            }
            Some(TruncationReason::CandidateMemory) => {
                self.truncated_candidates.fetch_add(1, r);
            }
            Some(TruncationReason::EnumerationCaps) => {
                self.truncated_enumeration.fetch_add(1, r);
            }
        }
        if let Some(cache) = &stats.cache {
            self.record_cache(cache);
        }
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.latency_total_us.fetch_add(us, r);
        let bucket = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS - 1);
        if let Some(b) = self.latency_buckets.get(bucket) {
            b.fetch_add(1, r);
        }
    }

    /// Records one failed search (the error is returned to the caller;
    /// only the count is kept here).
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a run's rejection and merge-outcome counters into the totals.
    fn record_rejections(&self, rej: &RejectionStats) {
        let r = Ordering::Relaxed;
        self.dead_pops.fetch_add(to_u64(rej.dead_pops), r);
        self.merge_shape.fetch_add(to_u64(rej.merge_shape), r);
        self.rejected_infeasible_leaves
            .fetch_add(to_u64(rej.infeasible_leaves), r);
        self.rejected_duplicate.fetch_add(to_u64(rej.duplicate), r);
        self.merge_rule.fetch_add(to_u64(rej.merge_rule), r);
        self.merge_sig_disjoint
            .fetch_add(to_u64(rej.merge_sig_disjoint), r);
        self.merge_matcher_overlap
            .fetch_add(to_u64(rej.merge_matcher_overlap), r);
        self.merge_overlap.fetch_add(to_u64(rej.merge_overlap), r);
    }

    /// Folds a run's oracle-cache delta into the totals.
    fn record_cache(&self, cache: &CacheStats) {
        let r = Ordering::Relaxed;
        self.cache_hits.fetch_add(to_u64(cache.hits), r);
        self.cache_misses.fetch_add(to_u64(cache.misses), r);
        self.cache_overflow.fetch_add(to_u64(cache.overflow), r);
    }

    /// A point-in-time copy of every counter. Each counter is read with a
    /// separate relaxed load, so a snapshot taken mid-query may tear
    /// *across* counters (never within one); totals are exact once the
    /// workload has quiesced.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let r = Ordering::Relaxed;
        MetricsSnapshot {
            queries: self.queries.load(r),
            errors: self.errors.load(r),
            answers: self.answers.load(r),
            pops: self.pops.load(r),
            registered: self.registered.load(r),
            bound_pruned: self.bound_pruned.load(r),
            distance_pruned: self.distance_pruned.load(r),
            merges: self.merges.load(r),
            dead_pops: self.dead_pops.load(r),
            merge_shape: self.merge_shape.load(r),
            rejected_infeasible_leaves: self.rejected_infeasible_leaves.load(r),
            rejected_duplicate: self.rejected_duplicate.load(r),
            merge_rule: self.merge_rule.load(r),
            merge_sig_disjoint: self.merge_sig_disjoint.load(r),
            merge_matcher_overlap: self.merge_matcher_overlap.load(r),
            merge_overlap: self.merge_overlap.load(r),
            truncated_expansions: self.truncated_expansions.load(r),
            truncated_deadline: self.truncated_deadline.load(r),
            truncated_candidates: self.truncated_candidates.load(r),
            truncated_enumeration: self.truncated_enumeration.load(r),
            cache_hits: self.cache_hits.load(r),
            cache_misses: self.cache_misses.load(r),
            cache_overflow: self.cache_overflow.load(r),
            latency_total_us: self.latency_total_us.load(r),
            latency_buckets: std::array::from_fn(|i| {
                self.latency_buckets.get(i).map_or(0, |b| b.load(r))
            }),
        }
    }
}

/// A plain-data copy of a [`MetricsRegistry`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Searches completed successfully.
    pub queries: u64,
    /// Searches that returned an error.
    pub errors: u64,
    /// Total answers returned.
    pub answers: u64,
    /// Total branch-and-bound queue pops.
    pub pops: u64,
    /// Total candidate registrations.
    pub registered: u64,
    /// Total candidates rejected by the upper-bound test.
    pub bound_pruned: u64,
    /// Total candidates rejected by the distance-feasibility test.
    pub distance_pruned: u64,
    /// Total merge attempts.
    pub merges: u64,
    /// Pops whose every grow exceeds the diameter or size cap, so their
    /// neighbour walk was skipped.
    pub dead_pops: u64,
    /// Merge attempts over the diameter or size cap, skipped by the
    /// partner index.
    pub merge_shape: u64,
    /// Candidates rejected because their frozen leaves admit no keyword
    /// assignment.
    pub rejected_infeasible_leaves: u64,
    /// Candidates rejected as duplicates of an admitted `(root, tree)`.
    pub rejected_duplicate: u64,
    /// Merge attempts refused by the paper's merge rule.
    pub merge_rule: u64,
    /// Merge attempts accepted on disjoint node signatures, without the
    /// exact overlap scan.
    pub merge_sig_disjoint: u64,
    /// Merge attempts rejected without the scan: both operands hold the
    /// same non-root matcher.
    pub merge_matcher_overlap: u64,
    /// Merge attempts rejected by the exact overlap scan.
    pub merge_overlap: u64,
    /// Runs truncated by the expansion budget.
    pub truncated_expansions: u64,
    /// Runs truncated by the wall-clock deadline.
    pub truncated_deadline: u64,
    /// Runs truncated by the candidate-memory budget.
    pub truncated_candidates: u64,
    /// Runs truncated by a naive enumeration cap.
    pub truncated_enumeration: u64,
    /// Oracle-cache hits (runs that reported cache stats only).
    pub cache_hits: u64,
    /// Oracle-cache misses (runs that reported cache stats only).
    pub cache_misses: u64,
    /// Oracle-cache overflow events.
    pub cache_overflow: u64,
    /// Total search wall-clock time in microseconds.
    pub latency_total_us: u64,
    /// Query counts per latency bucket (see [`LATENCY_BUCKET_BOUNDS_US`];
    /// last entry is the overflow bucket).
    pub latency_buckets: [u64; LATENCY_BUCKETS],
}

impl MetricsSnapshot {
    /// Runs truncated for any reason.
    #[must_use]
    pub fn truncated_total(&self) -> u64 {
        self.truncated_expansions
            .saturating_add(self.truncated_deadline)
            .saturating_add(self.truncated_candidates)
            .saturating_add(self.truncated_enumeration)
    }

    /// Oracle-cache hit rate in `[0, 1]`, or `None` before any probe.
    #[must_use]
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits.saturating_add(self.cache_misses);
        if total == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)] // counters are far below 2^52
        Some(self.cache_hits as f64 / total as f64)
    }

    /// Mean search latency in microseconds, or `None` before any query.
    #[must_use]
    pub fn mean_latency_us(&self) -> Option<f64> {
        if self.queries == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)] // counters are far below 2^52
        Some(self.latency_total_us as f64 / self.queries as f64)
    }

    /// Counter-wise difference `self - earlier` (saturating), for
    /// measuring one workload's contribution against a live registry.
    #[must_use]
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: self.queries.saturating_sub(earlier.queries),
            errors: self.errors.saturating_sub(earlier.errors),
            answers: self.answers.saturating_sub(earlier.answers),
            pops: self.pops.saturating_sub(earlier.pops),
            registered: self.registered.saturating_sub(earlier.registered),
            bound_pruned: self.bound_pruned.saturating_sub(earlier.bound_pruned),
            distance_pruned: self.distance_pruned.saturating_sub(earlier.distance_pruned),
            merges: self.merges.saturating_sub(earlier.merges),
            dead_pops: self.dead_pops.saturating_sub(earlier.dead_pops),
            merge_shape: self.merge_shape.saturating_sub(earlier.merge_shape),
            rejected_infeasible_leaves: self
                .rejected_infeasible_leaves
                .saturating_sub(earlier.rejected_infeasible_leaves),
            rejected_duplicate: self
                .rejected_duplicate
                .saturating_sub(earlier.rejected_duplicate),
            merge_rule: self.merge_rule.saturating_sub(earlier.merge_rule),
            merge_sig_disjoint: self
                .merge_sig_disjoint
                .saturating_sub(earlier.merge_sig_disjoint),
            merge_matcher_overlap: self
                .merge_matcher_overlap
                .saturating_sub(earlier.merge_matcher_overlap),
            merge_overlap: self.merge_overlap.saturating_sub(earlier.merge_overlap),
            truncated_expansions: self
                .truncated_expansions
                .saturating_sub(earlier.truncated_expansions),
            truncated_deadline: self
                .truncated_deadline
                .saturating_sub(earlier.truncated_deadline),
            truncated_candidates: self
                .truncated_candidates
                .saturating_sub(earlier.truncated_candidates),
            truncated_enumeration: self
                .truncated_enumeration
                .saturating_sub(earlier.truncated_enumeration),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_overflow: self.cache_overflow.saturating_sub(earlier.cache_overflow),
            latency_total_us: self
                .latency_total_us
                .saturating_sub(earlier.latency_total_us),
            latency_buckets: std::array::from_fn(|i| {
                let a = self.latency_buckets.get(i).copied().unwrap_or(0);
                let b = earlier.latency_buckets.get(i).copied().unwrap_or(0);
                a.saturating_sub(b)
            }),
        }
    }

    /// Renders the snapshot as a single JSON object (hand-rolled; the
    /// workspace keeps external dependencies to the approved list). The
    /// layout is stable for dashboard scraping: scalar counters, then a
    /// `latency_histogram_us` array of `{le, count}` pairs where `le` is
    /// the inclusive microsecond bound (`null` for the overflow bucket).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        s.push('{');
        // `fmt::Write` into a String cannot fail; the results are ignored.
        let field = |s: &mut String, key: &str, value: u64| {
            let _ = write!(s, "\"{key}\":{value},");
        };
        field(&mut s, "queries", self.queries);
        field(&mut s, "errors", self.errors);
        field(&mut s, "answers", self.answers);
        field(&mut s, "pops", self.pops);
        field(&mut s, "registered", self.registered);
        field(&mut s, "bound_pruned", self.bound_pruned);
        field(&mut s, "distance_pruned", self.distance_pruned);
        field(&mut s, "merges", self.merges);
        field(&mut s, "dead_pops", self.dead_pops);
        field(&mut s, "merge_shape", self.merge_shape);
        field(
            &mut s,
            "rejected_infeasible_leaves",
            self.rejected_infeasible_leaves,
        );
        field(&mut s, "rejected_duplicate", self.rejected_duplicate);
        field(&mut s, "merge_rule", self.merge_rule);
        field(&mut s, "merge_sig_disjoint", self.merge_sig_disjoint);
        field(&mut s, "merge_matcher_overlap", self.merge_matcher_overlap);
        field(&mut s, "merge_overlap", self.merge_overlap);
        field(&mut s, "truncated_expansions", self.truncated_expansions);
        field(&mut s, "truncated_deadline", self.truncated_deadline);
        field(&mut s, "truncated_candidates", self.truncated_candidates);
        field(&mut s, "truncated_enumeration", self.truncated_enumeration);
        field(&mut s, "cache_hits", self.cache_hits);
        field(&mut s, "cache_misses", self.cache_misses);
        field(&mut s, "cache_overflow", self.cache_overflow);
        field(&mut s, "latency_total_us", self.latency_total_us);
        let _ = write!(s, "\"latency_histogram_us\":[");
        for (i, count) in self.latency_buckets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            match LATENCY_BUCKET_BOUNDS_US.get(i) {
                Some(le) => {
                    let _ = write!(s, "{{\"le\":{le},\"count\":{count}}}");
                }
                None => {
                    let _ = write!(s, "{{\"le\":null,\"count\":{count}}}");
                }
            }
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(pops: usize, truncation: Option<TruncationReason>) -> SearchStats {
        SearchStats {
            pops,
            registered: pops * 2,
            bound_pruned: 1,
            distance_pruned: 2,
            merges: 3,
            candidates_peak: pops,
            truncation,
            cache: Some(CacheStats {
                hits: 5,
                misses: 7,
                overflow: 1,
                entries: 7,
            }),
            rejections: RejectionStats {
                dead_pops: 8,
                merge_shape: 5,
                infeasible_leaves: 4,
                duplicate: 2,
                merge_rule: 0,
                merge_sig_disjoint: 1,
                merge_matcher_overlap: 9,
                merge_overlap: 6,
            },
        }
    }

    #[test]
    fn record_search_accumulates_every_counter() {
        let m = MetricsRegistry::new();
        m.record_search(&stats(10, None), 3, Duration::from_micros(120));
        m.record_search(
            &stats(4, Some(TruncationReason::Deadline)),
            1,
            Duration::from_micros(600_000),
        );
        m.record_error();
        let s = m.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.answers, 4);
        assert_eq!(s.pops, 14);
        assert_eq!(s.registered, 28);
        assert_eq!(s.merges, 6);
        assert_eq!(s.dead_pops, 16);
        assert_eq!(s.merge_shape, 10);
        assert_eq!(s.rejected_infeasible_leaves, 8);
        assert_eq!(s.rejected_duplicate, 4);
        assert_eq!(s.merge_rule, 0);
        assert_eq!(s.merge_sig_disjoint, 2);
        assert_eq!(s.merge_matcher_overlap, 18);
        assert_eq!(s.merge_overlap, 12);
        assert_eq!(s.truncated_deadline, 1);
        assert_eq!(s.truncated_total(), 1);
        assert_eq!(s.cache_hits, 10);
        assert_eq!(s.cache_misses, 14);
        assert_eq!(s.cache_overflow, 2);
        assert_eq!(s.latency_total_us, 600_120);
        // 120µs → the 250µs bucket (index 2); 600ms → the 1s bucket.
        assert_eq!(s.latency_buckets[2], 1);
        assert_eq!(s.latency_buckets[13], 1);
        assert_eq!(s.latency_buckets[LATENCY_BUCKETS - 1], 0);
        assert!((s.cache_hit_rate().unwrap() - 10.0 / 24.0).abs() < 1e-12);
        assert!((s.mean_latency_us().unwrap() - 300_060.0).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_has_no_rates() {
        let s = MetricsRegistry::new().snapshot();
        assert_eq!(s.queries, 0);
        assert!(s.cache_hit_rate().is_none());
        assert!(s.mean_latency_us().is_none());
        assert_eq!(s.truncated_total(), 0);
    }

    #[test]
    fn delta_since_isolates_a_workload() {
        let m = MetricsRegistry::new();
        m.record_search(&stats(10, None), 3, Duration::from_micros(10));
        let before = m.snapshot();
        m.record_search(
            &stats(5, Some(TruncationReason::Expansions)),
            2,
            Duration::from_micros(90),
        );
        let delta = m.snapshot().delta_since(&before);
        assert_eq!(delta.queries, 1);
        assert_eq!(delta.pops, 5);
        assert_eq!(delta.answers, 2);
        assert_eq!(delta.truncated_expansions, 1);
        assert_eq!(
            delta.latency_buckets[1], 1,
            "90µs lands in the ≤100µs bucket"
        );
    }

    #[test]
    fn latency_bucket_boundaries_are_inclusive() {
        let m = MetricsRegistry::new();
        m.record_search(&stats(0, None), 0, Duration::from_micros(50));
        m.record_search(&stats(0, None), 0, Duration::from_micros(51));
        let s = m.snapshot();
        assert_eq!(s.latency_buckets[0], 1, "50µs is inside the first bucket");
        assert_eq!(s.latency_buckets[1], 1, "51µs spills into the second");
        m.record_search(&stats(0, None), 0, Duration::from_secs(10));
        m.record_search(&stats(0, None), 0, Duration::from_micros(10_000_001));
        let s = m.snapshot();
        assert_eq!(
            s.latency_buckets[LATENCY_BUCKETS - 2],
            1,
            "10s is the last bound"
        );
        assert_eq!(
            s.latency_buckets[LATENCY_BUCKETS - 1],
            1,
            "past 10s overflows"
        );
    }

    #[test]
    fn json_snapshot_is_well_formed() {
        let m = MetricsRegistry::new();
        m.record_search(&stats(2, None), 1, Duration::from_micros(75));
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"queries\":1"), "{json}");
        assert!(json.contains("\"pops\":2"), "{json}");
        assert!(json.contains("\"dead_pops\":8"), "{json}");
        assert!(json.contains("\"merge_shape\":5"), "{json}");
        assert!(json.contains("\"merge_overlap\":6"), "{json}");
        assert!(json.contains("\"merge_matcher_overlap\":9"), "{json}");
        assert!(json.contains("\"latency_histogram_us\":["), "{json}");
        assert!(json.contains("{\"le\":50,\"count\":0}"), "{json}");
        assert!(json.contains("{\"le\":null,\"count\":0}"), "{json}");
        assert_eq!(
            json.matches("\"le\":").count(),
            LATENCY_BUCKETS,
            "one histogram entry per bucket: {json}"
        );
        // Balanced braces (cheap well-formedness check without a parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricsRegistry>();
    }
}
