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
//! * **One counter list.** The per-run counters are the `(name, value)`
//!   pairs of [`SearchStats::counters`], declared once in `ci-search`;
//!   the registry keeps one atomic per entry and every method here
//!   iterates that list, so a new counter is one list entry.
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

use ci_search::SearchStats;

/// Upper bounds (inclusive, in microseconds) of the fixed latency
/// histogram buckets; a final overflow bucket catches everything slower.
///
/// The bounds follow a 1–2.5–5 ladder from 50 µs to 10 s. Small lookups
/// land in the sub-millisecond buckets; warm exact queries on the
/// benchmark's DBLP workload sit around 14 ms (wall-clock median); and the
/// second-scale buckets separate slow queries from runaway ones. The
/// overflow bucket flags runs that should have had a
/// [`crate::QueryBudget`] timeout.
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
    /// Σ of each [`SearchStats::counters`] entry, in list order.
    counters: [AtomicU64; SearchStats::COUNTERS],
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
        for (total, (_, value)) in self.counters.iter().zip(stats.counters()) {
            total.fetch_add(to_u64(value), r);
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
            counters: self.counters.each_ref().map(|c| c.load(r)),
            latency_total_us: self.latency_total_us.load(r),
            latency_buckets: self.latency_buckets.each_ref().map(|b| b.load(r)),
        }
    }
}

/// A plain-data copy of a [`MetricsRegistry`] at one instant.
///
/// The per-run counter totals are read by name with
/// [`MetricsSnapshot::counter`] or all at once, in list order, with
/// [`MetricsSnapshot::counters`]; the names are those of
/// [`SearchStats::counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Searches completed successfully.
    pub queries: u64,
    /// Searches that returned an error.
    pub errors: u64,
    /// Total answers returned.
    pub answers: u64,
    /// Σ of each [`SearchStats::counters`] entry, in list order.
    counters: [u64; SearchStats::COUNTERS],
    /// Total search wall-clock time in microseconds.
    pub latency_total_us: u64,
    /// Query counts per latency bucket (see [`LATENCY_BUCKET_BOUNDS_US`];
    /// last entry is the overflow bucket).
    pub latency_buckets: [u64; LATENCY_BUCKETS],
}

impl MetricsSnapshot {
    /// Every per-run counter total as `(name, total)`, in the order of
    /// [`SearchStats::counters`] (which is also the JSON order).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        SearchStats::counter_names().into_iter().zip(self.counters)
    }

    /// The total of the counter `name` (e.g. `"pops"`,
    /// `"truncated_deadline"`), or `None` if no counter has that name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters().find(|&(n, _)| n == name).map(|(_, v)| v)
    }

    /// Runs truncated for any reason: the sum of the `truncated_*`
    /// counters.
    #[must_use]
    pub fn truncated_total(&self) -> u64 {
        self.counters()
            .filter(|(name, _)| name.starts_with("truncated_"))
            .fold(0, |sum, (_, v)| sum.saturating_add(v))
    }

    /// Oracle-cache hit rate in `[0, 1]`, or `None` before any probe.
    #[must_use]
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let hits = self.counter("cache_hits")?;
        let total = hits.saturating_add(self.counter("cache_misses")?);
        if total == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)] // counters are far below 2^52
        Some(hits as f64 / total as f64)
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
        fn sub<const N: usize>(mut a: [u64; N], b: &[u64; N]) -> [u64; N] {
            for (a, b) in a.iter_mut().zip(b) {
                *a = a.saturating_sub(*b);
            }
            a
        }
        MetricsSnapshot {
            queries: self.queries.saturating_sub(earlier.queries),
            errors: self.errors.saturating_sub(earlier.errors),
            answers: self.answers.saturating_sub(earlier.answers),
            counters: sub(self.counters, &earlier.counters),
            latency_total_us: self
                .latency_total_us
                .saturating_sub(earlier.latency_total_us),
            latency_buckets: sub(self.latency_buckets, &earlier.latency_buckets),
        }
    }

    /// Renders the snapshot as a single JSON object (hand-rolled; the
    /// workspace keeps external dependencies to the approved list). The
    /// layout is stable for dashboard scraping: `queries`, `errors`,
    /// `answers`, the per-run counters in list order, `latency_total_us`,
    /// then a `latency_histogram_us` array of `{le, count}` pairs where
    /// `le` is the inclusive microsecond bound (`null` for the overflow
    /// bucket).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let scalars = [
            ("queries", self.queries),
            ("errors", self.errors),
            ("answers", self.answers),
        ];
        let latency = ("latency_total_us", self.latency_total_us);
        let mut s = String::with_capacity(1024);
        s.push('{');
        // `fmt::Write` into a String cannot fail; the results are ignored.
        for (key, value) in scalars.into_iter().chain(self.counters()).chain([latency]) {
            let _ = write!(s, "\"{key}\":{value},");
        }
        s.push_str("\"latency_histogram_us\":[");
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
    use ci_search::{CacheStats, RejectionStats, TruncationReason};

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
        for (name, total) in [
            ("pops", 14),
            ("registered", 28),
            ("merges", 6),
            ("dead_pops", 16),
            ("merge_shape", 10),
            ("rejected_infeasible_leaves", 8),
            ("rejected_duplicate", 4),
            ("merge_sig_disjoint", 2),
            ("merge_matcher_overlap", 18),
            ("merge_overlap", 12),
            ("truncated_deadline", 1),
            ("truncated_expansions", 0),
            ("cache_hits", 10),
            ("cache_misses", 14),
            ("cache_overflow", 2),
        ] {
            assert_eq!(s.counter(name), Some(total), "{name}");
        }
        assert_eq!(s.counter("no_such_counter"), None);
        assert_eq!(s.truncated_total(), 1);
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
        assert_eq!(delta.counter("pops"), Some(5));
        assert_eq!(delta.answers, 2);
        assert_eq!(delta.counter("truncated_expansions"), Some(1));
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

    /// The JSON layout is a scraping contract: keys, their order and the
    /// histogram shape stay byte-identical across refactors.
    #[test]
    fn json_snapshot_matches_golden() {
        let m = MetricsRegistry::new();
        m.record_search(&stats(10, None), 3, Duration::from_micros(120));
        m.record_search(
            &stats(4, Some(TruncationReason::Deadline)),
            1,
            Duration::from_micros(600_000),
        );
        m.record_search(
            &SearchStats {
                cache: None,
                ..stats(1, Some(TruncationReason::EnumerationCaps))
            },
            0,
            Duration::from_secs(11),
        );
        m.record_error();
        let golden = concat!(
            "{\"queries\":3,\"errors\":1,\"answers\":4,\"pops\":15,\"registered\":30,",
            "\"bound_pruned\":3,\"distance_pruned\":6,\"merges\":9,\"dead_pops\":24,",
            "\"merge_shape\":15,\"rejected_infeasible_leaves\":12,\"rejected_duplicate\":6,",
            "\"merge_sig_disjoint\":3,\"merge_matcher_overlap\":27,\"merge_overlap\":18,",
            "\"truncated_expansions\":0,\"truncated_deadline\":1,",
            "\"truncated_candidates\":0,\"truncated_enumeration\":1,\"cache_hits\":10,",
            "\"cache_misses\":14,\"cache_overflow\":2,\"latency_total_us\":11600120,",
            "\"latency_histogram_us\":[{\"le\":50,\"count\":0},{\"le\":100,\"count\":0},",
            "{\"le\":250,\"count\":1},{\"le\":500,\"count\":0},{\"le\":1000,\"count\":0},",
            "{\"le\":2500,\"count\":0},{\"le\":5000,\"count\":0},{\"le\":10000,\"count\":0},",
            "{\"le\":25000,\"count\":0},{\"le\":50000,\"count\":0},{\"le\":100000,\"count\":0},",
            "{\"le\":250000,\"count\":0},{\"le\":500000,\"count\":0},",
            "{\"le\":1000000,\"count\":1},{\"le\":2500000,\"count\":0},",
            "{\"le\":5000000,\"count\":0},{\"le\":10000000,\"count\":0},",
            "{\"le\":null,\"count\":1}]}"
        );
        assert_eq!(m.snapshot().to_json(), golden);
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricsRegistry>();
    }
}
