//! Query hot-path latency and throughput, written to `BENCH_query.json`
//! (consumed by CI as a tracked artifact, companion to `BENCH_build.json`).
//!
//! Replays the standard §VI workloads over the bench-scale DBLP and IMDB
//! engines two ways:
//!
//! * **Single-threaded latency** — one warm `QuerySession` replays the
//!   workload; per-query wall-clock is bucketed by the structural query
//!   class ([`ci_datagen::QueryPattern`]) and reported as p50 / p95 / mean.
//!   A warm-up pass precedes measurement so the session's oracle cache and
//!   candidate store are in their steady state (the state a serving system
//!   lives in).
//! * **Multi-threaded throughput** — the same `Arc<EngineSnapshot>` serves
//!   1, 2, and 4 threads, each with its own session, each replaying the
//!   full workload. Every query's observable outcome (bit-exact scores,
//!   node lists, `SearchStats` counters) is fingerprinted and asserted
//!   identical to the single-threaded reference before any timing is
//!   trusted — throughput can never come from computing something
//!   different.
//!
//! Thread counts above the machine's hardware parallelism are **not
//! measured**: a time-sliced number is not a throughput number, and
//! publishing it invites misreading. Skipped sweep points are recorded in
//! the JSON as `"skipped": true` with the machine's parallelism, so a
//! reader of the artifact can tell "not parallel here" from "not run".
//!
//! The warm-up pass also totals each query class's rejections — the
//! candidates and merge attempts the search discarded, by reason
//! ([`ci_search::SearchStats`] and its [`ci_search::RejectionStats`]) —
//! reported under `"rejections"`, so a change in where the search spends
//! its work shows up per class.
//!
//! After the sweeps, each dataset's serving-metrics snapshot
//! ([`ci_rank::MetricsRegistry`]) is embedded under `"metrics"` — the
//! same counters a serving deployment would scrape, accumulated over
//! everything the bench replayed against that snapshot.
//!
//! Usage: `cargo run --release -p ci-bench --bin bench_query [out.json]`
//! (default output path: `BENCH_query.json` in the current directory).
//! Set `CI_BENCH_QUICK=1` (or pass `--quick`) for a smoke-sized workload.

// LINT-EXEMPT(bench-fixture): a measurement driver; a panic aborts the
// bench run, which is the desired behavior.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_precision_loss
)]

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use ci_bench::{dblp_data, dblp_engine, imdb_data, imdb_engine};
use ci_datagen::{dblp_workload, imdb_synthetic_workload, LabeledQuery, QueryPattern};
use ci_rank::{EngineSnapshot, IndexKind};
use ci_rank_suite::fingerprint::query_fingerprint;
use ci_search::SearchStats;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn pattern_name(p: QueryPattern) -> &'static str {
    match p {
        QueryPattern::Single => "single",
        QueryPattern::AdjacentPair => "adjacent_pair",
        QueryPattern::DistantPair => "distant_pair",
        QueryPattern::Triple => "triple",
    }
}

/// Nearest-rank percentile over an unsorted sample (sorted internally).
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

struct ClassLatency {
    class: &'static str,
    count: usize,
    p50_ms: f64,
    p95_ms: f64,
    mean_ms: f64,
}

/// Rejection totals of one query class over the warm-up pass.
struct ClassRejections {
    class: &'static str,
    /// `(name, total)` per rejection reason, in report order.
    totals: [(&'static str, usize); 9],
}

impl ClassRejections {
    fn new(class: &'static str) -> ClassRejections {
        let names = [
            "structural",
            "infeasible_leaves",
            "duplicate",
            "distance",
            "bound",
            "merge_rule",
            "merge_sig_disjoint",
            "merge_matcher_overlap",
            "merge_overlap",
        ];
        ClassRejections {
            class,
            totals: names.map(|n| (n, 0)),
        }
    }

    fn add(&mut self, stats: &SearchStats) {
        let r = &stats.rejections;
        let counts = [
            r.structural,
            r.infeasible_leaves,
            r.duplicate,
            stats.distance_pruned,
            stats.bound_pruned,
            r.merge_rule,
            r.merge_sig_disjoint,
            r.merge_matcher_overlap,
            r.merge_overlap,
        ];
        for ((_, total), c) in self.totals.iter_mut().zip(counts) {
            *total += c;
        }
    }
}

/// One point of the throughput sweep: measured, or skipped because the
/// thread count exceeds the machine's hardware parallelism.
enum ThroughputPoint {
    Measured { threads: usize, secs: f64, qps: f64 },
    Skipped { threads: usize },
}

struct DatasetReport {
    name: &'static str,
    queries: usize,
    latency: Vec<ClassLatency>,
    rejections: Vec<ClassRejections>,
    throughput: Vec<ThroughputPoint>,
    /// Serving-metrics JSON snapshot accumulated over every query the
    /// bench ran against this dataset's snapshot.
    metrics_json: String,
}

/// Single-thread replay: one warm session, per-query latency bucketed by
/// query class, the warm-up pass's per-class rejection totals, plus the
/// per-query reference fingerprints the throughput threads must reproduce
/// bit-for-bit.
fn single_thread_pass(
    snap: &EngineSnapshot,
    workload: &[(String, QueryPattern)],
) -> (Vec<ClassLatency>, Vec<ClassRejections>, Vec<u64>) {
    let session = snap.session();
    // Warm-up: oracle cache rows, candidate store, text-index structures.
    let mut rejections: Vec<ClassRejections> = Vec::new();
    for (q, pattern) in workload {
        let Ok((_, stats)) = session.search_with_stats(q) else {
            continue;
        };
        let class = pattern_name(*pattern);
        match rejections.iter_mut().find(|c| c.class == class) {
            Some(c) => c.add(&stats),
            None => {
                let mut c = ClassRejections::new(class);
                c.add(&stats);
                rejections.push(c);
            }
        }
    }
    rejections.sort_by_key(|c| c.class);
    let warm_slots = session.scratch_slots_allocated();

    let mut fingerprints = Vec::with_capacity(workload.len());
    let mut by_class: Vec<(QueryPattern, Vec<f64>)> = Vec::new();
    for (q, pattern) in workload {
        let t0 = Instant::now();
        let fp = query_fingerprint(&session, q);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        fingerprints.push(fp);
        match by_class.iter_mut().find(|(p, _)| p == pattern) {
            Some((_, v)) => v.push(ms),
            None => by_class.push((*pattern, vec![ms])),
        }
    }
    assert_eq!(
        session.scratch_slots_allocated(),
        warm_slots,
        "steady-state replay must not grow the candidate store"
    );

    let mut latency: Vec<ClassLatency> = by_class
        .into_iter()
        .map(|(p, mut ms)| ClassLatency {
            class: pattern_name(p),
            count: ms.len(),
            p50_ms: percentile(&mut ms, 50.0),
            p95_ms: percentile(&mut ms, 95.0),
            mean_ms: ms.iter().sum::<f64>() / ms.len().max(1) as f64,
        })
        .collect();
    latency.sort_by_key(|c| c.class);
    (latency, rejections, fingerprints)
}

/// Multi-thread replay over a shared snapshot: each thread owns a session
/// and replays the full workload, asserting every query reproduces the
/// single-thread fingerprint before the wall-clock is trusted.
fn throughput_pass(
    snap: &Arc<EngineSnapshot>,
    workload: &[(String, QueryPattern)],
    reference: &[u64],
    threads: usize,
) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let snap = Arc::clone(snap);
            scope.spawn(move || {
                let session = snap.session();
                for (i, (q, _)) in workload.iter().enumerate() {
                    let fp = query_fingerprint(&session, q);
                    assert_eq!(
                        fp, reference[i],
                        "thread {worker}: query {i:?} ({q:?}) diverged from the \
                         single-thread reference"
                    );
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

fn run_dataset(
    name: &'static str,
    snap: &Arc<EngineSnapshot>,
    workload: &[(String, QueryPattern)],
    hardware_threads: usize,
) -> DatasetReport {
    eprintln!("bench_query: {name}: {} queries", workload.len());
    let (latency, rejections, reference) = single_thread_pass(snap, workload);
    for c in &latency {
        eprintln!(
            "  {name:5} {:13} n={:3}  p50 {:.3}ms  p95 {:.3}ms  mean {:.3}ms",
            c.class, c.count, c.p50_ms, c.p95_ms, c.mean_ms
        );
    }
    for c in &rejections {
        let totals: Vec<String> = c.totals.iter().map(|(n, t)| format!("{n} {t}")).collect();
        eprintln!("  {name:5} {:13} rejected: {}", c.class, totals.join(", "));
    }

    let mut throughput = Vec::new();
    for &threads in &THREAD_COUNTS {
        if threads > hardware_threads {
            eprintln!(
                "  {name:5} threads={threads}  skipped ({hardware_threads} hardware \
                 thread(s): a time-sliced run measures scheduling, not throughput)"
            );
            throughput.push(ThroughputPoint::Skipped { threads });
            continue;
        }
        let secs = throughput_pass(snap, workload, &reference, threads);
        let qps = (threads * workload.len()) as f64 / secs.max(1e-12);
        eprintln!("  {name:5} threads={threads}  {secs:.3}s  {qps:.1} q/s");
        throughput.push(ThroughputPoint::Measured { threads, secs, qps });
    }

    DatasetReport {
        name,
        queries: workload.len(),
        latency,
        rejections,
        throughput,
        metrics_json: snap.metrics().snapshot().to_json(),
    }
}

fn json(reports: &[DatasetReport], hardware_threads: usize, quick: bool) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(out, "  \"quick\": {quick},");
    out.push_str("  \"datasets\": {\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", r.name);
        let _ = writeln!(out, "      \"queries\": {},", r.queries);
        out.push_str("      \"latency_ms\": {\n");
        for (j, c) in r.latency.iter().enumerate() {
            let comma = if j + 1 < r.latency.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "        \"{}\": {{\"count\": {}, \"p50\": {:.6}, \"p95\": {:.6}, \
                 \"mean\": {:.6}}}{comma}",
                c.class, c.count, c.p50_ms, c.p95_ms, c.mean_ms
            );
        }
        out.push_str("      },\n");
        out.push_str("      \"rejections\": {\n");
        for (j, c) in r.rejections.iter().enumerate() {
            let comma = if j + 1 < r.rejections.len() { "," } else { "" };
            let fields: Vec<String> = c
                .totals
                .iter()
                .map(|(n, t)| format!("\"{n}\": {t}"))
                .collect();
            let _ = writeln!(
                out,
                "        \"{}\": {{{}}}{comma}",
                c.class,
                fields.join(", ")
            );
        }
        out.push_str("      },\n");
        out.push_str("      \"throughput\": {\n");
        for (j, t) in r.throughput.iter().enumerate() {
            let comma = if j + 1 < r.throughput.len() { "," } else { "" };
            match t {
                ThroughputPoint::Measured { threads, secs, qps } => {
                    let _ = writeln!(
                        out,
                        "        \"threads_{threads}\": {{\"secs\": {secs:.6}, \
                         \"qps\": {qps:.3}, \"skipped\": false}}{comma}"
                    );
                }
                ThroughputPoint::Skipped { threads } => {
                    let _ = writeln!(
                        out,
                        "        \"threads_{threads}\": {{\"skipped\": true, \
                         \"hardware_threads\": {hardware_threads}}}{comma}"
                    );
                }
            }
        }
        out.push_str("      },\n");
        let _ = writeln!(out, "      \"metrics\": {}", r.metrics_json);
        let comma = if i + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| a != "--quick")
        .unwrap_or_else(|| "BENCH_query.json".to_string());
    let quick =
        std::env::var_os("CI_BENCH_QUICK").is_some() || std::env::args().any(|a| a == "--quick");
    let hardware_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let n = if quick { 12 } else { 80 };
    eprintln!(
        "bench_query: {hardware_threads} hardware thread(s), {} workload",
        if quick { "quick" } else { "full" }
    );

    let dblp = dblp_data();
    let dblp_snap =
        Arc::clone(dblp_engine(&dblp, 4, IndexKind::Star { relations: None }).snapshot());
    let dblp_queries: Vec<(String, QueryPattern)> = dblp_workload(&dblp, n, 11)
        .into_iter()
        .map(|q: LabeledQuery| (q.keywords.join(" "), q.pattern))
        .collect();

    let imdb = imdb_data();
    let imdb_snap =
        Arc::clone(imdb_engine(&imdb, 4, IndexKind::Star { relations: None }).snapshot());
    let imdb_queries: Vec<(String, QueryPattern)> = imdb_synthetic_workload(&imdb, n, 11)
        .into_iter()
        .map(|q: LabeledQuery| (q.keywords.join(" "), q.pattern))
        .collect();

    let reports = vec![
        run_dataset("dblp", &dblp_snap, &dblp_queries, hardware_threads),
        run_dataset("imdb", &imdb_snap, &imdb_queries, hardware_threads),
    ];

    let report = json(&reports, hardware_threads, quick);
    std::fs::write(&out_path, &report).expect("write BENCH_query.json");
    eprintln!("bench_query: wrote {out_path}");
}
