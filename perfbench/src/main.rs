//! The CI-Rank query benchmark: one command per workload, end-to-end
//! metrics from an untraced closed-loop replay (`--trace 0`), per-layer
//! metrics from a traced one (`--trace 1`). See README.md.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--data-seed N] [--query-seed N]
//! perfbench --print-pins
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only when every answer passed the gate.

mod gate;
mod replay;
mod speed;
mod stats;
mod trace;
mod workload;

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use ci_index::DistIndex;
use ci_rank::{EngineBuilder, EngineSnapshot, StageReport};

use gate::{dblp_exact_pins, Gate};
use replay::{timed_pass, warm_up, Tally, Target};
use speed::Clock;
use stats::{median, percentile, SplitMix};
use trace::{open_session, stage_span, traced_pass, Counts, Spans};
use workload::{Inputs, Workload};

/// Fewest timed queries a run reports on: p90 then has ten samples above it.
const MIN_SAMPLES: usize = 100;
/// Fewest engine builds per run; `setup_s` is their median.
const DEFAULT_BUILDS: usize = 5;
/// Builds continue past the fewest until this much build time is spent,
/// so the median of a small graph's build is over many samples.
const SETUP_SECONDS: f64 = 2.0;
/// Worker threads of the engine build. One: on a 2-vCPU shared host the
/// second vCPU is often busy with a neighbour, and two-thread builds then
/// ran 3-4x slower than one-thread builds and spread far wider.
const BUILD_THREADS: usize = 1;

/// One run's settings.
struct Config {
    workload: Workload,
    /// Seeds the replay order of every pass.
    seed: u64,
    seconds: f64,
    trace: bool,
    data_seed: u64,
    query_seed: u64,
    builds: usize,
    /// Builds continue until this much build time is spent.
    setup_seconds: f64,
    min_samples: usize,
    /// Replay only these query indices (self-tests).
    only: Option<Vec<usize>>,
    /// Flip a bit of this query's pinned fingerprint (self-tests).
    perturb_pin: Option<usize>,
    /// Where the traced run writes its spans.
    spans_out: Option<PathBuf>,
}

impl Config {
    fn new(workload: Workload) -> Self {
        Config {
            workload,
            seed: 1,
            seconds: 10.0,
            trace: false,
            data_seed: workload.default_seeds().0,
            query_seed: workload.default_seeds().1,
            builds: DEFAULT_BUILDS,
            setup_seconds: SETUP_SECONDS,
            min_samples: MIN_SAMPLES,
            only: None,
            perturb_pin: None,
            spans_out: None,
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run found.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Machine and run context, printed on the line before the result.
    context: Vec<(&'static str, String)>,
    failures: Vec<String>,
    /// Answer fingerprint per query index (compared by the self-tests).
    #[cfg_attr(not(test), allow(dead_code))]
    fingerprints: Vec<Option<u64>>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Each build's wall-clock, and the same scaled to the reference loop's
/// nominal speed, in seconds.
#[derive(Default)]
struct BuildTimes {
    wall_s: Vec<f64>,
    scaled_s: Vec<f64>,
}

/// Builds the engine at least `builds` times and until `setup_seconds` of
/// build time have passed, keeping the last snapshot. Returns it with each
/// build's time; stage reports become spans when traced.
fn build(
    inputs: &Inputs,
    builds: usize,
    setup_seconds: f64,
    mut spans: Option<&mut Spans>,
) -> Result<(EngineSnapshot, BuildTimes), String> {
    let mut snap = None;
    let mut times = BuildTimes::default();
    let mut clock = Clock::start();
    while times.wall_s.len() < builds.max(1) || times.wall_s.iter().sum::<f64>() < setup_seconds {
        drop(snap.take());
        let reports: Rc<RefCell<Vec<StageReport>>> = Rc::default();
        let mut builder = EngineBuilder::new(inputs.cfg.clone());
        if spans.is_some() {
            let sink = Rc::clone(&reports);
            builder = builder.on_stage_report(move |r| sink.borrow_mut().push(r));
        }
        let t = Instant::now();
        let built = builder
            .build(&inputs.db)
            .map_err(|e| format!("build: {e}"))?;
        let dur = t.elapsed();
        times.wall_s.push(dur.as_secs_f64());
        times
            .scaled_s
            .push(speed::scaled(dur.as_secs_f64(), clock.lap()));
        if let Some(spans) = spans.as_deref_mut() {
            let root = spans.record(None, "core.build", None, t, dur, 1);
            let mut start = t;
            for r in reports.borrow().iter() {
                spans.record(None, stage_span(r.stage), Some(root), start, r.elapsed, 1);
                start += r.elapsed;
            }
        }
        snap = Some(built);
    }
    snap.map(|s| (s, times)).ok_or_else(|| "no build".into())
}

/// Whether to start another whole pass: yes while doing so ends nearer
/// `seconds` of measurement than stopping now.
fn another_pass(timed_s: f64, passes: usize, seconds: f64) -> bool {
    passes == 0 || timed_s + timed_s / passes as f64 / 2.0 < seconds
}

fn run(cfg: &Config) -> Result<Report, String> {
    let w = cfg.workload;
    let threads = nproc();
    let inputs = workload::inputs(w, cfg.data_seed, cfg.query_seed, BUILD_THREADS);
    let queries = &inputs.queries;
    let mut spans = Spans::new();
    let (snap, setup) = build(
        &inputs,
        cfg.builds,
        cfg.setup_seconds,
        cfg.trace.then_some(&mut spans),
    )?;

    let pinned = w == Workload::DblpExact && (cfg.data_seed, cfg.query_seed) == w.default_seeds();
    let pins = if pinned {
        let mut pins = dblp_exact_pins(queries)?;
        if let Some(i) = cfg.perturb_pin {
            pins[i] ^= 1;
        }
        Some(pins)
    } else {
        None
    };
    let mut gate = Gate::new(&snap, queries, w.exact(), pins);
    let subset: Vec<usize> = cfg
        .only
        .clone()
        .unwrap_or_else(|| (0..queries.len()).collect());
    let mut rng = SplitMix::new(cfg.seed);
    let mut next_order = || -> Vec<usize> {
        rng.permutation(subset.len())
            .into_iter()
            .map(|i| subset[i])
            .collect()
    };
    let subset_queries: Vec<String> = subset.iter().map(|&i| queries[i].clone()).collect();

    let mut context: Vec<(&'static str, String)> = vec![
        ("workload", format!("\"{}\"", w.name())),
        ("seed", cfg.seed.to_string()),
        ("data_seed", cfg.data_seed.to_string()),
        ("query_seed", cfg.query_seed.to_string()),
        ("check_seeds", {
            let (d, q) = w.check_seeds();
            format!("[{d}, {q}]")
        }),
        ("queries", subset.len().to_string()),
        ("pinned", pinned.to_string()),
        ("nproc", threads.to_string()),
        ("build_threads", inputs.cfg.build_threads.to_string()),
        ("builds", setup.wall_s.len().to_string()),
        ("graph_nodes", snap.graph().node_count().to_string()),
        ("graph_edges", snap.graph().edge_count().to_string()),
    ];

    let mut untraced = Tally::default();
    let metrics: Vec<Metric>;
    let attempted;
    if !cfg.trace {
        let session = (!w.cold()).then(|| snap.session().with_budget(w.budget()));
        let target = match &session {
            Some(s) => Target::Warm(s),
            None => Target::Cold(&snap),
        };
        if session.is_some() {
            warm_up(&target, &subset_queries);
        }
        while untraced.attempted() < cfg.min_samples.max(1)
            || another_pass(untraced.timed_s, untraced.passes, cfg.seconds)
        {
            timed_pass(&target, queries, &next_order(), &mut gate, &mut untraced);
        }
        attempted = untraced.attempted();
        let n = attempted as f64;
        let busy_s = |ms: &[f64]| ms.iter().sum::<f64>() / 1e3;
        metrics = vec![
            (
                "latency_p50_ms",
                percentile(&untraced.scaled_ms, 50.0),
                "ms",
            ),
            (
                "latency_p90_ms",
                percentile(&untraced.scaled_ms, 90.0),
                "ms",
            ),
            ("qps", n / busy_s(&untraced.scaled_ms), "queries/s"),
            ("exact_frac", untraced.exact as f64 / n, "ratio"),
            ("setup_s", median(&setup.scaled_s), "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ];

        context.push(("samples", attempted.to_string()));
        context.push(("passes", untraced.passes.to_string()));
        context.push(("exact", untraced.exact.to_string()));
        context.push((
            "reference_ms_p50",
            percentile(&untraced.reference_ms, 50.0).to_string(),
        ));
        context.push((
            "wall_latency_p50_ms",
            percentile(&untraced.latencies_ms, 50.0).to_string(),
        ));
        context.push((
            "wall_latency_p90_ms",
            percentile(&untraced.latencies_ms, 90.0).to_string(),
        ));
        context.push(("wall_qps", (n / busy_s(&untraced.latencies_ms)).to_string()));
        context.push(("wall_setup_s", median(&setup.wall_s).to_string()));
    } else {
        let mut traced = Tally::default();
        let mut counts = Counts::default();
        let mut next_qid = 0u32;
        let mut warm = (!w.cold()).then(|| open_session(&snap, w, &mut spans, None).0);
        if let Some(ts) = &warm {
            warm_up(&Target::Warm(&ts.session), &subset_queries);
        }
        // Alternate untraced and traced passes over the same order, so the
        // overhead estimate sees the same machine state on both sides.
        while traced.passes == 0
            || another_pass(
                untraced.timed_s + traced.timed_s,
                traced.passes,
                cfg.seconds,
            )
        {
            let order = next_order();
            let target = match &warm {
                Some(ts) => Target::Warm(&ts.session),
                None => Target::Cold(&snap),
            };
            timed_pass(&target, queries, &order, &mut gate, &mut untraced);
            traced_pass(
                &snap,
                w,
                warm.as_mut(),
                queries,
                &order,
                &mut gate,
                &mut traced,
                &mut spans,
                &mut counts,
                &mut next_qid,
            );
        }
        attempted = untraced.attempted() + traced.attempted();
        untraced.failed += traced.failed;
        metrics = layer_metrics(&snap, &spans, &counts, &traced, &untraced);
        let overhead = metrics
            .iter()
            .find(|m| m.0 == "trace.overhead_ms")
            .map_or(0.0, |m| m.1);
        context.push(("trace_overhead_ms", overhead.to_string()));
        context.push(("traced_passes", traced.passes.to_string()));
        if let Some(path) = &cfg.spans_out {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, spans.to_jsonl())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            context.push(("spans", format!("\"{}\"", path.display())));
        }
    }

    let failed = untraced.failed;
    Ok(Report {
        correct: failed == 0 && gate.failures.is_empty(),
        attempted,
        failed,
        metrics,
        context,
        failures: gate.failures.clone(),
        fingerprints: gate.fingerprints(),
    })
}

/// The per-layer metrics of a traced run. Counts and busy times are per
/// pass over the query list; `_us` figures are per call.
fn layer_metrics(
    snap: &EngineSnapshot,
    spans: &Spans,
    counts: &Counts,
    traced: &Tally,
    untraced: &Tally,
) -> Vec<Metric> {
    let passes = traced.passes.max(1) as f64;
    let per_pass = |v: u64| v as f64 / passes;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mean_us = |name: &str| {
        ratio(
            spans.total(name).as_secs_f64() * 1e6,
            spans.count(name) as f64,
        )
    };
    let build_median = |name: &str| {
        let secs: Vec<f64> = spans
            .durations(name)
            .iter()
            .map(std::time::Duration::as_secs_f64)
            .collect();
        median(&secs)
    };
    let self_ms = ms(spans.self_time("search.bnb"));
    let probes = counts.cache_hits + counts.cache_misses;
    let table_bytes = match snap.dist_index() {
        DistIndex::Star(idx) => idx.table_bytes().len(),
        DistIndex::Naive(idx) => idx.table_bytes().len(),
        DistIndex::None => 0,
    };
    vec![
        ("search.self_ms", self_ms / passes, "ms"),
        ("search.pops", per_pass(counts.pops), "count"),
        ("search.merges", per_pass(counts.merges), "count"),
        (
            "search.merges_per_pop",
            ratio(counts.merges as f64, counts.pops as f64),
            "ratio",
        ),
        ("search.registered", per_pass(counts.registered), "count"),
        (
            "search.bound_pruned",
            per_pass(counts.bound_pruned),
            "count",
        ),
        (
            "search.distance_pruned",
            per_pass(counts.distance_pruned),
            "count",
        ),
        (
            "search.us_per_pop",
            ratio(self_ms * 1e3, counts.pops as f64),
            "us",
        ),
        (
            "search.candidates_peak",
            counts.candidates_peak as f64,
            "count",
        ),
        ("search.truncated", per_pass(counts.truncated), "count"),
        ("index.probes", per_pass(probes), "count"),
        ("index.cache_misses", per_pass(counts.cache_misses), "count"),
        (
            "index.cache_hit_ratio",
            ratio(counts.cache_hits as f64, probes as f64),
            "ratio",
        ),
        (
            "index.probe_ms",
            ms(spans.total("index.probe")) / passes,
            "ms",
        ),
        ("index.cache_entries", counts.cache_entries as f64, "count"),
        ("core.session_open_us", mean_us("core.session_open"), "us"),
        ("core.scratch_slots", counts.scratch_slots as f64, "count"),
        ("text.resolve_us", mean_us("text.resolve"), "us"),
        ("text.matchers", per_pass(counts.matchers), "count"),
        ("index.build_s", build_median("index.build"), "s"),
        ("graph.build_s", build_median("graph.build"), "s"),
        ("text.build_s", build_median("text.build"), "s"),
        ("walk.importance_s", build_median("walk.importance"), "s"),
        (
            "baselines.prestige_s",
            build_median("baselines.prestige"),
            "s",
        ),
        ("rwmp.dampening_s", build_median("rwmp.dampening"), "s"),
        ("index.table_bytes", table_bytes as f64, "bytes"),
        ("graph.nodes", snap.graph().node_count() as f64, "count"),
        ("graph.edges", snap.graph().edge_count() as f64, "count"),
        (
            "trace.overhead_ms",
            percentile(&traced.scaled_ms, 50.0) - percentile(&untraced.scaled_ms, 50.0),
            "ms",
        ),
    ]
}

/// JSON number: finite values as Rust prints them (every digit kept).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(r: &Report) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        r.correct, r.attempted, r.failed
    )
}

fn context_line(r: &Report) -> String {
    let fields: Vec<String> = r
        .context
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"context\": {{{}}}}}", fields.join(", "))
}

/// Replays `dblp_exact` at the default seeds once and prints its pin table.
fn print_pins() -> Result<(), String> {
    let w = Workload::DblpExact;
    let (data_seed, query_seed) = w.default_seeds();
    let inputs = workload::inputs(w, data_seed, query_seed, BUILD_THREADS);
    let (snap, _) = build(&inputs, 1, 0.0, None)?;
    let mut gate = Gate::new(&snap, &inputs.queries, true, None);
    let session = snap.session().with_budget(w.budget());
    let order: Vec<usize> = (0..inputs.queries.len()).collect();
    timed_pass(
        &Target::Warm(&session),
        &inputs.queries,
        &order,
        &mut gate,
        &mut Tally::default(),
    );
    if !gate.failures.is_empty() {
        return Err(gate.failures.join("\n"));
    }
    println!(
        "# dblp_exact answer fingerprints (score bits and node ids), \
         data seed {data_seed}, query seed {query_seed}"
    );
    for (i, (q, fp)) in inputs.queries.iter().zip(gate.fingerprints()).enumerate() {
        println!("{i}\t{:016x}\t{q}", fp.unwrap_or_default());
    }
    Ok(())
}

const USAGE: &str = "usage: perfbench --workload <dblp_exact|imdb_capped|imdb_cold> \
[--seed N] [--seconds S] [--trace 0|1] [--data-seed N] [--query-seed N]\n       \
perfbench --print-pins";

fn parse_args(args: &[String]) -> Result<Option<Config>, String> {
    if args.iter().any(|a| a == "--print-pins") {
        return Ok(None);
    }
    let mut cfg: Option<Config> = None;
    let mut rest: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if flag == "--workload" {
            let w = Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?;
            cfg = Some(Config::new(w));
        } else {
            rest.push((flag, value));
        }
    }
    let mut cfg = cfg.ok_or("--workload is required")?;
    for (flag, value) in rest {
        let int = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag {
            "--seed" => cfg.seed = int()?,
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("{flag} {value:?}: {e}"))?
            }
            "--trace" => {
                cfg.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--data-seed" => cfg.data_seed = int()?,
            "--query-seed" => cfg.query_seed = int()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.trace {
        let name = format!("{}-seed{}.spans.jsonl", cfg.workload.name(), cfg.seed);
        cfg.spans_out = Some(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(name),
        );
    }
    Ok(Some(cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            return match print_pins() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for f in report.failures.iter().take(20) {
                eprintln!("perfbench: FAILED {f}");
            }
            println!("{}", context_line(&report));
            println!("{}", result_line(&report));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric a `BENCHMARK.json` section lists.
    fn listed(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section listed");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    /// A quick run: few queries, one build, no minimum duration.
    fn quick(w: Workload, only: &[usize], trace: bool) -> Config {
        let mut cfg = Config::new(w);
        cfg.seconds = 0.0;
        cfg.min_samples = 0;
        cfg.builds = 1;
        cfg.setup_seconds = 0.0;
        cfg.trace = trace;
        cfg.only = Some(only.to_vec());
        cfg
    }

    #[test]
    fn seeded_workloads_are_deterministic() {
        let dump = |inputs: &Inputs| {
            let mut out = Vec::new();
            ci_storage::persist::dump(&inputs.db, &mut out).expect("dump to memory");
            out
        };
        for w in Workload::ALL {
            let (data, query) = w.default_seeds();
            let a = workload::inputs(w, data, query, 1);
            let b = workload::inputs(w, data, query, 2);
            assert_eq!(a.queries, b.queries, "{}", w.name());
            assert_eq!(dump(&a), dump(&b), "{}", w.name());
            assert!(a.queries.len() >= 30, "{}", w.name());
            let other = workload::inputs(w, data, query + 1, 1);
            assert_ne!(a.queries, other.queries, "{}", w.name());
        }
    }

    #[test]
    fn every_listed_metric_is_emitted_with_its_unit() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&quick(Workload::DblpExact, &[0, 1], trace)).expect("run");
            assert!(report.correct, "{:?}", report.failures);
            let emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
                .collect();
            assert_eq!(emitted, listed(section), "{section}");
            assert!(report.metrics.iter().all(|m| m.1.is_finite()));
            let line = result_line(&report);
            for (name, unit) in listed(section) {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
            }
        }
    }

    #[test]
    fn a_perturbed_pin_fails_the_run() {
        let clean = run(&quick(Workload::DblpExact, &[3], false)).expect("run");
        assert!(clean.correct, "{:?}", clean.failures);
        let mut cfg = quick(Workload::DblpExact, &[3], false);
        cfg.perturb_pin = Some(3);
        let perturbed = run(&cfg).expect("run");
        assert!(!perturbed.correct);
        assert_eq!(perturbed.failed, perturbed.attempted);
        assert!(perturbed.failures[0].contains("pinned"));
    }

    #[test]
    fn a_rescored_answer_must_match_bit_for_bit() {
        let w = Workload::ImdbCapped;
        let (data, query) = w.default_seeds();
        let inputs = workload::inputs(w, data, query, 1);
        let (snap, _) = build(&inputs, 1, 0.0, None).expect("build");
        let session = snap.session().with_budget(w.budget());
        let mut gate = Gate::new(&snap, &inputs.queries, w.exact(), None);
        let mut out =
            replay::outcome(session.search_with_stats(&inputs.queries[0])).expect("query runs");
        assert!(!out.answers.is_empty());
        out.answers[0].0 = f64::from_bits(out.answers[0].0.to_bits() + 1);
        assert!(!gate.check(0, Ok(out)));
        assert!(gate.failures[0].contains("re-scores"));
    }

    #[test]
    fn traced_answers_equal_untraced_answers() {
        for (w, only) in [
            (Workload::DblpExact, vec![0, 5, 30]),
            (Workload::ImdbCapped, vec![0, 1]),
        ] {
            let plain = run(&quick(w, &only, false)).expect("untraced run");
            let traced = run(&quick(w, &only, true)).expect("traced run");
            assert!(plain.correct, "{:?}", plain.failures);
            assert!(traced.correct, "{:?}", traced.failures);
            for &i in &only {
                assert!(plain.fingerprints[i].is_some());
            }
            assert_eq!(plain.fingerprints, traced.fingerprints, "{}", w.name());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload dblp_exact --trace 2")).is_err());
        assert!(parse_args(&args("--workload dblp_exact --seed")).is_err());
        assert!(parse_args(&args("--seed 3")).is_err());
        let cfg = parse_args(&args(
            "--workload imdb_capped --seed 9 --seconds 4 --trace 1",
        ))
        .expect("valid")
        .expect("a run");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (9, 4.0, true));
        assert_eq!(
            (cfg.data_seed, cfg.query_seed),
            Workload::ImdbCapped.default_seeds()
        );
    }
}
