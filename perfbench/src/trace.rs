//! The traced replay: spans and counts around each call into a layer's
//! public API, kept in memory and written out when the run ends.
//!
//! A query's spans share its query id:
//! - `query` covers the whole query;
//! - `core.session_open` is `EngineSnapshot::session()` (per query on a
//!   cold workload; once, outside any query, on a warm one);
//! - `text.resolve` is `EngineSnapshot::query_spec`;
//! - `search.bnb` is `ci_search::bnb_search_in`, run the way
//!   `QuerySession::run_bnb` runs it: under an `OracleVisitor`, over the
//!   session's `OracleCache` through `CachedOracle::with_store`;
//! - `index.probe` is the star-index probes the cache missed on, one span
//!   per query aggregating all of them (`count` says how many).
//!
//! Build stages arrive through `EngineBuilder::on_stage_report` as
//! children of a `core.build` span with no query id.

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ci_graph::NodeId;
use ci_index::{DistanceOracle, OracleVisitor};
use ci_rank::{BuildStage, EngineSnapshot, QuerySession};
use ci_rwmp::Scorer;
use ci_search::{
    bnb_search_in, Answer, CachedOracle, OracleCache, QuerySpec, SearchOptions, SearchScratch,
    SearchStats,
};

use crate::gate::{Gate, Outcome};
use crate::replay::Tally;
use crate::speed::Clock;
use crate::workload::Workload;

/// One recorded span.
pub struct Span {
    /// Query id (`None` for set-up spans).
    pub qid: Option<u32>,
    pub name: &'static str,
    /// Index of the parent span in [`Spans::spans`].
    pub parent: Option<usize>,
    /// Start, relative to the run's origin.
    pub start: Duration,
    pub dur: Duration,
    /// Events the span aggregates (1 for a plain span).
    pub count: u64,
}

/// In-memory span store.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that started at `start` and ran for `dur`; returns
    /// its index for use as a parent.
    pub fn record(
        &mut self,
        qid: Option<u32>,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
        count: u64,
    ) -> usize {
        self.spans.push(Span {
            qid,
            name,
            parent,
            start: start.saturating_duration_since(self.origin),
            dur,
            count,
        });
        self.spans.len() - 1
    }

    /// Re-parents a recorded span (a parent is recorded after its children,
    /// once its own duration is known).
    pub fn set_parent(&mut self, child: usize, parent: usize) {
        self.spans[child].parent = Some(parent);
    }

    /// Total duration of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .sum()
    }

    /// Total self time of every span called `name`: each span's duration
    /// minus the durations of its children.
    pub fn self_time(&self, name: &str) -> Duration {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur;
            }
        }
        self.spans
            .iter()
            .zip(&child_time)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.dur.saturating_sub(*c))
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Durations of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"qid\":{},\"name\":\"{}\",\"parent\":{},\
                 \"start_ns\":{},\"dur_ns\":{},\"count\":{}}}",
                opt(s.qid.map(u64::from)),
                s.name,
                opt(s.parent.map(|p| p as u64)),
                s.start.as_nanos(),
                s.dur.as_nanos(),
                s.count
            );
        }
        out
    }
}

/// The layer a build stage belongs to, as a span name.
pub fn stage_span(stage: BuildStage) -> &'static str {
    match stage {
        BuildStage::Graph => "graph.build",
        BuildStage::TextIndex => "text.build",
        BuildStage::Importance => "walk.importance",
        BuildStage::Prestige => "baselines.prestige",
        BuildStage::Dampening => "rwmp.dampening",
        BuildStage::DistanceIndex => "index.build",
    }
}

/// A `DistanceOracle` that counts and times the probes reaching it. Placed
/// below the session's cache, it sees exactly the cache misses.
struct TimedOracle<'a, O> {
    inner: &'a O,
    probes: Cell<u64>,
    busy: Cell<Duration>,
}

impl<O: DistanceOracle> DistanceOracle for TimedOracle<'_, O> {
    fn dist_lb(&self, u: NodeId, v: NodeId) -> u32 {
        self.probe(u, v).0
    }

    fn retention_ub(&self, u: NodeId, v: NodeId) -> f64 {
        self.probe(u, v).1
    }

    fn probe(&self, u: NodeId, v: NodeId) -> (u32, f64) {
        let t = Instant::now();
        let out = self.inner.probe(u, v);
        self.busy.set(self.busy.get() + t.elapsed());
        self.probes.set(self.probes.get() + 1);
        out
    }
}

/// `QuerySession::run_bnb`, reproduced over public calls with the probe
/// timer slid under the cache.
struct TracedBnb<'a> {
    scorer: &'a Scorer<'a>,
    spec: &'a QuerySpec,
    opts: &'a SearchOptions,
    cache: &'a OracleCache,
    scratch: &'a mut SearchScratch,
}

impl OracleVisitor for TracedBnb<'_> {
    type Output = (Vec<Answer>, SearchStats, u64, Duration);

    fn visit<O: DistanceOracle>(self, oracle: &O) -> Self::Output {
        self.cache
            .set_entry_budget(self.opts.budget.max_cache_entries);
        self.cache
            .begin_query(self.spec.matchers_sorted().iter().copied());
        let before = self.cache.stats();
        let timed = TimedOracle {
            inner: oracle,
            probes: Cell::new(0),
            busy: Cell::new(Duration::ZERO),
        };
        let cached = CachedOracle::with_store(&timed, self.cache);
        let (answers, mut stats) =
            bnb_search_in(self.scorer, self.spec, &cached, self.opts, self.scratch);
        stats.cache = Some(self.cache.stats().delta_since(&before));
        (answers, stats, timed.probes.get(), timed.busy.get())
    }
}

/// Per-query counts the spans do not carry.
#[derive(Default)]
pub struct Counts {
    pub pops: u64,
    pub merges: u64,
    pub registered: u64,
    pub bound_pruned: u64,
    pub distance_pruned: u64,
    pub candidates_peak: u64,
    pub truncated: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Largest `CacheStats::entries` any session reached.
    pub cache_entries: u64,
    /// Largest `SearchScratch::slots_allocated` any session reached.
    pub scratch_slots: u64,
    pub matchers: u64,
}

/// The per-session state of the traced path: the engine's session (its
/// options and oracle cache) and the bench-side search scratch.
pub struct TracedSession<'s> {
    pub session: QuerySession<'s>,
    pub scratch: SearchScratch,
}

/// Opens a session under a `core.session_open` span.
pub fn open_session<'s>(
    snap: &'s EngineSnapshot,
    w: Workload,
    spans: &mut Spans,
    qid: Option<u32>,
) -> (TracedSession<'s>, usize) {
    let t = Instant::now();
    let session = snap.session().with_budget(w.budget());
    let scratch = SearchScratch::new();
    let span = spans.record(qid, "core.session_open", None, t, t.elapsed(), 1);
    (TracedSession { session, scratch }, span)
}

/// One query through the traced path; returns the search result and the
/// spans to hang under the query's root span.
fn traced_query(
    snap: &EngineSnapshot,
    ts: &mut TracedSession<'_>,
    query: &str,
    qid: Option<u32>,
    spans: &mut Spans,
    counts: &mut Counts,
    children: &mut Vec<usize>,
) -> ci_rank::Result<(Vec<Answer>, SearchStats)> {
    let t = Instant::now();
    let spec = snap.query_spec(query);
    children.push(spans.record(qid, "text.resolve", None, t, t.elapsed(), 1));
    let spec = spec?;

    let t = Instant::now();
    let scorer = snap.scorer();
    let (answers, stats, probes, probe_busy) = snap.with_oracle(TracedBnb {
        scorer: &scorer,
        spec: &spec,
        opts: ts.session.options(),
        cache: ts.session.oracle_cache(),
        scratch: &mut ts.scratch,
    });
    let bnb = spans.record(qid, "search.bnb", None, t, t.elapsed(), 1);
    spans.record(qid, "index.probe", Some(bnb), t, probe_busy, probes);
    children.push(bnb);
    counts.matchers += spec.matchers_sorted().len() as u64;
    counts.scratch_slots = counts
        .scratch_slots
        .max(ts.scratch.slots_allocated() as u64);
    Ok((answers, stats))
}

/// Replays `order` once through the traced path, then checks every outcome
/// with the same gate as the untraced passes, so traced answers must equal
/// untraced ones. `warm` is the session a warm workload replays on; a cold
/// workload opens one per query.
#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    snap: &EngineSnapshot,
    w: Workload,
    mut warm: Option<&mut TracedSession<'_>>,
    queries: &[String],
    order: &[usize],
    gate: &mut Gate<'_>,
    tally: &mut Tally,
    spans: &mut Spans,
    counts: &mut Counts,
    next_qid: &mut u32,
) {
    let mut results = Vec::with_capacity(order.len());
    let pass_start = Instant::now();
    let mut clock = Clock::start();
    for &qi in order {
        let qid = Some(*next_qid);
        *next_qid += 1;
        let t_query = Instant::now();
        let mut children = Vec::with_capacity(3);
        let query = &queries[qi];
        let result = match warm.as_deref_mut() {
            Some(ts) => traced_query(snap, ts, query, qid, spans, counts, &mut children),
            None => {
                let (mut ts, open) = open_session(snap, w, spans, qid);
                children.push(open);
                traced_query(snap, &mut ts, query, qid, spans, counts, &mut children)
            }
        };
        let dur = t_query.elapsed();
        let root = spans.record(qid, "query", None, t_query, dur, 1);
        for c in children {
            spans.set_parent(c, root);
        }
        tally.record(dur.as_secs_f64() * 1e3, clock.lap());
        results.push((qi, result));
    }
    tally.timed_s += pass_start.elapsed().as_secs_f64();
    tally.passes += 1;

    for (qi, result) in results {
        if let Ok((_, s)) = &result {
            counts.pops += s.pops as u64;
            counts.merges += s.merges as u64;
            counts.registered += s.registered as u64;
            counts.bound_pruned += s.bound_pruned as u64;
            counts.distance_pruned += s.distance_pruned as u64;
            counts.candidates_peak = counts.candidates_peak.max(s.candidates_peak as u64);
            counts.truncated += u64::from(s.truncated());
            if let Some(c) = s.cache {
                counts.cache_hits += c.hits as u64;
                counts.cache_misses += c.misses as u64;
                counts.cache_entries = counts.cache_entries.max(c.entries as u64);
            }
        }
        let out = result
            .map(|(answers, stats)| Outcome {
                answers: answers.into_iter().map(|a| (a.score, a.tree)).collect(),
                stats,
            })
            .map_err(|e| e.to_string());
        if matches!(&out, Ok(o) if !o.stats.truncated()) {
            tally.exact += 1;
        }
        if !gate.check(qi, out) {
            tally.failed += 1;
        }
    }
}
