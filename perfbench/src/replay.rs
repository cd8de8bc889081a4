//! The untraced closed-loop replay the end-to-end metrics come from: one
//! client, the next query starts when the previous one returns.

use std::time::Instant;

use ci_rank::{EngineSnapshot, QuerySession, RankedAnswer, Result as EngineResult};
use ci_search::SearchStats;

use crate::gate::{Gate, Outcome};
use crate::speed::{self, Clock};

/// Accumulated measurements of a run's timed passes.
#[derive(Default)]
pub struct Tally {
    /// Wall-clock of each timed query, in ms.
    pub latencies_ms: Vec<f64>,
    /// The same latencies scaled to the reference loop's nominal speed.
    pub scaled_ms: Vec<f64>,
    /// The reference loop's time around each timed query, in ms.
    pub reference_ms: Vec<f64>,
    /// Wall-clock of the timed passes, excluding the checks between them.
    pub timed_s: f64,
    /// Whole passes over the query list.
    pub passes: usize,
    /// Queries whose run was not truncated (Theorem 1 holds).
    pub exact: usize,
    /// Queries that failed the answer gate.
    pub failed: usize,
}

impl Tally {
    /// Queries attempted so far.
    pub fn attempted(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Records one timed query: its wall-clock and the reference loop's
    /// time around it, both in ms.
    pub fn record(&mut self, wall_ms: f64, reference_ms: f64) {
        self.latencies_ms.push(wall_ms);
        self.scaled_ms.push(speed::scaled(wall_ms, reference_ms));
        self.reference_ms.push(reference_ms);
    }
}

/// Where a workload's queries go: one warm session, or a fresh session per
/// query through `EngineSnapshot::search_with_stats`.
pub enum Target<'s> {
    Warm(&'s QuerySession<'s>),
    Cold(&'s EngineSnapshot),
}

impl Target<'_> {
    fn search(&self, q: &str) -> EngineResult<(Vec<RankedAnswer>, SearchStats)> {
        match self {
            Target::Warm(session) => session.search_with_stats(q),
            Target::Cold(snap) => snap.search_with_stats(q),
        }
    }
}

/// Reduces an engine result to what the gate checks.
pub fn outcome(result: EngineResult<(Vec<RankedAnswer>, SearchStats)>) -> Result<Outcome, String> {
    result
        .map(|(ranked, stats)| Outcome {
            answers: ranked.into_iter().map(|a| (a.score, a.tree)).collect(),
            stats,
        })
        .map_err(|e| e.to_string())
}

/// Replays `queries` once, untimed and unchecked (the warm-up).
pub fn warm_up(target: &Target<'_>, queries: &[String]) {
    for q in queries {
        let _ = target.search(q);
    }
}

/// Replays `order` once, timing each query against the reference loop,
/// then checks every outcome outside the timed region.
pub fn timed_pass(
    target: &Target<'_>,
    queries: &[String],
    order: &[usize],
    gate: &mut Gate<'_>,
    tally: &mut Tally,
) {
    let mut results = Vec::with_capacity(order.len());
    let pass_start = Instant::now();
    let mut clock = Clock::start();
    for &qi in order {
        let (result, wall_ms, reference_ms) = clock.time(|| target.search(&queries[qi]));
        tally.record(wall_ms, reference_ms);
        results.push((qi, result));
    }
    tally.timed_s += pass_start.elapsed().as_secs_f64();
    tally.passes += 1;
    for (qi, result) in results {
        let out = outcome(result);
        if matches!(&out, Ok(o) if !o.stats.truncated()) {
            tally.exact += 1;
        }
        if !gate.check(qi, out) {
            tally.failed += 1;
        }
    }
}
