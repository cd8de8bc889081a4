//! The answer gate: every measured answer is checked, not only timed.
//!
//! Each query's outcome must
//! - be an answer list, not an error;
//! - on an exact workload, come from a run that was not truncated;
//! - hold only valid answers (`ci_search::is_valid_answer`) whose scores
//!   re-score bit-identically (`ci_search::score_answer`), best first;
//! - on `dblp_exact` at the default seeds, match its pinned fingerprint
//!   (score bits and node ids; `SearchStats` counters are left out, so a
//!   search change that does less work with the same answers still passes);
//! - repeat, answers and `SearchStats` counters, every time the run replays
//!   the query, traced or not.

use ci_rank::EngineSnapshot;
use ci_rwmp::{Jtt, Scorer};
use ci_search::{is_valid_answer, score_answer, QuerySpec, SearchStats};

/// The pinned `dblp_exact` fingerprints: `index<TAB>hex<TAB>query` lines.
const DBLP_EXACT_PINS: &str = include_str!("../pins/dblp_exact.tsv");

/// One query's outcome, reduced to what the gate checks.
pub struct Outcome {
    /// `(score, tree)` per answer, in ranked order.
    pub answers: Vec<(f64, Jtt)>,
    /// The run's statistics.
    pub stats: SearchStats,
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of a ranked answer list: its length, then each answer's score bits
/// and node ids in tree order.
pub fn answer_fingerprint(answers: &[(f64, Jtt)]) -> u64 {
    let mut h = Fnv::new();
    h.u64(answers.len() as u64);
    for (score, tree) in answers {
        h.u64(score.to_bits());
        h.u64(tree.size() as u64);
        for v in tree.nodes() {
            h.u64(u64::from(v.0));
        }
    }
    h.0
}

fn stats_fingerprint(s: &SearchStats) -> u64 {
    let mut h = Fnv::new();
    for v in [
        s.pops,
        s.registered,
        s.bound_pruned,
        s.distance_pruned,
        s.merges,
        s.candidates_peak,
    ] {
        h.u64(v as u64);
    }
    h.u64(u64::from(s.truncation.is_some()));
    h.0
}

/// The pinned fingerprints, checked against the query list they were
/// captured for. Errors if the list differs: the pins are then stale.
pub fn dblp_exact_pins(queries: &[String]) -> Result<Vec<u64>, String> {
    let mut pins = Vec::new();
    for line in DBLP_EXACT_PINS.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let mut cols = line.splitn(3, '\t');
        let (Some(index), Some(hex), Some(query)) = (cols.next(), cols.next(), cols.next()) else {
            return Err(format!("malformed pin line {line:?}"));
        };
        let fp = u64::from_str_radix(hex, 16).map_err(|e| format!("pin {index}: {e}"))?;
        if queries.get(pins.len()).map(String::as_str) != Some(query) {
            return Err(format!(
                "pin {index} is for query {query:?}, not the generated one"
            ));
        }
        pins.push(fp);
    }
    if pins.len() != queries.len() {
        return Err(format!("{} pins for {} queries", pins.len(), queries.len()));
    }
    Ok(pins)
}

/// Checks outcomes of one workload's queries, by query index.
pub struct Gate<'s> {
    snap: &'s EngineSnapshot,
    scorer: Scorer<'s>,
    queries: Vec<String>,
    exact: bool,
    pins: Option<Vec<u64>>,
    specs: Vec<Option<QuerySpec>>,
    seen: Vec<Option<(u64, u64)>>,
    /// One line per failed check, in the order they happened.
    pub failures: Vec<String>,
}

impl<'s> Gate<'s> {
    pub fn new(
        snap: &'s EngineSnapshot,
        queries: &[String],
        exact: bool,
        pins: Option<Vec<u64>>,
    ) -> Self {
        Gate {
            snap,
            scorer: snap.scorer(),
            queries: queries.to_vec(),
            exact,
            pins,
            specs: vec![None; queries.len()],
            seen: vec![None; queries.len()],
            failures: Vec::new(),
        }
    }

    /// Checks query `qi`'s outcome; returns whether it passed, and records
    /// why not in [`Gate::failures`].
    pub fn check(&mut self, qi: usize, outcome: Result<Outcome, String>) -> bool {
        match self.problem(qi, outcome) {
            None => true,
            Some(why) => {
                self.failures
                    .push(format!("query {qi} {:?}: {why}", self.queries[qi]));
                false
            }
        }
    }

    fn problem(&mut self, qi: usize, outcome: Result<Outcome, String>) -> Option<String> {
        let out = match outcome {
            Ok(out) => out,
            Err(e) => return Some(format!("error: {e}")),
        };
        if self.exact && out.stats.truncated() {
            return Some("truncated on an exact workload".into());
        }
        if self.specs[qi].is_none() {
            match self.snap.query_spec(&self.queries[qi]) {
                Ok(spec) => self.specs[qi] = Some(spec),
                Err(e) => return Some(format!("query_spec: {e}")),
            }
        }
        let spec = self.specs[qi].as_ref()?;
        let mut previous = f64::INFINITY;
        for (rank, (score, tree)) in out.answers.iter().enumerate() {
            if !is_valid_answer(tree, spec) {
                return Some(format!("answer {rank} is not a valid answer"));
            }
            let rescored = score_answer(&self.scorer, spec, tree).map(f64::to_bits);
            if rescored != Some(score.to_bits()) {
                return Some(format!("answer {rank} re-scores differently"));
            }
            if *score > previous {
                return Some(format!("answer {rank} is ranked below a lower score"));
            }
            previous = *score;
        }
        let fp = answer_fingerprint(&out.answers);
        if let Some(pins) = &self.pins {
            if pins[qi] != fp {
                return Some(format!(
                    "answers {fp:016x} do not match the pinned {:016x}",
                    pins[qi]
                ));
            }
        }
        let both = (fp, stats_fingerprint(&out.stats));
        match self.seen[qi] {
            None => self.seen[qi] = Some(both),
            Some(first) if first != both => {
                return Some("outcome differs from an earlier replay of the query".into())
            }
            Some(_) => {}
        }
        None
    }

    /// Answer fingerprints in query order (for writing a pin table).
    pub fn fingerprints(&self) -> Vec<Option<u64>> {
        self.seen.iter().map(|s| s.map(|(fp, _)| fp)).collect()
    }
}
