//! Replay fingerprints of the query hot path.
//!
//! Shared by `examples/query_fingerprint.rs` (which prints the hashes) and
//! `tests/query_hot_path_determinism.rs` (which pins them as constants).
//! A fingerprint folds every observable output of a replayed workload —
//! bit-exact scores, result node lists, and the `SearchStats` counters —
//! into one FNV-1a hash, so "the optimized hot path is bit-identical to
//! the original implementation" is a single `u64` comparison.
//!
//! The hash deliberately covers only the counters that existed before the
//! hot-path optimizations (pops, registered, pruning counts, merges, peak,
//! truncation) — cache statistics are reported through a separate optional
//! field precisely so they do not perturb this contract.

use ci_datagen::{generate_dblp, DblpConfig};
use ci_graph::WeightConfig;
use ci_rank::{
    CiRankConfig, EngineBuilder, EngineSnapshot, IndexKind, QuerySession, SearchTrace, TraceEvent,
    TraceLevel,
};
use ci_search::PruneReason;

/// FNV-1a, 64-bit: simple, stable, dependency-free.
#[derive(Debug)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// The zipf-skewed DBLP dataset of `tests/parallel_build_determinism.rs`.
pub fn zipf_dataset() -> ci_datagen::DblpData {
    generate_dblp(DblpConfig {
        papers: 120,
        authors: 60,
        conferences: 5,
        zipf_exponent: 1.7,
        seed: 13,
        ..Default::default()
    })
}

/// A mid-size DBLP dataset distinct from the zipf one.
pub fn midsize_dataset() -> ci_datagen::DblpData {
    generate_dblp(DblpConfig {
        papers: 220,
        authors: 120,
        conferences: 8,
        seed: 41,
        ..Default::default()
    })
}

/// Builds the fingerprint engine configuration at the given worker count.
pub fn build(
    db: &ci_storage::Database,
    index: IndexKind,
    threads: usize,
) -> ci_rank::Result<EngineSnapshot> {
    EngineBuilder::new(CiRankConfig {
        weights: WeightConfig::dblp_default(),
        k: 5,
        max_expansions: Some(3000),
        index,
        build_threads: threads,
        ..Default::default()
    })
    .build(db)
}

/// Hash of one query's outcome through `session`: bit-exact scores, result
/// node ids and the pre-optimization `SearchStats` counters, or the error.
/// Cache statistics are left out, so replay contracts do not depend on
/// them.
pub fn query_fingerprint(session: &QuerySession<'_>, q: &str) -> u64 {
    let mut h = Fnv::new();
    hash_query(&mut h, session, q);
    h.0
}

/// Folds one query's outcome through the given session into `h`.
fn hash_query(h: &mut Fnv, session: &QuerySession<'_>, q: &str) {
    match session.search_with_stats(q) {
        Ok((answers, stats)) => {
            h.byte(1);
            h.usize(answers.len());
            for a in &answers {
                h.u64(a.score.to_bits());
                h.usize(a.nodes.len());
                for n in &a.nodes {
                    h.u64(u64::from(n.node.0));
                }
            }
            h.usize(stats.pops);
            h.usize(stats.registered);
            h.usize(stats.bound_pruned);
            h.usize(stats.distance_pruned);
            h.usize(stats.merges);
            h.usize(stats.candidates_peak);
            match stats.truncation {
                None => h.byte(0),
                Some(r) => {
                    h.byte(1);
                    h.str(&r.to_string());
                }
            }
        }
        Err(e) => {
            h.byte(2);
            h.str(&e.to_string());
        }
    }
}

/// Hash one replayed workload with a fresh [`QuerySession`] per query —
/// the semantics the pinned baseline constants were captured under.
pub fn workload_fingerprint(snap: &EngineSnapshot, queries: &[String]) -> u64 {
    let mut h = Fnv::new();
    h.usize(queries.len());
    for q in queries {
        hash_query(&mut h, &snap.session(), q);
    }
    h.0
}

/// Hash one replayed workload through a single reused session. The oracle
/// cache and candidate pool are warm after the first queries; because both
/// are observably transparent, the result must equal
/// [`workload_fingerprint`] bit for bit.
pub fn workload_fingerprint_reused(session: &QuerySession<'_>, queries: &[String]) -> u64 {
    let mut h = Fnv::new();
    h.usize(queries.len());
    for q in queries {
        hash_query(&mut h, session, q);
    }
    h.0
}

/// Hash one replayed workload with a fresh session per query, each made by
/// `open` — for pinning budgets or options other than the snapshot's
/// defaults.
pub fn workload_fingerprint_with<'s>(
    snap: &'s EngineSnapshot,
    queries: &[String],
    open: impl Fn(&'s EngineSnapshot) -> QuerySession<'s>,
) -> u64 {
    let mut h = Fnv::new();
    h.usize(queries.len());
    for q in queries {
        hash_query(&mut h, &open(snap), q);
    }
    h.0
}

/// Folds one recorded trace (every event, field by field, plus the
/// dropped-event count) into `h`.
fn hash_trace(h: &mut Fnv, trace: &SearchTrace) {
    h.usize(trace.events().len());
    h.usize(trace.dropped());
    for e in trace.events() {
        match *e {
            TraceEvent::Pop {
                idx,
                root,
                size,
                mask,
                ub,
                ce,
                pe,
            } => {
                h.byte(0);
                h.usize(idx);
                h.u64(u64::from(root.0));
                h.usize(size);
                h.u64(u64::from(mask));
                h.u64(ub.to_bits());
                h.u64(ce.to_bits());
                h.u64(pe.to_bits());
            }
            TraceEvent::Grow { from_root, added } => {
                h.byte(1);
                h.u64(u64::from(from_root.0));
                h.u64(u64::from(added.0));
            }
            TraceEvent::Merge {
                root,
                idx,
                partner,
                merged,
            } => {
                h.byte(2);
                h.u64(u64::from(root.0));
                h.usize(idx);
                h.usize(partner);
                h.byte(u8::from(merged));
            }
            TraceEvent::Admit {
                idx,
                root,
                size,
                mask,
                ub,
            } => {
                h.byte(3);
                h.usize(idx);
                h.u64(u64::from(root.0));
                h.usize(size);
                h.u64(u64::from(mask));
                h.u64(ub.to_bits());
            }
            TraceEvent::Prune {
                reason,
                root,
                size,
                mask,
            } => {
                h.byte(4);
                h.byte(match reason {
                    PruneReason::InfeasibleLeaves => 1,
                    PruneReason::Duplicate => 2,
                    PruneReason::Distance => 3,
                    PruneReason::Bound => 4,
                });
                h.u64(u64::from(root.0));
                h.usize(size);
                h.u64(u64::from(mask));
            }
            TraceEvent::Truncated { reason } => {
                h.byte(5);
                h.str(&reason.to_string());
            }
            TraceEvent::Cache { hits, misses } => {
                h.byte(6);
                h.u64(hits);
                h.u64(misses);
            }
        }
    }
}

/// Trace capacity for [`full_trace_fingerprint`]: large enough that no
/// event of any [`cases`] workload is dropped.
pub const FULL_TRACE_CAPACITY: usize = 1 << 20;

/// Candidate-memory cap of the pinned `max_candidates` replay: small
/// enough to truncate most zipf/star queries.
pub const SMALL_MAX_CANDIDATES: usize = 200;

/// Hash the complete [`TraceLevel::Full`] event stream of a replayed
/// workload: one reused session with trace capacity
/// [`FULL_TRACE_CAPACITY`], every query's result and trace folded in order.
/// Also returns the total number of events the traces dropped, so callers
/// can check the capacity covered the whole stream.
pub fn full_trace_fingerprint(snap: &EngineSnapshot, queries: &[String]) -> (u64, usize) {
    let mut opts = snap.session().options().clone();
    opts.trace = TraceLevel::Full;
    opts.trace_capacity = FULL_TRACE_CAPACITY;
    let session = snap.session().with_options(opts);
    let mut h = Fnv::new();
    let mut dropped = 0;
    h.usize(queries.len());
    for q in queries {
        hash_query(&mut h, &session, q);
        let trace = session.last_trace();
        dropped += trace.dropped();
        hash_trace(&mut h, &trace);
    }
    (h.0, dropped)
}

/// The fixed workloads under fingerprint, as (label, index, data, queries).
pub fn cases() -> Vec<(&'static str, IndexKind, ci_datagen::DblpData, Vec<String>)> {
    let zipf = zipf_dataset();
    let zipf_queries: Vec<String> = ci_datagen::dblp_workload(&zipf, 12, 29)
        .into_iter()
        .map(|q| q.keywords.join(" "))
        .collect();
    let mid = midsize_dataset();
    let mid_queries: Vec<String> = ci_datagen::dblp_workload(&mid, 16, 7)
        .into_iter()
        .map(|q| q.keywords.join(" "))
        .collect();
    vec![
        (
            "zipf/naive",
            IndexKind::Naive,
            zipf_dataset(),
            zipf_queries.clone(),
        ),
        (
            "zipf/star",
            IndexKind::Star { relations: None },
            zipf,
            zipf_queries,
        ),
        (
            "midsize/star",
            IndexKind::Star { relations: None },
            mid,
            mid_queries,
        ),
    ]
}
