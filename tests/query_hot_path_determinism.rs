//! Replay-fingerprint contract of the query hot path.
//!
//! The pinned constants below were captured with
//! `cargo run --release --example query_fingerprint` *before* the hot-path
//! optimizations landed (flat generational oracle cache, pooled candidate
//! arena, incremental flow/bound maintenance). Every configuration this
//! file replays must reproduce them exactly:
//!
//! * engines built at 1, 2, and 8 worker threads (the offline build is
//!   bit-deterministic, so the query layer sees identical inputs);
//! * a fresh `QuerySession` per query (the semantics the constants were
//!   captured under) and one session reused across the whole workload
//!   (warm oracle cache + warm candidate store — both must be observably
//!   transparent).
//!
//! A warm reused session must also reach an allocation steady state: a
//! second replay of the same workload may not grow the candidate store
//! ([`ci_rank::QuerySession::scratch_slots_allocated`]), and further
//! replays may not grow any scratch buffer
//! ([`ci_rank::QuerySession::scratch_capacity_bytes`]).

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_rank_suite::fingerprint::{
    build, cases, full_trace_fingerprint, workload_fingerprint, workload_fingerprint_reused,
    workload_fingerprint_with, SMALL_MAX_CANDIDATES,
};

/// Pre-optimization baselines, one per `fingerprint::cases()` entry.
const BASELINES: [(&str, u64); 3] = [
    ("zipf/naive", 0x2040_1ca2_234e_de89),
    ("zipf/star", 0xabd2_021b_5d69_7625),
    ("midsize/star", 0xe045_5ae3_d748_6160),
];

fn baseline(label: &str) -> u64 {
    BASELINES
        .iter()
        .find(|(l, _)| *l == label)
        .map(|&(_, fp)| fp)
        .unwrap_or_else(|| panic!("no baseline for {label}"))
}

#[test]
fn replay_matches_pre_optimization_baselines() {
    for (label, kind, data, queries) in cases() {
        for threads in [1usize, 2, 8] {
            let snap = build(&data.db, kind.clone(), threads).unwrap();
            let fresh = workload_fingerprint(&snap, &queries);
            assert_eq!(
                fresh,
                baseline(label),
                "{label}: fresh-session replay diverged from the \
                 pre-optimization baseline (build_threads={threads})"
            );

            let session = snap.session();
            let reused = workload_fingerprint_reused(&session, &queries);
            assert_eq!(
                reused,
                baseline(label),
                "{label}: warm reused-session replay diverged \
                 (build_threads={threads})"
            );
        }
    }
}

/// Observability contract (`ci-obs`): tracing is observational only.
///
/// The same workload replayed at [`ci_rank::TraceLevel::Off`] and
/// [`ci_rank::TraceLevel::Full`] must reproduce the pinned
/// pre-optimization fingerprints bit for bit — trace emission sits inside
/// the search loop, so any behavioral leak (an extra oracle probe, a
/// reordered admission) shows up as a changed hash. The disabled path
/// must also be allocation-free: a session that never traces must never
/// even allocate the event buffer.
#[test]
fn tracing_is_fingerprint_neutral() {
    use ci_rank::TraceLevel;
    for (label, kind, data, queries) in cases() {
        let snap = build(&data.db, kind, 1).unwrap();

        let off = snap.session();
        let off_fp = workload_fingerprint_reused(&off, &queries);
        assert_eq!(
            off_fp,
            baseline(label),
            "{label}: TraceLevel::Off replay diverged from the baseline"
        );
        let off_trace = off.last_trace();
        assert_eq!(
            off_trace.buffer_capacity(),
            0,
            "{label}: the Off path allocated a trace buffer"
        );
        assert!(off_trace.events().is_empty());
        assert_eq!(off_trace.dropped(), 0);

        let full = snap.session().with_trace(TraceLevel::Full);
        let full_fp = workload_fingerprint_reused(&full, &queries);
        assert_eq!(
            full_fp,
            baseline(label),
            "{label}: TraceLevel::Full changed the replay fingerprint"
        );
        let trace = full.last_trace();
        let counts = trace.counts();
        assert!(
            counts.pops > 0 && counts.admits > 0,
            "{label}: full tracing recorded the run ({counts:?})"
        );
    }
}

#[test]
fn warm_session_replays_without_allocating() {
    for (label, kind, data, queries) in cases() {
        let snap = build(&data.db, kind, 1).unwrap();
        let session = snap.session();
        // First replay warms the store up to the workload's working set.
        let first = workload_fingerprint_reused(&session, &queries);
        let warm_slots = session.scratch_slots_allocated();
        assert!(warm_slots > 0, "{label}: the workload searches for real");
        // Steady state: an identical replay reuses every slot.
        let second = workload_fingerprint_reused(&session, &queries);
        assert_eq!(first, second, "{label}: warm replay changed results");
        assert_eq!(
            session.scratch_slots_allocated(),
            warm_slots,
            "{label}: steady-state replay grew the candidate store"
        );
    }
}

/// A long-lived session must behave like a fresh one in memory too: once
/// the first pass has sized the scratch for the workload's largest query,
/// replaying the same queries holds exactly as many buffer bytes. (A pool
/// of per-candidate buffers fails this: each pooled slot keeps the largest
/// candidate it ever held, and which slot holds which candidate changes
/// from pass to pass, so the total ratchets up.)
#[test]
fn warm_session_memory_stays_flat() {
    for (label, kind, data, queries) in cases() {
        let snap = build(&data.db, kind, 1).unwrap();
        let session = snap.session();
        workload_fingerprint_reused(&session, &queries);
        let warm = session.scratch_capacity_bytes();
        assert!(warm > 0, "{label}: the workload searches for real");
        for pass in 2..=5 {
            workload_fingerprint_reused(&session, &queries);
            assert_eq!(
                session.scratch_capacity_bytes(),
                warm,
                "{label}: pass {pass} grew the scratch's buffers"
            );
        }
    }
}

/// FNV of the complete `TraceLevel::Full` event stream (every pop, grow,
/// merge decision, admission and prune, in order) of the zipf/star
/// workload through one reused session. Pinned before the admission path
/// stopped building structurally dead candidates, so it proves the event
/// stream is unchanged by that rewrite.
const ZIPF_STAR_FULL_TRACE: u64 = 0x30b5_5439_d3eb_4268;

/// FNV of the zipf/star workload under a small candidate-memory budget —
/// the `max_candidates` truncation axis, which the pins above (all under
/// the expansion cap) never reach. Captured with fresh sessions, before
/// the same rewrite.
const ZIPF_STAR_MAX_CANDIDATES: u64 = 0xbf90_4692_03b4_3d94;

fn zipf_star() -> (ci_rank::EngineSnapshot, Vec<String>) {
    let (_, kind, data, queries) = cases()
        .into_iter()
        .find(|c| c.0 == "zipf/star")
        .expect("zipf/star case");
    (build(&data.db, kind, 1).unwrap(), queries)
}

#[test]
fn full_trace_stream_matches_pin() {
    let (snap, queries) = zipf_star();
    let (fp, dropped) = full_trace_fingerprint(&snap, &queries);
    assert_eq!(dropped, 0, "trace capacity too small for the workload");
    assert_eq!(
        fp, ZIPF_STAR_FULL_TRACE,
        "the Full trace event stream changed"
    );
}

#[test]
fn candidate_memory_budget_matches_pin() {
    use ci_rank::QueryBudget;
    let (snap, queries) = zipf_star();
    let budget = QueryBudget::default().with_max_candidates(SMALL_MAX_CANDIDATES);
    let fresh = workload_fingerprint_with(&snap, &queries, |s| s.session().with_budget(budget));
    let session = snap.session().with_budget(budget);
    let truncated = queries
        .iter()
        .filter(|q| {
            session.search_with_stats(q).is_ok_and(|(_, s)| {
                s.truncation == Some(ci_rank::TruncationReason::CandidateMemory)
            })
        })
        .count();
    let reused = workload_fingerprint_reused(&session, &queries);
    assert_eq!(
        fresh, reused,
        "reused session diverged under max_candidates"
    );
    assert!(truncated > 0, "the budget must bind on some queries");
    assert_eq!(
        fresh, ZIPF_STAR_MAX_CANDIDATES,
        "max_candidates replay changed"
    );
}
