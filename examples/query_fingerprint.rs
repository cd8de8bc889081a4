//! Prints the deterministic replay fingerprints of the query hot path.
//!
//! The heavy lifting lives in `ci_rank_suite::fingerprint` (shared with
//! `tests/query_hot_path_determinism.rs`, which pins these hashes as
//! constants). The constants were captured *before* the hot-path
//! optimizations (flat oracle cache, candidate arena, incremental bounds)
//! landed, so matching output proves the optimized path is bit-identical
//! to the original implementation.
//!
//! It also prints each workload's complete `TraceLevel::Full` event
//! stream hash with its dropped-event count (the zipf/star one is pinned),
//! and the zipf/star replay under a small candidate-memory budget.
//!
//! Usage: `cargo run --release --example query_fingerprint`

// LINT-EXEMPT(tests): examples opt out of the library lint wall.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_rank::QueryBudget;
use ci_rank_suite::fingerprint::{
    build, cases, full_trace_fingerprint, workload_fingerprint, workload_fingerprint_with,
    SMALL_MAX_CANDIDATES,
};

fn main() {
    for (label, kind, data, queries) in cases() {
        let snap = build(&data.db, kind, 1).expect("fingerprint dataset is non-empty");
        let fp = workload_fingerprint(&snap, &queries);
        println!("{label}: 0x{fp:016x} ({} queries)", queries.len());
        let (trace, dropped) = full_trace_fingerprint(&snap, &queries);
        println!("{label} full trace: 0x{trace:016x} ({dropped} events dropped)");
        if label == "zipf/star" {
            let budget = QueryBudget::default().with_max_candidates(SMALL_MAX_CANDIDATES);
            let capped =
                workload_fingerprint_with(&snap, &queries, |s| s.session().with_budget(budget));
            println!("{label} max_candidates={SMALL_MAX_CANDIDATES}: 0x{capped:016x}");
        }
    }
}
