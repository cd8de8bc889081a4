//! Top-k answer search (§IV of the paper).
//!
//! Two algorithms produce the top-k joined tuple trees for a keyword query:
//!
//! * [`naive_search`] — §IV-A: breadth-first expansion from every non-free
//!   node up to `⌈D/2⌉` hops, followed by combination of the discovered
//!   paths at every candidate root. Complete but exhaustive; with
//!   unconstrained enumeration limits it doubles as the exactness oracle in
//!   tests.
//! * [`bnb_search`] — §IV-B: branch-and-bound over *candidate trees* with
//!   the paper's *tree grow* / *tree merge* expansion, a priority queue
//!   ordered by upper bounds, and early termination once the queue head
//!   cannot beat the current top-k (Algorithm 1). The upper bound is
//!   `ub(C) = max(ce(C), pe(C))` — the complete and potential estimates —
//!   made provably admissible as described in DESIGN.md, so the optimality
//!   guarantee (Theorem 1) holds.
//!
//! Both accept a [`ci_index::DistanceOracle`]; an informative oracle (the
//! naive or star index of §V) tightens the bounds and enables distance
//! pruning, which is exactly the efficiency experiment of Figs. 11–12.
//!
//! # Example
//!
//! ```
//! use ci_graph::{GraphBuilder, NodeId};
//! use ci_index::NoIndex;
//! use ci_rwmp::{Dampening, Scorer};
//! use ci_search::{bnb_search, QuerySpec, SearchOptions};
//!
//! // Two matchers joined by a free connector node.
//! let mut b = GraphBuilder::new();
//! let x = b.add_node(0, vec![]);
//! let hub = b.add_node(1, vec![]);
//! let y = b.add_node(0, vec![]);
//! b.add_pair(x, hub, 1.0, 1.0);
//! b.add_pair(y, hub, 1.0, 1.0);
//! let graph = b.build();
//!
//! let p = vec![0.25, 0.5, 0.25];
//! let scorer = Scorer::new(&graph, &p, 0.25, Dampening::paper_default());
//! let query = QuerySpec::from_matches(
//!     &scorer,
//!     vec!["left".into(), "right".into()],
//!     vec![(x, 0b01, 2), (y, 0b10, 2)],
//! );
//! let (answers, stats) = bnb_search(&scorer, &query, &NoIndex, &SearchOptions::default());
//! assert_eq!(answers.len(), 1);
//! assert_eq!(answers[0].tree.size(), 3);
//! assert!(!stats.truncated());
//! ```
//!
//! Both algorithms are generic over the oracle (no `dyn` dispatch on the
//! hot path — enforced by `cargo xtask lint`) and accept a per-query
//! [`QueryBudget`] via [`SearchOptions::budget`]: expansion, wall-clock,
//! and candidate-memory limits that stop a run early with a uniform
//! [`SearchStats::truncation`] report instead of panicking or silently
//! capping.

// Documentation is part of the public API: every public item in this
// crate must carry rustdoc (CI builds docs with `-D warnings`).
#![warn(missing_docs)]
// LINT-EXEMPT(tests): the workspace lint wall (workspace Cargo.toml) bans
// panicking constructs in library code; unit tests opt back in. Clippy still
// checks the non-test compilation of this crate, so library violations are
// caught even with this relaxation in place.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
    )
)]
// Hot-path crate: lossy numeric casts and float equality are also denied
// here (ISSUE 1); use the checked conversion helpers instead.
#![deny(clippy::cast_possible_truncation, clippy::float_cmp)]
#![cfg_attr(test, allow(clippy::cast_possible_truncation, clippy::float_cmp))]

mod answer;
mod bnb;
mod bounds;
mod budget;
mod cache;
mod candidate;
mod explain;
mod flows;
mod naive;
mod query;
mod scratch;
mod trace;
mod validity;

pub use answer::{score_answer, Answer, TopK};
pub use bnb::{bnb_search, bnb_search_in, RejectionStats, SearchStats};
pub use bounds::BoundParts;
pub use budget::{QueryBudget, TruncationReason};
pub use cache::{CacheStats, CachedOracle, OracleCache};
pub use explain::{explain_answer, ExplainedNode, ExplainedSource, ScoreExplanation};
pub use naive::naive_search;
pub use query::{MatcherInfo, QuerySpec, MAX_KEYWORDS};
pub use scratch::SearchScratch;
pub use trace::{PruneReason, SearchTrace, TraceCounts, TraceEvent, TraceLevel};
pub use validity::is_valid_answer;

// Hot-path internals re-exported for the workspace microbenchmarks
// (`crates/bench/benches/query_hot_path.rs`). Not a stable API.
#[doc(hidden)]
pub use bounds::{bound_parts_from, upper_bound, upper_bound_from};
#[doc(hidden)]
pub use candidate::{Candidate, CandidateRef, Shape};
#[doc(hidden)]
pub use ci_rwmp::FlowState;
#[doc(hidden)]
pub use flows::{compute_flows, grow_flows};

/// Tuning knobs shared by both search algorithms.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Maximum tree diameter `D` (the paper evaluates 4–6).
    pub diameter: u32,
    /// Number of answers to return (`k`).
    pub k: usize,
    /// Hard cap on answer-tree size in nodes.
    pub max_tree_nodes: usize,
    /// Allow answers that contain more matcher nodes than keywords
    /// (the extensions the potential estimate of §IV-B accounts for).
    /// Disabling restricts the merge rule to the paper's "covers more
    /// keywords than either" wording.
    pub allow_redundant_matchers: bool,
    /// Per-query resource budget (expansions, deadline, candidate memory).
    /// The default is unlimited, preserving exact-search semantics.
    pub budget: QueryBudget,
    /// Naive search: cap on stored paths per (matcher, endpoint) pair.
    pub naive_max_paths: usize,
    /// Naive search: cap on per-root keyword combinations.
    pub naive_max_combinations: usize,
    /// How much of the run to record into the caller's
    /// [`SearchTrace`] buffer. [`TraceLevel::Off`] (the default) records
    /// nothing and costs one branch per emission site; no level changes
    /// answers, statistics, or replay fingerprints.
    pub trace: TraceLevel,
    /// Maximum events retained per traced run; later events are counted
    /// in [`SearchTrace::dropped`] instead of growing the buffer.
    /// Irrelevant at [`TraceLevel::Off`].
    pub trace_capacity: usize,
}

/// Default [`SearchOptions::trace_capacity`]: enough for the full event
/// stream of typical interactive queries at a few hundred KiB, small
/// enough that a runaway query cannot balloon the session.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            diameter: 4,
            k: 10,
            max_tree_nodes: 10,
            allow_redundant_matchers: true,
            budget: QueryBudget::UNLIMITED,
            naive_max_paths: 256,
            naive_max_combinations: 100_000,
            trace: TraceLevel::Off,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}
