//! # CI-Rank
//!
//! A complete reproduction of *"CI-Rank: Ranking Keyword Search Results
//! Based on Collective Importance"* (Yu & Shi, ICDE 2012) as a Rust
//! library.
//!
//! CI-Rank answers keyword queries over a relational database with
//! *joined tuple trees* (JTTs) and ranks them by **collective importance**:
//! a Random Walk with Message Passing (RWMP) model that rewards answers
//! whose nodes are individually important *and* cohesively connected —
//! including the free connector nodes IR-style rankers ignore.
//!
//! The [`Engine`] ties the subsystem crates together:
//!
//! * `ci-storage` — relational substrate;
//! * `ci-graph` — the weighted data graph (Table II edge weights,
//!   person merge);
//! * `ci-text` — keyword matching and IR statistics;
//! * `ci-walk` — random-walk node importance (Eq. 1);
//! * `ci-rwmp` — the RWMP scoring model (Eqs. 2–4);
//! * `ci-search` — naive and branch-and-bound top-k search (Algorithm 1);
//! * `ci-index` — naive and star indexing (§V);
//! * `ci-baselines` — DISCOVER2, SPARK, and BANKS for comparison.
//!
//! # Lifecycle: builder → snapshot → session
//!
//! Construction and querying are separate layers:
//!
//! 1. [`EngineBuilder`] runs the staged build pipeline (graph → text
//!    index → importance → prestige → dampening → distance index) and
//!    produces an…
//! 2. [`EngineSnapshot`] — an immutable, `Send + Sync`, query-ready view
//!    of one database. The snapshot owns everything queries share: the
//!    graph, the text index, the importance/prestige vectors, the
//!    precomputed dampening rates, and the distance index. Share it
//!    across threads behind an `Arc`.
//! 3. [`QuerySession`] holds what a single caller must *not* share:
//!    the per-query [`QueryBudget`] (expansion / wall-clock /
//!    candidate-memory limits, reported uniformly through
//!    [`ci_search::SearchStats::truncation`]) and a memo cache for
//!    distance-oracle probes.
//!
//! [`Engine`] is the convenience façade: an `Arc<EngineSnapshot>` that
//! dereferences to the snapshot, so the three layers collapse to
//! `Engine::build(..)` + `engine.session().search(..)` when the defaults
//! fit. Every query method lives on the session and feeds the snapshot's
//! [`MetricsRegistry`]; hold one session per thread and reuse it across
//! queries.
//!
//! # Quickstart
//!
//! ```
//! use ci_rank::{CiRankConfig, Engine};
//! use ci_storage::{schemas, Value};
//! use ci_graph::WeightConfig;
//!
//! // A two-author, one-paper bibliography.
//! let (mut db, t) = schemas::dblp();
//! let yu = db.insert(t.author, vec![Value::text("Xiaohui Yu")]).unwrap();
//! let shi = db.insert(t.author, vec![Value::text("Huxia Shi")]).unwrap();
//! let paper = db
//!     .insert(t.paper, vec![Value::text("CI-Rank keyword search"), Value::int(2012)])
//!     .unwrap();
//! db.link(t.author_paper, yu, paper).unwrap();
//! db.link(t.author_paper, shi, paper).unwrap();
//!
//! let cfg = CiRankConfig {
//!     weights: WeightConfig::dblp_default(),
//!     ..Default::default()
//! };
//! let engine = Engine::build(&db, cfg).unwrap();
//! let answers = engine.session().search("yu shi").unwrap();
//! assert_eq!(answers.len(), 1);
//! assert_eq!(answers[0].nodes.len(), 3); // author — paper — author
//! ```

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

mod builder;
mod config;
mod engine;
mod error;
mod explain;
pub mod feedback;
mod metrics;
mod ranker;
mod session;
mod snapshot;

pub use builder::{BuildStage, EngineBuilder, StageReport};
pub use config::{CiRankConfig, ImportanceMethod, IndexKind};
pub use engine::Engine;
pub use error::CiRankError;
pub use explain::ExplainReport;
pub use metrics::{MetricsRegistry, MetricsSnapshot, LATENCY_BUCKETS, LATENCY_BUCKET_BOUNDS_US};
pub use ranker::Ranker;
pub use session::QuerySession;
pub use snapshot::{AnswerNode, EngineSnapshot, RankedAnswer};

// The observability vocabulary of the search layer, re-exported so engine
// users can configure tracing and consume explanations without naming
// `ci_search` directly.
pub use ci_search::{
    ExplainedNode, ExplainedSource, ScoreExplanation, SearchTrace, TraceCounts, TraceEvent,
    TraceLevel,
};

// The per-query budget vocabulary, enforced inside the search loops;
// sessions take a budget through [`QuerySession::with_budget`].
pub use ci_search::{QueryBudget, TruncationReason};

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CiRankError>;
