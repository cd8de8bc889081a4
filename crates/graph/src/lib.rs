//! The weighted directed data graph of the paper (§II-A).
//!
//! A database is modeled as a graph `G = (V, E)`: every tuple is a node, and
//! every foreign-key/relationship connection contributes **two** directed
//! edges with independent weights (the paper's example: a citation is strong
//! in the citing → cited direction, weak the other way). Out-edge weights
//! are normalized to sum to 1 for the random-walk model, while the raw
//! weights drive message-passing splits in RWMP.
//!
//! This crate provides:
//!
//! * [`Graph`] — an immutable CSR representation with per-edge raw and
//!   normalized weights and per-node tuple payloads;
//! * [`GraphBuilder`] — incremental construction;
//! * [`WeightConfig`] — the paper's Table II edge weights (with IMDB and
//!   DBLP defaults);
//! * [`build_graph`] — mapping a [`ci_storage::Database`] to a graph,
//!   including the *person merge* of §VI-A (the same person appearing as
//!   both actor and director becomes a single node);
//! * traversals — bounded BFS, and the hop-bounded path costs
//!   ([`hop_bounded_costs`]) the distance indexes are built from.

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

mod builder;
mod csr;
mod mapping;
mod traverse;
mod weights;

pub use builder::GraphBuilder;
pub use csr::{tuple_id_from_row, EdgeRef, Graph, NodeId};
pub use mapping::{build_graph, MergeSpec};
pub use traverse::{bfs_within, hop_bounded_costs, HopScratch, Reached};
pub use weights::WeightConfig;
