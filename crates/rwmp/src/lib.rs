//! Random Walk with Message Passing (RWMP) — §III of the paper.
//!
//! RWMP scores a joined tuple tree (JTT) by simulating message flows inside
//! it:
//!
//! 1. **Message generation** — every non-free node `v_i` emits
//!    `r_ii = t · p_i · |v_i ∩ Q| / |v_i|` messages of its own type, where
//!    `p_i` is the node's random-walk importance and `t = 1/p_min` the total
//!    surfer count.
//! 2. **Message passing** — messages move outward along tree edges; at a
//!    node, the share continuing over edge `(j,k)` is
//!    `w_jk / Σ_{n ∈ N(v_j) ∩ V(T)} w_jn` (messages sent back toward the
//!    source are discarded).
//! 3. **Message dampening** — each traversed node keeps only a fraction
//!    `d_i = 1 − (1−α)^{1 + log_g(p_i / p_min)}` (Eq. 2), so paths through
//!    important nodes lose less signal.
//!
//! A non-free node's score is the size of its *least populous* incoming
//! message type (Eq. 3), and the tree's score the mean over non-free nodes
//! (Eq. 4).
//!
//! This arithmetic exists once, in [`FlowState`]: [`Scorer::fill_flows`]
//! loads a per-tree edge table of a tree in parent-array form
//! ([`ParentTree`]) and propagates every source over it (one walk up to
//! the root, one sweep down), [`Scorer::grow_flows`] advances a matrix to
//! the tree grown by a new root, [`Scorer::tree_flows`] fills the matrix
//! of a finished [`Jtt`], and [`FlowState::reduce`] applies Eqs. 3–4. The
//! answer scores, search bounds and score explanations of `ci-search` all
//! run it.
//!
//! # Example
//!
//! ```
//! use ci_graph::{GraphBuilder, NodeId};
//! use ci_rwmp::{Dampening, Jtt, Scorer};
//!
//! // author — paper — author, unit edge weights.
//! let mut b = GraphBuilder::new();
//! let a1 = b.add_node(0, vec![]);
//! let paper = b.add_node(1, vec![]);
//! let a2 = b.add_node(0, vec![]);
//! b.add_pair(a1, paper, 1.0, 1.0);
//! b.add_pair(a2, paper, 1.0, 1.0);
//! let graph = b.build();
//!
//! // Importance from a random walk (hand-rolled here).
//! let p = vec![0.25, 0.5, 0.25];
//! let scorer = Scorer::new(&graph, &p, 0.25, Dampening::paper_default());
//!
//! // Both authors match one keyword of a two-word name: they are the
//! // message sources, each with its generation count.
//! let tree = Jtt::new(vec![a1, paper, a2], vec![(0, 1), (1, 2)]).unwrap();
//! let sources = [0, 2].map(|pos| (pos, scorer.generation(tree.node(pos), 1, 2)));
//! let flows = scorer.tree_flows(&tree, sources);
//! let mut node_scores = Vec::new();
//! let score = flows.reduce(Some(&mut node_scores)).unwrap();
//! assert!(score > 0.0);
//! assert_eq!(node_scores.len(), 2);
//! ```
//!
//! The crate also implements the three rejected alternatives of §III-B
//! (average non-free importance, average all-node importance,
//! average / size) for ablation studies, and a linear dampening variant the
//! paper describes and discards in §III-C.2.

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

mod alternatives;
mod dampen;
mod scorer;
mod tree;

pub use alternatives::{score_alternative, AlternativeScore};
pub use dampen::{dampening_rate, Dampening};
pub use scorer::{FlowState, Scorer};
pub use tree::{CanonicalKey, Jtt, ParentTree, TreeError};
