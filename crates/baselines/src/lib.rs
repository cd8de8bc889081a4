//! Baseline rankers the paper compares against (§II-B, §VI-B).
//!
//! * [`discover2`] — the TF-IDF scoring function of DISCOVER2
//!   (Hristidis, Gravano, Papakonstantinou, VLDB 2003);
//! * [`spark`] — the three-factor scoring function of SPARK
//!   (Luo, Lin, Wang, Zhou, SIGMOD 2007): tree-level TF-IDF ×
//!   completeness × size normalization;
//! * [`banks`] — the node/edge-score ranking of BANKS (Bhalotia et al.,
//!   ICDE 2002).
//!
//! All scorers operate on the same answer trees (JTTs over graph nodes) as
//! CI-Rank, exactly like the paper's evaluation, which re-ranks a common
//! candidate pool with each function. Statistics come from the shared
//! `ci-text` inverted index, where document ids are graph node ids.
//!
//! # Example
//!
//! ```
//! use ci_baselines::discover2_score;
//! use ci_text::IndexBuilder;
//!
//! let mut b = IndexBuilder::new();
//! b.add_doc(0, 0, "yannis papakonstantinou");
//! b.add_doc(1, 0, "jeffrey ullman");
//! b.add_doc(2, 1, "the tsimmis project");
//! let index = b.build();
//!
//! let keywords = vec!["papakonstantinou".to_string(), "ullman".to_string()];
//! // The free paper node (doc 2) contributes nothing — the §II-B blind spot.
//! let with_free = discover2_score(&index, &keywords, &[0, 2, 1], 0.2);
//! let pair_only = discover2_score(&index, &keywords, &[0, 1], 0.2);
//! assert!(pair_only > with_free); // only size normalization differs
//! ```

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

pub mod banks;
pub mod discover2;
pub mod spark;

pub use banks::{banks_score, BanksPrestige};
pub use discover2::discover2_score;
pub use spark::{spark_score, SparkParams};
