//! Shared fixtures for the Criterion benchmarks.
//!
//! Every bench regenerates one paper table/figure (see DESIGN.md). The
//! fixtures keep dataset generation out of the measured sections and use
//! bench-scale sizes so `cargo bench --workspace` completes in minutes.

// LINT-EXEMPT(tests): the workspace lint wall (workspace Cargo.toml) bans
// panicking constructs in library code; unit tests opt back in. Clippy still
// checks the non-test compilation of this crate, so library violations are
// caught even with this relaxation in place.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)
)]
// LINT-EXEMPT(bench-fixture): this crate exists only to feed the Criterion
// benches deterministic fixtures; a panic at fixture-build time aborts the
// bench run, which is the desired behavior.
#![allow(clippy::expect_used)]

use ci_datagen::{
    dblp_workload, generate_dblp, generate_imdb, imdb_synthetic_workload, DblpConfig, DblpData,
    ImdbConfig, ImdbData, LabeledQuery,
};
use ci_graph::{MergeSpec, WeightConfig};
use ci_rank::{CiRankConfig, Engine, IndexKind};

/// Bench-scale IMDB dataset (deterministic).
pub fn imdb_data() -> ImdbData {
    generate_imdb(ImdbConfig {
        movies: 250,
        actors: 160,
        actresses: 120,
        directors: 40,
        producers: 30,
        companies: 20,
        seed: 42,
        ..Default::default()
    })
}

/// Bench-scale DBLP dataset (deterministic).
pub fn dblp_data() -> DblpData {
    generate_dblp(DblpConfig {
        papers: 500,
        authors: 250,
        conferences: 10,
        seed: 42,
        ..Default::default()
    })
}

/// Expansion ceiling shared by every bench engine: keeps worst-case
/// queries bounded on hub-dense synthetic data. Both arms of every
/// comparison (indexed vs not, naive vs B&B) share it, so relative
/// timings stay meaningful.
pub const BENCH_EXPANSION_CAP: usize = 3_000;

/// Paper-default engine over an IMDB dataset with the given diameter and
/// index.
pub fn imdb_engine(data: &ImdbData, diameter: u32, index: IndexKind) -> Engine {
    Engine::build(
        &data.db,
        CiRankConfig {
            weights: WeightConfig::imdb_default(),
            merge: Some(MergeSpec::over(vec![
                data.tables.actor,
                data.tables.actress,
                data.tables.director,
                data.tables.producer,
            ])),
            diameter,
            k: 5,
            index,
            max_expansions: Some(BENCH_EXPANSION_CAP),
            ..Default::default()
        },
    )
    .expect("bench data is non-empty")
}

/// Paper-default engine over a DBLP dataset.
pub fn dblp_engine(data: &DblpData, diameter: u32, index: IndexKind) -> Engine {
    Engine::build(
        &data.db,
        CiRankConfig {
            weights: WeightConfig::dblp_default(),
            diameter,
            k: 5,
            index,
            max_expansions: Some(BENCH_EXPANSION_CAP),
            ..Default::default()
        },
    )
    .expect("bench data is non-empty")
}

/// A fixed bench workload: synthetic-mix queries (the structurally hard
/// ones) joined into query strings.
pub fn imdb_queries(data: &ImdbData, n: usize) -> Vec<String> {
    imdb_synthetic_workload(data, n, 7)
        .into_iter()
        .map(|q: LabeledQuery| q.keywords.join(" "))
        .collect()
}

/// DBLP bench workload.
pub fn dblp_queries(data: &DblpData, n: usize) -> Vec<String> {
    dblp_workload(data, n, 7)
        .into_iter()
        .map(|q: LabeledQuery| q.keywords.join(" "))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let data = dblp_data();
        let engine = dblp_engine(&data, 4, IndexKind::Star { relations: None });
        let queries = dblp_queries(&data, 3);
        assert!(!queries.is_empty());
        // Each query must run without error.
        let session = engine.session();
        for q in &queries {
            let _ = session.search(q).expect("bench query runs");
        }
    }
}
