//! Fig. 10 — naive vs branch-and-bound average top-5 search time on 10%
//! samples of both datasets.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_bench::{dblp_data, imdb_data};
use ci_datagen::{dblp_workload, imdb_synthetic_workload, sample_database, DblpData, ImdbData};
use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, Engine};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_naive_vs_bnb");
    group.sample_size(10);

    // IMDB 10% sample.
    {
        let full = imdb_data();
        let s = sample_database(&full.db, 0.1, 99);
        let truth = s.project_truth(&full.truth);
        let data = ImdbData {
            db: s.db,
            tables: full.tables,
            truth,
        };
        let engine = Engine::build(
            &data.db,
            CiRankConfig {
                weights: WeightConfig::imdb_default(),
                k: 5,
                max_expansions: Some(ci_bench::BENCH_EXPANSION_CAP),
                ..Default::default()
            },
        )
        .unwrap();
        let queries: Vec<String> = imdb_synthetic_workload(&data, 3, 3)
            .into_iter()
            .map(|q| q.keywords.join(" "))
            .collect();
        let session = engine.session();
        group.bench_function("imdb/naive", |b| {
            b.iter(|| {
                for q in &queries {
                    let _ = std::hint::black_box(session.search_naive(q));
                }
            })
        });
        group.bench_function("imdb/bnb", |b| {
            b.iter(|| {
                for q in &queries {
                    let _ = std::hint::black_box(session.search(q));
                }
            })
        });
    }

    // DBLP 10% sample.
    {
        let full = dblp_data();
        let s = sample_database(&full.db, 0.1, 99);
        let truth = s.project_truth(&full.truth);
        let data = DblpData {
            db: s.db,
            tables: full.tables,
            truth,
        };
        let engine = Engine::build(
            &data.db,
            CiRankConfig {
                weights: WeightConfig::dblp_default(),
                k: 5,
                max_expansions: Some(ci_bench::BENCH_EXPANSION_CAP),
                ..Default::default()
            },
        )
        .unwrap();
        let queries: Vec<String> = dblp_workload(&data, 3, 3)
            .into_iter()
            .map(|q| q.keywords.join(" "))
            .collect();
        let session = engine.session();
        group.bench_function("dblp/naive", |b| {
            b.iter(|| {
                for q in &queries {
                    let _ = std::hint::black_box(session.search_naive(q));
                }
            })
        });
        group.bench_function("dblp/bnb", |b| {
            b.iter(|| {
                for q in &queries {
                    let _ = std::hint::black_box(session.search(q));
                }
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
