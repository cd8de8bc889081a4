//! Figs. 11 & 12 — top-5 search time vs maximal tree diameter
//! D ∈ {4, 5, 6}, with ("Upbound search + Index") and without ("Upbound
//! search") the star index, on IMDB and DBLP.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_bench::{dblp_data, dblp_engine, dblp_queries, imdb_data, imdb_engine, imdb_queries};
use ci_rank::IndexKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let imdb = imdb_data();
    let imdb_qs = imdb_queries(&imdb, 3);
    let dblp = dblp_data();
    let dblp_qs = dblp_queries(&dblp, 3);

    let mut group = c.benchmark_group("fig11_imdb_diameter");
    group.sample_size(10);
    for &d in &[4u32, 5, 6] {
        let plain = imdb_engine(&imdb, d, IndexKind::None);
        let plain = plain.session();
        group.bench_with_input(BenchmarkId::new("upbound", d), &d, |b, _| {
            b.iter(|| {
                for q in &imdb_qs {
                    let _ = std::hint::black_box(plain.search(q));
                }
            })
        });
        let indexed = imdb_engine(&imdb, d, IndexKind::Star { relations: None });
        let indexed = indexed.session();
        group.bench_with_input(BenchmarkId::new("upbound_index", d), &d, |b, _| {
            b.iter(|| {
                for q in &imdb_qs {
                    let _ = std::hint::black_box(indexed.search(q));
                }
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("fig12_dblp_diameter");
    group.sample_size(10);
    for &d in &[4u32, 5, 6] {
        let plain = dblp_engine(&dblp, d, IndexKind::None);
        let plain = plain.session();
        group.bench_with_input(BenchmarkId::new("upbound", d), &d, |b, _| {
            b.iter(|| {
                for q in &dblp_qs {
                    let _ = std::hint::black_box(plain.search(q));
                }
            })
        });
        let indexed = dblp_engine(&dblp, d, IndexKind::Star { relations: None });
        let indexed = indexed.session();
        group.bench_with_input(BenchmarkId::new("upbound_index", d), &d, |b, _| {
            b.iter(|| {
                for q in &dblp_qs {
                    let _ = std::hint::black_box(indexed.search(q));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
