//! Differential determinism harness for the parallel offline build.
//!
//! The build pipeline fans out over `CiRankConfig::build_threads` workers
//! in two places: the power-iteration matvec behind the importance vector
//! (Eq. 1) and the per-source traversals of the §V distance indexes. Both
//! are engineered to be *bit-identical* to the serial path — the matvec
//! gathers over a transpose whose in-edge order reproduces the serial
//! scatter's float-addition order, and index rows are merged back in
//! source order. This harness is the contract: snapshots built at 1, 2,
//! and 8 threads over generated datasets must agree byte-for-byte on the
//! `DS`/`LS` tables and bit-for-bit on the importance and dampening
//! vectors, and a replayed query workload must return identical top-k
//! lists (scores compared via `f64::to_bits`) and identical
//! [`SearchStats`] counters.
//!
//! CI additionally runs this file on a 2-core matrix job with
//! `CI_RANK_BUILD_THREADS` set, which appends that count to the tested
//! set so real hardware parallelism is exercised, not just oversubscribed
//! threads.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_datagen::{dblp_workload, generate_dblp, sample_database, DblpConfig};
use ci_graph::WeightConfig;
use ci_index::DistIndex;
use ci_rank::{CiRankConfig, EngineBuilder, EngineSnapshot, IndexKind};
use ci_rank_suite::fingerprint::Fnv;
use ci_search::SearchStats;
use ci_storage::Database;

/// Thread counts under differential test: serial baseline, the smallest
/// parallel fan-out, and heavy oversubscription (8 workers regardless of
/// core count — chunking must not depend on scheduling). CI's matrix job
/// injects its own count via `CI_RANK_BUILD_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 8];
    if let Ok(env) = std::env::var("CI_RANK_BUILD_THREADS") {
        if let Ok(n) = env.trim().parse::<usize>() {
            if n >= 1 && !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

/// Dataset (a): a 40% sample of a mid-size synthetic DBLP — sampling
/// leaves dangling citation stubs and isolated nodes, exercising the
/// dangling-mass path of the power iteration.
fn sampled_dataset() -> Database {
    let data = generate_dblp(DblpConfig {
        papers: 150,
        authors: 80,
        conferences: 6,
        seed: 7,
        ..Default::default()
    });
    sample_database(&data.db, 0.4, 11).db
}

/// Dataset (b): a heavily Zipf-skewed DBLP — hub authors concentrate the
/// edge mass, so contiguous source chunks get very uneven work (the
/// scenario where a nondeterministic work-stealing scheme would diverge).
fn skewed_dataset() -> ci_datagen::DblpData {
    generate_dblp(DblpConfig {
        papers: 120,
        authors: 60,
        conferences: 5,
        zipf_exponent: 1.7,
        seed: 13,
        ..Default::default()
    })
}

fn config(index: IndexKind, threads: usize) -> CiRankConfig {
    CiRankConfig {
        weights: WeightConfig::dblp_default(),
        k: 5,
        max_expansions: Some(3000),
        index,
        build_threads: threads,
        ..Default::default()
    }
}

fn build(db: &Database, index: IndexKind, threads: usize) -> EngineSnapshot {
    EngineBuilder::new(config(index, threads))
        .build(db)
        .expect("build must succeed at every thread count")
}

/// Canonical bytes of the snapshot's distance index (`DS`/`LS` tables).
fn index_bytes(snap: &EngineSnapshot) -> Vec<u8> {
    match snap.dist_index() {
        DistIndex::None => Vec::new(),
        DistIndex::Naive(ix) => ix.table_bytes(),
        DistIndex::Star(ix) => ix.table_bytes(),
    }
}

fn f64_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

fn index_kinds() -> Vec<(&'static str, IndexKind)> {
    vec![
        ("naive", IndexKind::Naive),
        ("star", IndexKind::Star { relations: None }),
    ]
}

#[test]
fn snapshots_are_bit_identical_across_thread_counts() {
    let datasets = vec![
        ("sampled", sampled_dataset()),
        ("zipf", skewed_dataset().db),
    ];
    for (ds_name, db) in &datasets {
        for (ix_name, kind) in index_kinds() {
            let baseline = build(db, kind.clone(), 1);
            let base_tables = index_bytes(&baseline);
            assert!(
                !base_tables.is_empty(),
                "{ds_name}/{ix_name}: determinism test must compare non-trivial tables"
            );
            let base_importance = f64_bits(baseline.importance().values());
            let base_damp = f64_bits(baseline.dampening_vector());
            for threads in thread_counts() {
                let snap = build(db, kind.clone(), threads);
                assert_eq!(
                    index_bytes(&snap),
                    base_tables,
                    "{ds_name}/{ix_name}: DS/LS tables diverged at {threads} threads"
                );
                assert_eq!(
                    f64_bits(snap.importance().values()),
                    base_importance,
                    "{ds_name}/{ix_name}: importance diverged at {threads} threads"
                );
                assert_eq!(
                    f64_bits(snap.dampening_vector()),
                    base_damp,
                    "{ds_name}/{ix_name}: dampening diverged at {threads} threads"
                );
            }
        }
    }
}

/// FNV-1a of each index's canonical table bytes, per dataset, captured
/// from the hash-map build before the frontier DP and the flat pair rows
/// replaced it. The §V tables are the contract of an index build: any
/// change to which pairs are stored, their hop distances or the bits of
/// their retentions moves these.
const TABLE_PINS: [(&str, &str, u64); 4] = [
    ("sampled", "naive", 0x936f_62c9_2540_4798),
    ("sampled", "star", 0xb504_9f21_ab55_bc8d),
    ("zipf", "naive", 0x83dd_6268_b8ac_e6d6),
    ("zipf", "star", 0x6121_4be4_019f_c0e5),
];

#[test]
fn index_tables_match_pins() {
    let datasets = [
        ("sampled", sampled_dataset()),
        ("zipf", skewed_dataset().db),
    ];
    let mut got = Vec::new();
    for (ds_name, db) in &datasets {
        for (ix_name, kind) in index_kinds() {
            let mut h = Fnv::new();
            for b in index_bytes(&build(db, kind, 1)) {
                h.byte(b);
            }
            got.push((*ds_name, ix_name, h.0));
        }
    }
    assert_eq!(got, TABLE_PINS, "DS/LS table bytes moved");
}

/// A fully deterministic fingerprint of one query's outcome: either the
/// top-k list (bit-exact scores + node sets) with its search counters, or
/// the error it produced. Any divergence across thread counts — answers,
/// tie-break order, pruning behaviour, or failure mode — changes it.
type QueryFingerprint = Result<(Vec<(u64, Vec<u32>)>, SearchStats), String>;

fn replay(snap: &EngineSnapshot, queries: &[String]) -> Vec<QueryFingerprint> {
    let session = snap.session();
    queries
        .iter()
        .map(|q| {
            session
                .search_with_stats(q)
                .map(|(answers, stats)| {
                    let list: Vec<(u64, Vec<u32>)> = answers
                        .iter()
                        .map(|a| {
                            (
                                a.score.to_bits(),
                                a.nodes.iter().map(|n| n.node.0).collect(),
                            )
                        })
                        .collect();
                    (list, stats)
                })
                .map_err(|e| e.to_string())
        })
        .collect()
}

#[test]
fn replayed_workload_matches_across_thread_counts() {
    let data = skewed_dataset();
    let queries: Vec<String> = dblp_workload(&data, 12, 29)
        .into_iter()
        .map(|q| q.keywords.join(" "))
        .collect();
    assert!(queries.len() >= 8, "workload generation came up short");
    for (ix_name, kind) in index_kinds() {
        let expected = replay(&build(&data.db, kind.clone(), 1), &queries);
        assert!(
            expected
                .iter()
                .any(|f| matches!(f, Ok((list, _)) if !list.is_empty())),
            "{ix_name}: workload must produce at least one non-empty result list"
        );
        for threads in thread_counts() {
            let got = replay(&build(&data.db, kind.clone(), threads), &queries);
            assert_eq!(
                got, expected,
                "{ix_name}: replayed workload diverged at {threads} threads"
            );
        }
    }
}
