//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * logarithmic (Eq. 2) vs linear dampening (§III-C.2's rejected design);
//! * RWMP scoring vs the three rejected §III-B alternatives.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_bench::dblp_data;
use ci_graph::{build_graph, WeightConfig};
use ci_rwmp::{dampening_rate, score_alternative, AlternativeScore, Dampening, Jtt, Scorer};
use ci_walk::{pagerank, PowerOptions};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let data = dblp_data();
    let graph = build_graph(&data.db, &WeightConfig::dblp_default(), None);
    let imp = pagerank(&graph, PowerOptions::default());
    let scorer = Scorer::new(&graph, imp.values(), imp.min(), Dampening::paper_default());

    // A representative 5-node chain from the graph for scoring benches.
    let start = graph.nodes().find(|&v| graph.out_degree(v) >= 2).unwrap();
    let mut nodes = vec![start];
    while nodes.len() < 5 {
        let last = *nodes.last().unwrap();
        match graph.neighbors(last).find(|n| !nodes.contains(n)) {
            Some(n) => nodes.push(n),
            None => break,
        }
    }
    let edges = (1..nodes.len()).map(|i| (i - 1, i)).collect();
    let tree = Jtt::new(nodes, edges).unwrap();
    // Its two ends match one keyword of two words each.
    let matchers = [0, tree.size() - 1];
    let sources = matchers.map(|pos| (pos, scorer.generation(tree.node(pos), 1, 2)));

    let mut group = c.benchmark_group("ablation_scoring");
    group.sample_size(20);

    group.bench_function("rwmp/tree_flows", |b| {
        b.iter(|| std::hint::black_box(scorer.tree_flows(&tree, sources).reduce(None)))
    });
    for (name, alt) in [
        ("alt/avg_nonfree", AlternativeScore::AvgNonFreeImportance),
        ("alt/avg_all", AlternativeScore::AvgAllImportance),
        ("alt/avg_per_size", AlternativeScore::AvgImportancePerSize),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(score_alternative(alt, &scorer, &tree, &matchers)))
        });
    }

    group.bench_function("dampening/logarithmic", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for v in graph.nodes().take(1000) {
                acc += dampening_rate(Dampening::paper_default(), imp.get(v), imp.min());
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function("dampening/linear", |b| {
        let kind = Dampening::Linear { p_max: imp.max() };
        b.iter(|| {
            let mut acc = 0.0;
            for v in graph.nodes().take(1000) {
                acc += dampening_rate(kind, imp.get(v), imp.min());
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
