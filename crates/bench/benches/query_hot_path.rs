//! Microbenchmarks for the query hot path's two data-structure bets:
//!
//! * **Oracle probes** — the flat generational [`ci_search::OracleCache`]
//!   slab versus the `HashMap`-memo design it replaced. The replayed probe
//!   sequence mimics branch-and-bound bound computation: a handful of
//!   matcher rows probed against a sweep of candidate roots, with heavy
//!   repetition (every candidate sharing a root repeats its matchers'
//!   probes).
//! * **Bound computation** — [`ci_search::bound_parts_from`] over flows
//!   refilled from scratch ([`ci_rwmp::Scorer::fill_flows`]) versus over
//!   the incrementally maintained [`ci_search::FlowState`] a candidate
//!   carries, which is what the search loop actually does per admission.
//!   Both read the missing-keyword term from one [`ci_search::RootTable`]
//!   that stays warm across iterations, as it does for every candidate of
//!   a run after the first one at its root.
//! * **Flow kernel** — the Eq. 2 flow matrix of a branchy three-source
//!   candidate: [`ci_rwmp::Scorer::fill_flows`] from scratch (edge table
//!   loaded by weight lookups, then one walk and one sweep per source),
//!   and one [`ci_rwmp::Scorer::grow_flows`] step, with the grown-from
//!   table already loaded (every grow of a pop after its first) and
//!   reloaded from stored rows (a pop's first grow); plus one grow of a
//!   single-branch pop by a free new root, which needs no table.
//!
//! These use the `#[doc(hidden)]` hot-path re-exports from `ci-search`;
//! they are not a stable API.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::cell::RefCell;
use std::collections::HashMap;

use ci_graph::{GraphBuilder, NodeId};
use ci_index::{DistanceOracle, NoIndex};
use ci_rwmp::{Dampening, Scorer};
use ci_search::{
    bound_parts_from, CachedOracle, Candidate, FlowState, OracleCache, QuerySpec, RootTable,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// A synthetic oracle with a small arithmetic cost per probe — enough that
/// a cache miss is distinguishable from a hit, cheap enough that the
/// benchmark measures cache mechanics rather than oracle internals.
struct ArithOracle;

impl DistanceOracle for ArithOracle {
    fn dist_lb(&self, u: NodeId, v: NodeId) -> u32 {
        (u.0 ^ v.0).count_ones() % 5 + 1
    }

    fn retention_ub(&self, u: NodeId, v: NodeId) -> f64 {
        1.0 / f64::from(u.0.wrapping_add(v.0) % 97 + 2)
    }
}

/// The `HashMap` memo the flat cache replaced, reconstructed as the
/// baseline arm: directionless key, interior mutability, one entry per
/// distinct pair.
struct HashMapCache<'a, O: DistanceOracle> {
    inner: &'a O,
    map: RefCell<HashMap<(u32, u32), (u32, f64)>>,
}

impl<'a, O: DistanceOracle> HashMapCache<'a, O> {
    fn new(inner: &'a O) -> Self {
        HashMapCache {
            inner,
            map: RefCell::new(HashMap::new()),
        }
    }

    fn probe(&self, u: NodeId, v: NodeId) -> (u32, f64) {
        let key = if u.0 <= v.0 { (u.0, v.0) } else { (v.0, u.0) };
        *self
            .map
            .borrow_mut()
            .entry(key)
            .or_insert_with(|| self.inner.probe(u, v))
    }
}

/// The probe sequence of one branch-and-bound run: `matchers` keyword
/// nodes, `roots` candidate roots swept in admission order, `reps`
/// re-probes per (matcher, root) pair (candidates sharing a root repeat
/// their matchers' lookups).
fn probe_sequence(matchers: u32, roots: u32, reps: usize) -> Vec<(NodeId, NodeId)> {
    let mut seq = Vec::new();
    for r in 0..roots {
        for _ in 0..reps {
            for m in 0..matchers {
                seq.push((NodeId(m * 131), NodeId(1000 + r)));
            }
        }
    }
    seq
}

fn bench_oracle_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_probes");
    group.sample_size(60);
    let seq = probe_sequence(3, 400, 4);
    let oracle = ArithOracle;

    group.bench_function("flat_cache", |b| {
        // One persistent store, like a query session: cleared per
        // iteration so each sample replays the same cold-to-warm run.
        let store = OracleCache::new();
        b.iter(|| {
            store.clear();
            store.begin_query((0..3).map(|m| NodeId(m * 131)));
            let cached = CachedOracle::with_store(&oracle, &store);
            let mut acc = 0u64;
            for &(u, v) in &seq {
                let (d, r) = cached.probe(u, v);
                acc = acc.wrapping_add(u64::from(d)).wrapping_add(r.to_bits());
            }
            black_box(acc)
        })
    });

    group.bench_function("hashmap_cache", |b| {
        b.iter(|| {
            let cached = HashMapCache::new(&oracle);
            let mut acc = 0u64;
            for &(u, v) in &seq {
                let (d, r) = cached.probe(u, v);
                acc = acc.wrapping_add(u64::from(d)).wrapping_add(r.to_bits());
            }
            black_box(acc)
        })
    });

    group.finish();
}

/// A path graph `v0 - v1 - ... - v(n-1)` with mildly varied weights.
fn path_graph(n: u32) -> ci_graph::Graph {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| b.add_node(u16::try_from(i % 3).unwrap(), vec![]))
        .collect();
    for w in nodes.windows(2) {
        b.add_pair(w[0], w[1], 0.9, 0.7);
    }
    b.build()
}

fn bench_bound_computation(c: &mut Criterion) {
    let mut group = c.benchmark_group("bound_computation");
    group.sample_size(200);

    let graph = path_graph(8);
    let p: Vec<f64> = (0..8).map(|i| 0.05 + 0.01 * f64::from(i)).collect();
    let scorer = Scorer::new(&graph, &p, 0.05, Dampening::paper_default());
    let query = QuerySpec::from_matches(
        &scorer,
        vec!["left".into(), "right".into()],
        vec![(NodeId(0), 0b01, 2), (NodeId(7), 0b10, 2)],
    );
    let oracle = NoIndex;

    // The candidate the search would hold mid-run: seeded at one matcher,
    // grown along the path (each grow is one expansion step).
    let mut cand = Candidate::seed(NodeId(0), 0b01);
    let mut grown = Candidate::empty();
    for v in 1..=5u32 {
        cand.grow_into(NodeId(v), &query, &mut grown);
        std::mem::swap(&mut cand, &mut grown);
    }
    let fill = |out: &mut FlowState| {
        scorer.fill_flows(cand.tree(), query.flow_sources(&cand.nodes), out);
    };
    let mut flows = FlowState::default();
    fill(&mut flows);
    let mut roots = RootTable::default();
    roots.begin(query.keyword_count());

    group.bench_function("from_scratch", |b| {
        b.iter(|| {
            let mut fresh = FlowState::default();
            fill(&mut fresh);
            let parts = bound_parts_from(&scorer, &query, &oracle, &mut roots, &cand, &fresh);
            black_box(parts.ub())
        })
    });

    group.bench_function("incremental_flows", |b| {
        b.iter(|| {
            let parts = bound_parts_from(&scorer, &query, &oracle, &mut roots, &cand, &flows);
            black_box(parts.ub())
        })
    });

    group.finish();
}

/// A hub `h` with three two-hop branches `h — a_i — m_i`, each ending in
/// a matcher `m_i`, plus a node `g` beyond the hub; every node also has
/// `extra` leaf neighbours, so weight lookups search real adjacency lists.
/// Returns the graph and the nodes `[h, a_0, m_0, a_1, m_1, a_2, m_2, g]`.
fn branchy_graph(extra: u32) -> (ci_graph::Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let named: Vec<NodeId> = (0..8).map(|i| b.add_node(i % 3, vec![])).collect();
    let (h, g) = (named[0], named[7]);
    for i in 0..3 {
        let (a, m) = (named[1 + 2 * i], named[2 + 2 * i]);
        b.add_pair(h, a, 0.9, 0.6);
        b.add_pair(a, m, 0.7, 0.8);
    }
    b.add_pair(g, h, 0.5, 0.4);
    for &v in &named {
        for _ in 0..extra {
            let leaf = b.add_node(2, vec![]);
            b.add_pair(v, leaf, 0.3, 0.2);
        }
    }
    (b.build(), named)
}

fn bench_flow_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_kernel");
    group.sample_size(200);

    let (graph, named) = branchy_graph(12);
    let p: Vec<f64> = (0..graph.node_count())
        .map(|i| 0.01 + 0.001 * f64::from(u32::try_from(i % 17).unwrap()))
        .collect();
    let scorer = Scorer::new(&graph, &p, 0.01, Dampening::paper_default());
    let matchers = [named[2], named[4], named[6]];
    let query = QuerySpec::from_matches(
        &scorer,
        vec!["x".into(), "y".into(), "z".into()],
        vec![
            (matchers[0], 0b001, 2),
            (matchers[1], 0b010, 2),
            (matchers[2], 0b100, 2),
        ],
    );
    // The hub-rooted candidate of all three branches, as the search
    // builds it: each matcher grown to the hub, the three merged.
    let grow = |c: &Candidate, v: NodeId| {
        let mut out = Candidate::empty();
        c.grow_into(v, &query, &mut out);
        out
    };
    let merge = |a: &Candidate, b: &Candidate| {
        let mut out = Candidate::empty();
        out.merge_into(a.view(), b.view());
        out
    };
    let branch = |i: usize| {
        let seed = Candidate::seed(matchers[i], 1 << i);
        grow(&grow(&seed, named[1 + 2 * i]), named[0])
    };
    let cand = merge(&merge(&branch(0), &branch(1)), &branch(2));
    let new_root = named[7];

    group.bench_function("fill_flows", |b| {
        let mut out = FlowState::default();
        b.iter(|| {
            scorer.fill_flows(cand.tree(), query.flow_sources(&cand.nodes), &mut out);
            black_box(out.value(0, 0))
        })
    });

    let mut prev = FlowState::default();
    scorer.fill_flows(cand.tree(), query.flow_sources(&cand.nodes), &mut prev);
    let (sources, values) = {
        let (s, v) = prev.parts();
        (s.to_vec(), v.to_vec())
    };
    group.bench_function("grow_flows", |b| {
        let mut out = FlowState::default();
        b.iter(|| {
            scorer.grow_flows(cand.tree(), &mut prev, new_root, None, &mut out);
            black_box(out.value(0, 0))
        })
    });

    group.bench_function("grow_flows_reload", |b| {
        let mut stored = FlowState::default();
        let mut out = FlowState::default();
        b.iter(|| {
            stored.assign_parts(&sources, &values, cand.size());
            scorer.grow_flows(cand.tree(), &mut stored, new_root, None, &mut out);
            black_box(out.value(0, 0))
        })
    });

    // A chain pop (one branch, grown to the free hub) grown by the free
    // `g`: the rows are copied and one entry each is added, without the
    // pop's table, from the hub's one cached weight toward its child.
    let chain = branch(0);
    let mut chain_prev = FlowState::default();
    scorer.fill_flows(
        chain.tree(),
        query.flow_sources(&chain.nodes),
        &mut chain_prev,
    );
    let (sources, values) = {
        let (s, v) = chain_prev.parts();
        (s.to_vec(), v.to_vec())
    };
    chain_prev.assign_parts(&sources, &values, chain.size());
    group.bench_function("grow_flows_chain", |b| {
        let mut out = FlowState::default();
        b.iter(|| {
            scorer.grow_flows(chain.tree(), &mut chain_prev, new_root, None, &mut out);
            black_box(out.value(0, 0))
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_oracle_probes,
    bench_bound_computation,
    bench_flow_kernel
);
criterion_main!(benches);
