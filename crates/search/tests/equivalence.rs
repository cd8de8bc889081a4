//! Theorem 1 (optimality of branch-and-bound), verified empirically:
//! on random graphs and queries, `bnb_search` must return exactly the same
//! top-k scores as the exhaustive naive search — with and without indexes.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_graph::{Graph, GraphBuilder, NodeId};
use ci_index::{detect_star_relations, DistanceOracle, NaiveIndex, NoIndex, StarIndex};
use ci_rwmp::{Dampening, Scorer};
use ci_search::{
    bnb_search, explain_answer, is_valid_answer, naive_search, score_answer, Answer, QueryBudget,
    QuerySpec, SearchOptions, SearchStats, TraceLevel,
};
use proptest::prelude::*;

/// A random connected graph description: node importance values plus extra
/// edges on top of a random spanning tree.
#[derive(Debug, Clone)]
struct RandomCase {
    importance: Vec<f64>,
    spanning_choice: Vec<usize>,
    extra_edges: Vec<(usize, usize)>,
    weights: Vec<u8>,
    matcher_sel: Vec<u8>,
}

fn random_case(n: usize) -> impl Strategy<Value = RandomCase> {
    (
        proptest::collection::vec(1u32..1000, n),
        proptest::collection::vec(0usize..n, n),
        proptest::collection::vec((0usize..n, 0usize..n), 0..n),
        proptest::collection::vec(1u8..5, 4 * n),
        proptest::collection::vec(0u8..4, n),
    )
        .prop_map(|(imp, span, extra, weights, matcher_sel)| RandomCase {
            importance: imp.into_iter().map(|x| x as f64 / 1000.0).collect(),
            spanning_choice: span,
            extra_edges: extra,
            weights,
            matcher_sel,
        })
}

fn build_graph(case: &RandomCase) -> Graph {
    let n = case.importance.len();
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node((i % 2) as u16, vec![])).collect();
    let mut wi = 0;
    let w = |wi: &mut usize| {
        let v = case.weights[*wi % case.weights.len()] as f64;
        *wi += 1;
        v
    };
    // Random spanning tree: node i connects to one of 0..i.
    for i in 1..n {
        let j = case.spanning_choice[i] % i;
        b.add_pair(nodes[i], nodes[j], w(&mut wi), w(&mut wi));
    }
    let mut seen: Vec<(usize, usize)> = (1..n)
        .map(|i| {
            let j = case.spanning_choice[i] % i;
            (i.min(j), i.max(j))
        })
        .collect();
    for &(a, bn) in &case.extra_edges {
        let (x, y) = (a.min(bn), a.max(bn));
        if x == y || seen.contains(&(x, y)) {
            continue;
        }
        seen.push((x, y));
        b.add_pair(nodes[x], nodes[y], w(&mut wi), w(&mut wi));
    }
    b.build()
}

/// Assigns keyword masks: selector 1 → keyword a, 2 → keyword b, 3 → both.
fn build_query(scorer: &Scorer<'_>, case: &RandomCase) -> Option<QuerySpec> {
    let mut matches = Vec::new();
    for (i, &sel) in case.matcher_sel.iter().enumerate() {
        let mask = match sel {
            1 => 0b01,
            2 => 0b10,
            3 => 0b11,
            _ => continue,
        };
        matches.push((NodeId(i as u32), mask, 2 + (i as u32 % 3)));
    }
    if matches.is_empty() {
        return None;
    }
    Some(QuerySpec::from_matches(
        scorer,
        vec!["a".into(), "b".into()],
        matches,
    ))
}

/// Every answer's ranked score, its re-score and its explanation agree bit
/// for bit, and the explanation's incoming flows are the one-source rows of
/// `Scorer::tree_flows`.
fn assert_scores_agree(name: &str, scorer: &Scorer<'_>, query: &QuerySpec, answers: &[Answer]) {
    for a in answers {
        let rescore = score_answer(scorer, query, &a.tree).expect("answers have matchers");
        assert_eq!(rescore.to_bits(), a.score.to_bits(), "{name}: score_answer");
        let ex = explain_answer(scorer, query, &a.tree).expect("answers have matchers");
        assert_eq!(
            ex.score.to_bits(),
            a.score.to_bits(),
            "{name}: explain_answer"
        );
        for (s, src) in ex.sources.iter().enumerate() {
            let flows = scorer.tree_flows(&a.tree, [(src.pos, src.generation)]);
            let flows = flows.row(0);
            for (pos, node) in ex.nodes.iter().enumerate() {
                assert_eq!(
                    node.incoming[s].to_bits(),
                    flows[pos].to_bits(),
                    "{name}: flow of source {s} into position {pos}"
                );
            }
        }
    }
}

/// Three-keyword masks: selector `s` → mask `(s + 1) % 8` (0 skipped).
fn build_query_three(scorer: &Scorer<'_>, case: &RandomCase) -> Option<QuerySpec> {
    let matches: Vec<_> = case
        .matcher_sel
        .iter()
        .enumerate()
        .filter_map(|(i, &sel)| {
            let mask = (sel as u32 + 1) % 8;
            (mask != 0).then_some((NodeId(i as u32), mask, 2 + (i as u32 % 3)))
        })
        .collect();
    if matches.is_empty() {
        return None;
    }
    Some(QuerySpec::from_matches(
        scorer,
        vec!["a".into(), "b".into(), "c".into()],
        matches,
    ))
}

/// Asserts two answer lists are identical: same length, and bit for bit
/// the same scores and trees.
fn assert_same_answers(name: &str, left: &[Answer], right: &[Answer]) {
    assert_eq!(left.len(), right.len(), "{name}: answer counts");
    for (a, b) in left.iter().zip(right) {
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{name}: scores");
        assert_eq!(
            format!("{:?}", a.tree),
            format!("{:?}", b.tree),
            "{name}: trees"
        );
    }
}

/// Runs `opts` untraced and fully traced and asserts identical answers
/// (bit for bit) and statistics, rejection counters and truncation
/// included: every trace level runs the same enumeration.
fn assert_trace_neutral<O: DistanceOracle>(
    name: &str,
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    oracle: &O,
    opts: &SearchOptions,
) -> (Vec<Answer>, SearchStats) {
    let (answers, stats) = bnb_search(scorer, query, oracle, opts);
    let traced = SearchOptions {
        trace: TraceLevel::Full,
        ..opts.clone()
    };
    let (traced_answers, traced_stats) = bnb_search(scorer, query, oracle, &traced);
    assert_eq!(stats, traced_stats, "{name}: statistics differ when traced");
    assert_same_answers(name, &answers, &traced_answers);
    (answers, stats)
}

fn assert_equivalent(name: &str, left: &[ci_search::Answer], right: &[ci_search::Answer]) {
    assert_eq!(
        left.len(),
        right.len(),
        "{name}: answer counts differ ({} vs {})",
        left.len(),
        right.len()
    );
    for (i, (a, b)) in left.iter().zip(right).enumerate() {
        assert!(
            (a.score - b.score).abs() < 1e-9 * a.score.abs().max(1.0),
            "{name}: rank {i} scores differ: {} vs {}",
            a.score,
            b.score
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Branch-and-bound equals the exhaustive oracle, with every oracle
    /// implementation, on random 8-node graphs.
    #[test]
    fn bnb_matches_naive(case in random_case(8)) {
        let graph = build_graph(&case);
        let p = case.importance.clone();
        let p_min = p.iter().cloned().fold(f64::INFINITY, f64::min);
        let scorer = Scorer::new(&graph, &p, p_min, Dampening::paper_default());
        let Some(query) = build_query(&scorer, &case) else { return Ok(()); };
        if !query.answerable() { return Ok(()); }

        let opts = SearchOptions {
            diameter: 4,
            k: 5,
            max_tree_nodes: 8,
            naive_max_paths: 100_000,
            naive_max_combinations: 1_000_000,
            ..Default::default()
        };
        let (oracle_answers, naive_stats) = naive_search(&scorer, &query, &opts);
        prop_assert!(!naive_stats.truncated(), "oracle must be exhaustive for the comparison");

        let (plain, stats) = bnb_search(&scorer, &query, &NoIndex, &opts);
        prop_assert!(!stats.truncated());
        assert_equivalent("no-index", &oracle_answers, &plain);

        let damp: Vec<f64> = graph.nodes().map(|v| scorer.dampening(v)).collect();
        let naive_idx = NaiveIndex::build(&graph, &damp, opts.diameter);
        let (indexed, _) = bnb_search(&scorer, &query, &naive_idx, &opts);
        assert_equivalent("naive-index", &oracle_answers, &indexed);

        let star_rels = detect_star_relations(&graph);
        let star = StarIndex::build(&graph, &damp, opts.diameter, &star_rels).into_oracle(&graph);
        let (starred, _) = bnb_search(&scorer, &query, &star, &opts);
        assert_equivalent("star-index", &oracle_answers, &starred);
    }

    /// Three-keyword variant of the equivalence: masks span 1..=7, trees
    /// grow wider (star shapes, merges of three subtrees).
    #[test]
    fn bnb_matches_naive_three_keywords(case in random_case(7)) {
        let graph = build_graph(&case);
        let p = case.importance.clone();
        let p_min = p.iter().cloned().fold(f64::INFINITY, f64::min);
        let scorer = Scorer::new(&graph, &p, p_min, Dampening::paper_default());
        let mut matches = Vec::new();
        for (i, &sel) in case.matcher_sel.iter().enumerate() {
            let mask = (sel as u32 + 1) % 8; // 1..=7, 0 skipped below
            if mask == 0 {
                continue;
            }
            matches.push((NodeId(i as u32), mask, 2 + (i as u32 % 3)));
        }
        if matches.is_empty() { return Ok(()); }
        let query = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into(), "c".into()],
            matches,
        );
        if !query.answerable() { return Ok(()); }

        let opts = SearchOptions {
            diameter: 3,
            k: 4,
            max_tree_nodes: 7,
            naive_max_paths: 100_000,
            naive_max_combinations: 2_000_000,
            ..Default::default()
        };
        let (oracle_answers, naive_stats) = naive_search(&scorer, &query, &opts);
        prop_assert!(!naive_stats.truncated());
        let (plain, stats) = bnb_search(&scorer, &query, &NoIndex, &opts);
        prop_assert!(!stats.truncated());
        assert_equivalent("three-kw", &oracle_answers, &plain);

        let damp: Vec<f64> = graph.nodes().map(|v| scorer.dampening(v)).collect();
        let star_rels = detect_star_relations(&graph);
        let star = StarIndex::build(&graph, &damp, opts.diameter, &star_rels).into_oracle(&graph);
        let (starred, _) = bnb_search(&scorer, &query, &star, &opts);
        assert_equivalent("three-kw-star", &oracle_answers, &starred);
    }

    /// One flow kernel: for every answer of either search, the ranked
    /// score, `score_answer` and `explain_answer` agree bitwise, and the
    /// explanation's flows equal `Scorer::tree_flows`'s. Naive-search trees
    /// are numbered by path union, so they cover trees whose positions are
    /// not a candidate rooting.
    #[test]
    fn answer_scores_agree_bitwise(case in random_case(8)) {
        let graph = build_graph(&case);
        let p = case.importance.clone();
        let p_min = p.iter().cloned().fold(f64::INFINITY, f64::min);
        let scorer = Scorer::new(&graph, &p, p_min, Dampening::paper_default());
        let Some(query) = build_query(&scorer, &case) else { return Ok(()); };
        if !query.answerable() { return Ok(()); }
        let opts = SearchOptions {
            diameter: 4,
            k: 8,
            max_tree_nodes: 8,
            naive_max_paths: 100_000,
            naive_max_combinations: 1_000_000,
            ..Default::default()
        };
        let (naive, _) = naive_search(&scorer, &query, &opts);
        assert_scores_agree("naive", &scorer, &query, &naive);
        let (bnb, _) = bnb_search(&scorer, &query, &NoIndex, &opts);
        assert_scores_agree("bnb", &scorer, &query, &bnb);
    }

    /// Index bounds are consistent with ground truth on random graphs:
    /// star distance lower bounds never exceed naive exact distances and
    /// star retention upper bounds never undercut naive retentions.
    #[test]
    fn star_bounds_sound(case in random_case(10)) {
        let graph = build_graph(&case);
        let p = case.importance.clone();
        let p_min = p.iter().cloned().fold(f64::INFINITY, f64::min);
        let scorer = Scorer::new(&graph, &p, p_min, Dampening::paper_default());
        let damp: Vec<f64> = graph.nodes().map(|v| scorer.dampening(v)).collect();
        let exact = NaiveIndex::build(&graph, &damp, 6);
        let rels = detect_star_relations(&graph);
        let star = StarIndex::build(&graph, &damp, 6, &rels).into_oracle(&graph);
        for u in graph.nodes() {
            for v in graph.nodes() {
                // Bounds only need to hold for reachable pairs.
                if let Some(true_d) = exact.distance(u, v) {
                    prop_assert!(star.dist_lb(u, v) <= true_d,
                        "dist_lb({u},{v}) = {} > {true_d}", star.dist_lb(u, v));
                }
                if u != v && exact.distance(u, v).is_some() {
                    let true_r = exact.retention_ub(u, v);
                    prop_assert!(star.retention_ub(u, v) >= true_r - 1e-12,
                        "retention_ub({u},{v}) = {} < {true_r}", star.retention_ub(u, v));
                }
            }
        }
    }
    /// Tight shape caps (D ∈ {2, 3}, at most 3–4 nodes), where most pops
    /// are shape-dead and the partner index skips most same-root
    /// partners: branch-and-bound still equals the exhaustive oracle, with
    /// two and three keywords, and the untraced run equals the fully
    /// traced one.
    #[test]
    fn bnb_matches_naive_under_tight_caps(
        case in random_case(8),
        diameter in 2u32..4,
        max_tree_nodes in 3usize..5,
        three in 0u8..2,
    ) {
        let graph = build_graph(&case);
        let p = case.importance.clone();
        let p_min = p.iter().cloned().fold(f64::INFINITY, f64::min);
        let scorer = Scorer::new(&graph, &p, p_min, Dampening::paper_default());
        let query = if three == 1 {
            build_query_three(&scorer, &case)
        } else {
            build_query(&scorer, &case)
        };
        let Some(query) = query else { return Ok(()); };
        if !query.answerable() { return Ok(()); }
        let opts = SearchOptions {
            diameter,
            k: 5,
            max_tree_nodes,
            naive_max_paths: 100_000,
            naive_max_combinations: 1_000_000,
            ..Default::default()
        };
        let (oracle_answers, naive_stats) = naive_search(&scorer, &query, &opts);
        prop_assert!(!naive_stats.truncated());
        let (plain, stats) = assert_trace_neutral("tight", &scorer, &query, &NoIndex, &opts);
        prop_assert!(!stats.truncated());
        assert_equivalent("tight", &oracle_answers, &plain);

        let damp: Vec<f64> = graph.nodes().map(|v| scorer.dampening(v)).collect();
        let star_rels = detect_star_relations(&graph);
        let star = StarIndex::build(&graph, &damp, opts.diameter, &star_rels).into_oracle(&graph);
        let (starred, _) = assert_trace_neutral("tight-star", &scorer, &query, &star, &opts);
        assert_equivalent("tight-star", &oracle_answers, &starred);
    }
}

/// Runs `opts` under `budget` and checks the budget contract. A gate
/// trips only before buildable work is built, and no admission can happen
/// once a gate is at its cap, so an untruncated run must equal the
/// unlimited run bit for bit, answers and statistics. A truncated run
/// must still return only valid answers, each with its exact score. The
/// arena is append-only, so every run's peak equals its registrations:
/// the one count both the registration cap and `max_candidates` bound.
fn assert_budget_contract(
    name: &str,
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    opts: &SearchOptions,
    budget: QueryBudget,
) -> (Vec<Answer>, SearchStats) {
    let budgeted = SearchOptions {
        budget,
        ..opts.clone()
    };
    let (answers, stats) = assert_trace_neutral(name, scorer, query, &NoIndex, &budgeted);
    assert_eq!(
        stats.candidates_peak, stats.registered,
        "{name}: peak differs from registrations"
    );
    if stats.truncated() {
        for a in &answers {
            assert!(is_valid_answer(&a.tree, query), "{name}: invalid answer");
            let rescore = score_answer(scorer, query, &a.tree).expect("answers have matchers");
            assert_eq!(rescore.to_bits(), a.score.to_bits(), "{name}: score");
        }
    } else {
        let (exact, exact_stats) = bnb_search(scorer, query, &NoIndex, opts);
        assert_eq!(
            stats, exact_stats,
            "{name}: statistics differ from unlimited"
        );
        assert_same_answers(name, &answers, &exact);
    }
    (answers, stats)
}

proptest! {
    // Thousands of cases: a gate reaching its cap just as the last
    // buildable work runs out needs a rare combination of caps.
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    /// Small expansion and candidate-memory budgets: every run keeps the
    /// budget contract (see [`assert_budget_contract`]).
    #[test]
    fn budgeted_runs_keep_the_budget_contract(
        case in random_case(14),
        diameter in 2u32..5,
        max_tree_nodes in 3usize..7,
        max_expansions in 1usize..12,
        max_candidates in 2usize..200,
        axis in 0u8..3,
        k in 1usize..6,
    ) {
        let graph = build_graph(&case);
        let p = case.importance.clone();
        let p_min = p.iter().cloned().fold(f64::INFINITY, f64::min);
        let scorer = Scorer::new(&graph, &p, p_min, Dampening::paper_default());
        let Some(query) = build_query_three(&scorer, &case) else { return Ok(()); };
        if !query.answerable() { return Ok(()); }
        let budget = match axis {
            0 => QueryBudget::default().with_max_expansions(max_expansions),
            1 => QueryBudget::default().with_max_candidates(max_candidates),
            _ => QueryBudget::default()
                .with_max_expansions(max_expansions)
                .with_max_candidates(max_candidates),
        };
        let opts = SearchOptions {
            diameter,
            k,
            max_tree_nodes,
            ..Default::default()
        };
        assert_budget_contract("budgeted", &scorer, &query, &opts, budget);
    }
}

/// A candidate-memory budget whose cap is reached with pops still to
/// come, none of which enumerates buildable work: their grows are over
/// `max_tree_nodes` (dead pops) and their remaining same-root partners
/// over the caps. No real work is dropped, so the run must report no
/// truncation and return the exact answers.
#[test]
fn gate_at_cap_with_only_shape_dead_work_left_does_not_truncate() {
    let case = RandomCase {
        importance: vec![0.843, 0.945, 0.711, 0.558, 0.554],
        spanning_choice: vec![7, 4, 5, 2, 6],
        extra_edges: vec![(2, 4), (2, 3), (4, 3)],
        weights: vec![3, 1, 3, 3, 3, 1, 1, 4, 3, 1, 1, 3, 2, 1],
        matcher_sel: vec![2, 0, 0, 1, 0],
    };
    let graph = build_graph(&case);
    let p = case.importance.clone();
    let p_min = p.iter().cloned().fold(f64::INFINITY, f64::min);
    let scorer = Scorer::new(&graph, &p, p_min, Dampening::paper_default());
    let query = build_query(&scorer, &case).expect("two matchers");
    let opts = SearchOptions {
        diameter: 3,
        k: 4,
        max_tree_nodes: 4,
        naive_max_paths: 100_000,
        naive_max_combinations: 1_000_000,
        ..Default::default()
    };
    let cap = 15;
    let (answers, stats) = assert_budget_contract(
        "dead-at-cap",
        &scorer,
        &query,
        &opts,
        QueryBudget::default().with_max_candidates(cap),
    );
    assert_eq!(stats.truncation, None);
    assert_eq!(stats.candidates_peak, cap, "the gate is at its cap");
    assert!(stats.rejections.dead_pops > 0 && stats.rejections.merge_shape > 0);
    let (oracle_answers, naive_stats) = naive_search(&scorer, &query, &opts);
    assert!(!naive_stats.truncated());
    assert_equivalent("dead-at-cap", &oracle_answers, &answers);
}
