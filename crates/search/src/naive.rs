use std::collections::HashMap;

use ci_graph::NodeId;
use ci_rwmp::{Jtt, Scorer};

use crate::answer::{score_answer, Answer, TopK};
use crate::bnb::SearchStats;
use crate::budget::{DeadlinePoll, TruncationReason};
use crate::query::QuerySpec;
use crate::validity::is_valid_answer;
use crate::SearchOptions;

/// The naive search algorithm (§IV-A).
///
/// Enumerates all simple paths of length ≤ `⌈D/2⌉` from every matcher, then
/// for every reachable node `r` (the candidate root) combines one
/// matcher-path per keyword into an answer tree. Every valid JTT of
/// diameter ≤ D arises this way when `r` is the tree's center, so with
/// unconstrained limits this search is *complete* — it doubles as the
/// exactness oracle for branch-and-bound in the test suite.
///
/// The combinatorial caps (`opts.naive_max_paths`,
/// `opts.naive_max_combinations`) and the wall-clock deadline of
/// `opts.budget` keep the algorithm usable on larger graphs at the cost of
/// completeness; any early stop is reported through
/// [`SearchStats::truncation`], mirroring [`crate::bnb_search`].
pub fn naive_search(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    opts: &SearchOptions,
) -> (Vec<Answer>, SearchStats) {
    let mut stats = SearchStats::default();
    if !query.answerable() {
        return (Vec::new(), stats);
    }
    let half = opts.diameter.div_ceil(2);
    let graph = scorer.graph();
    let mut capped = false;
    let mut deadline = DeadlinePoll::arm(&opts.budget);

    // endpoint -> matcher -> paths (each path runs endpoint → … → matcher).
    let mut by_endpoint: HashMap<NodeId, HashMap<NodeId, Vec<Vec<NodeId>>>> = HashMap::new();
    for m in query.matchers() {
        // DFS over simple paths of ≤ `half` edges starting at the matcher.
        let mut path = vec![m.node];
        dfs_paths(graph, &mut path, half, &mut |p: &[NodeId]| {
            let Some(&endpoint) = p.last() else { return };
            let slot = by_endpoint
                .entry(endpoint)
                .or_default()
                .entry(m.node)
                .or_default();
            if slot.len() >= opts.naive_max_paths {
                capped = true;
                return;
            }
            // Store the path reversed: root → … → matcher.
            let mut rp: Vec<NodeId> = p.to_vec();
            rp.reverse();
            slot.push(rp);
        });
        if deadline.poll() {
            break;
        }
    }

    let mut topk = TopK::new(opts.k);
    // Visit candidate roots in node order: hash-map iteration order varies
    // per instance, and arrival order is the top-k tie-break.
    let mut roots: Vec<NodeId> = by_endpoint.keys().copied().collect();
    roots.sort_unstable();
    for root in roots {
        let Some(per_matcher) = by_endpoint.get(&root) else {
            continue;
        };
        // Once a poll found the deadline passed, stop without waiting
        // for the next clock read.
        if deadline.expired() || deadline.poll() {
            break;
        }
        // Options per keyword: (matcher, path index) pairs.
        let options: Vec<Vec<(NodeId, usize)>> = (0..query.keyword_count())
            .map(|k| {
                let mut opts_k = Vec::new();
                for &u in query.matchers_of(k) {
                    if let Some(paths) = per_matcher.get(&u) {
                        for i in 0..paths.len() {
                            opts_k.push((u, i));
                        }
                    }
                }
                opts_k
            })
            .collect();
        if options.iter().any(|o| o.is_empty()) {
            continue;
        }
        let mut combo_budget = opts.naive_max_combinations;
        let mut choice = Vec::with_capacity(options.len());
        combine(
            &options,
            0,
            &mut choice,
            &mut combo_budget,
            &mut |sel: &[(NodeId, usize)]| {
                if let Some(tree) = union_paths(sel, per_matcher) {
                    if tree.size() <= opts.max_tree_nodes
                        && tree.diameter() <= opts.diameter
                        && is_valid_answer(&tree, query)
                    {
                        if let Some(score) = score_answer(scorer, query, &tree) {
                            topk.offer(Answer { tree, score });
                        }
                    }
                }
            },
        );
        if combo_budget == 0 {
            capped = true;
        }
    }
    // Uniform truncation reporting: the deadline outranks the enumeration
    // caps (the run stopped for time, whatever else it also hit).
    stats.truncation = if deadline.expired() {
        Some(TruncationReason::Deadline)
    } else if capped {
        Some(TruncationReason::EnumerationCaps)
    } else {
        None
    };
    (topk.into_sorted(), stats)
}

fn dfs_paths(
    graph: &ci_graph::Graph,
    path: &mut Vec<NodeId>,
    remaining: u32,
    visit: &mut impl FnMut(&[NodeId]),
) {
    visit(path);
    if remaining == 0 {
        return;
    }
    let Some(&last) = path.last() else { return };
    let nbrs: Vec<NodeId> = graph.neighbors(last).collect();
    for n in nbrs {
        if path.contains(&n) {
            continue;
        }
        path.push(n);
        dfs_paths(graph, path, remaining - 1, visit);
        path.pop();
    }
}

fn combine(
    options: &[Vec<(NodeId, usize)>],
    k: usize,
    choice: &mut Vec<(NodeId, usize)>,
    budget: &mut usize,
    emit: &mut impl FnMut(&[(NodeId, usize)]),
) {
    if *budget == 0 {
        return;
    }
    if k == options.len() {
        *budget -= 1;
        emit(choice);
        return;
    }
    for &opt in options.get(k).into_iter().flatten() {
        choice.push(opt);
        combine(options, k + 1, choice, budget, emit);
        choice.pop();
        if *budget == 0 {
            return;
        }
    }
}

/// Unions the selected root→matcher paths into a tree; `None` if the union
/// contains a cycle (inconsistent shared segments).
fn union_paths(
    selection: &[(NodeId, usize)],
    per_matcher: &HashMap<NodeId, Vec<Vec<NodeId>>>,
) -> Option<Jtt> {
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut pos_of: HashMap<NodeId, usize> = HashMap::new();
    let add_node = |v: NodeId, nodes: &mut Vec<NodeId>, pos_of: &mut HashMap<NodeId, usize>| {
        *pos_of.entry(v).or_insert_with(|| {
            nodes.push(v);
            nodes.len() - 1
        })
    };
    for &(m, pi) in selection {
        let Some(path) = per_matcher.get(&m).and_then(|paths| paths.get(pi)) else {
            debug_assert!(false, "selection references a missing path");
            continue;
        };
        for w in path.windows(2) {
            let &[x, y] = w else { continue };
            let a = add_node(x, &mut nodes, &mut pos_of);
            let b = add_node(y, &mut nodes, &mut pos_of);
            let e = (a.min(b), a.max(b));
            if !edges.contains(&e) {
                edges.push(e);
            }
        }
        if let [only] = path.as_slice() {
            add_node(*only, &mut nodes, &mut pos_of);
        }
    }
    Jtt::new(nodes, edges).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::QueryBudget;
    use ci_graph::GraphBuilder;
    use ci_rwmp::Dampening;

    fn coauthor_graph() -> (ci_graph::Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[1], n[2], 1.0, 1.0);
        b.add_pair(n[0], n[3], 1.0, 1.0);
        b.add_pair(n[3], n[2], 1.0, 1.0);
        (b.build(), vec![0.2, 0.05, 0.2, 0.55])
    }

    #[test]
    fn finds_the_same_answers_as_bnb() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(0), 0b01, 2), (NodeId(2), 0b10, 2)],
        );
        let opts = SearchOptions::default();
        let (naive, stats) = naive_search(&scorer, &q, &opts);
        assert!(!stats.truncated());
        let (bnb, _) = crate::bnb_search(&scorer, &q, &ci_index::NoIndex, &opts);
        assert_eq!(naive.len(), bnb.len());
        for (a, b) in naive.iter().zip(&bnb) {
            assert!((a.score - b.score).abs() < 1e-12);
            assert_eq!(a.tree.canonical_key(), b.tree.canonical_key());
        }
    }

    #[test]
    fn single_matcher_node_answer() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(3), 0b11, 3)],
        );
        let (answers, _) = naive_search(&scorer, &q, &SearchOptions::default());
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].tree.size(), 1);
    }

    #[test]
    fn respects_diameter() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(0), 0b01, 2), (NodeId(2), 0b10, 2)],
        );
        let opts = SearchOptions {
            diameter: 1,
            ..Default::default()
        };
        let (answers, _) = naive_search(&scorer, &q, &opts);
        assert!(answers.is_empty());
    }

    #[test]
    fn truncation_flag_reports_caps() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(0), 0b01, 2), (NodeId(2), 0b10, 2)],
        );
        let opts = SearchOptions {
            naive_max_combinations: 1,
            ..Default::default()
        };
        let (_, stats) = naive_search(&scorer, &q, &opts);
        assert_eq!(stats.truncation, Some(TruncationReason::EnumerationCaps));
    }

    #[test]
    fn expired_deadline_truncates() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(0), 0b01, 2), (NodeId(2), 0b10, 2)],
        );
        let opts = SearchOptions {
            budget: QueryBudget::default().with_timeout(std::time::Duration::ZERO),
            ..Default::default()
        };
        let (answers, stats) = naive_search(&scorer, &q, &opts);
        assert_eq!(stats.truncation, Some(TruncationReason::Deadline));
        for a in &answers {
            assert!(is_valid_answer(&a.tree, &q));
        }
    }
}
