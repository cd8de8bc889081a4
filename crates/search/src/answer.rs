use std::collections::HashSet;

use ci_rwmp::{CanonicalKey, Jtt, Scorer};

use crate::query::QuerySpec;

/// One ranked query answer.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The joined tuple tree.
    pub tree: Jtt,
    /// Its CI-Rank score (Eq. 4).
    pub score: f64,
}

/// Scores a tree under the query: its matcher nodes are the RWMP sources,
/// and the flow kernel evaluates Eqs. 2–4 over the tree rooted at
/// position 0 ([`Scorer::tree_flows`]). Returns `None` if the tree holds
/// no matcher (not a query answer at all).
pub fn score_answer(scorer: &Scorer<'_>, query: &QuerySpec, tree: &Jtt) -> Option<f64> {
    scorer
        .tree_flows(tree, query.flow_sources(tree.nodes()))
        .reduce(None)
}

/// Bounded top-k answer list with canonical-tree deduplication.
///
/// The same JTT is frequently produced through different construction
/// orders (different roots in branch-and-bound, different path
/// combinations in naive search); [`Jtt::canonical_key`] collapses them.
pub struct TopK {
    k: usize,
    answers: Vec<Answer>,
    seen: HashSet<CanonicalKey>,
}

impl TopK {
    /// An empty list keeping the best `k` answers.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        TopK {
            k,
            answers: Vec::with_capacity(k + 1),
            seen: HashSet::new(),
        }
    }

    /// Offers an answer; returns true if it was inserted (new tree and good
    /// enough).
    pub fn offer(&mut self, answer: Answer) -> bool {
        // `min_score` is Some exactly when the list is full.
        if let Some(min) = self.min_score() {
            if answer.score <= min {
                return false;
            }
        }
        let key = answer.tree.canonical_key();
        if !self.seen.insert(key) {
            return false;
        }
        let at = self.answers.partition_point(|a| a.score >= answer.score);
        self.answers.insert(at, answer);
        if self.answers.len() > self.k {
            if let Some(dropped) = self.answers.pop() {
                self.seen.remove(&dropped.tree.canonical_key());
            }
        }
        true
    }

    /// Lowest score currently retained, if `k` answers are present.
    pub fn min_score(&self) -> Option<f64> {
        if self.answers.len() == self.k {
            self.answers.last().map(|a| a.score)
        } else {
            None
        }
    }

    /// Current number of answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True if no answers were kept.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// Consumes the list, returning answers in descending score order.
    pub fn into_sorted(self) -> Vec<Answer> {
        self.answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_graph::NodeId;

    fn ans(nodes: &[u32], score: f64) -> Answer {
        let n: Vec<NodeId> = nodes.iter().map(|&i| NodeId(i)).collect();
        let edges = (1..n.len()).map(|i| (i - 1, i)).collect();
        Answer {
            tree: Jtt::new(n, edges).unwrap(),
            score,
        }
    }

    #[test]
    fn keeps_best_k_sorted() {
        let mut t = TopK::new(2);
        assert!(t.offer(ans(&[1], 1.0)));
        assert!(t.offer(ans(&[2], 3.0)));
        assert!(t.offer(ans(&[3], 2.0)));
        let out = t.into_sorted();
        let scores: Vec<f64> = out.iter().map(|a| a.score).collect();
        assert_eq!(scores, vec![3.0, 2.0]);
    }

    #[test]
    fn rejects_below_min_when_full() {
        let mut t = TopK::new(1);
        t.offer(ans(&[1], 5.0));
        assert!(!t.offer(ans(&[2], 4.0)));
        assert_eq!(t.min_score(), Some(5.0));
    }

    #[test]
    fn min_score_none_until_full() {
        let mut t = TopK::new(3);
        t.offer(ans(&[1], 1.0));
        assert_eq!(t.min_score(), None);
        t.offer(ans(&[2], 2.0));
        t.offer(ans(&[3], 3.0));
        assert_eq!(t.min_score(), Some(1.0));
    }

    #[test]
    fn duplicate_trees_rejected() {
        let mut t = TopK::new(3);
        assert!(t.offer(ans(&[1, 2], 1.0)));
        assert!(!t.offer(ans(&[1, 2], 1.0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn evicted_tree_can_reenter_with_higher_score() {
        // Not a realistic search pattern (scores are deterministic), but
        // the dedup set must stay consistent with evictions.
        let mut t = TopK::new(1);
        t.offer(ans(&[1], 1.0));
        t.offer(ans(&[2], 2.0)); // evicts tree [1]
        assert!(t.offer(ans(&[1], 3.0)));
        let out = t.into_sorted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].score, 3.0);
    }
}
