use ci_rwmp::Jtt;

use crate::candidate::Candidate;
use crate::query::{QuerySpec, MAX_KEYWORDS};

/// Checks whether a tree is a valid query answer (Definition 3).
///
/// Conditions, stated root-free (equivalent to the rooted definition for
/// every admissible root choice — see DESIGN.md):
///
/// 1. every keyword is contained in some tree node (AND semantics);
/// 2. there is an assignment `f: keywords → nodes` with `f(k)` containing
///    `k` whose image covers every *mandatory* node — the nodes of degree
///    ≤ 1 (leaves, and a single-child root, which is a degree-1 node).
///
/// Condition 2 is a bipartite matching: each mandatory node must be paired
/// with a distinct keyword it contains.
pub fn is_valid_answer(tree: &Jtt, query: &QuerySpec) -> bool {
    let mut covered = 0u32;
    for &v in tree.nodes() {
        covered |= query.mask_of(v);
    }
    if covered != query.full_mask() {
        return false;
    }
    let mut masks = LeafMasks::new(query);
    tree.leaves()
        .into_iter()
        .all(|pos| masks.push(query.mask_of(tree.node(pos))))
        && masks.matchable()
}

/// Leaf feasibility read straight off a candidate's parent array — no
/// [`Jtt`], no allocation once `has_child` has grown.
///
/// The non-root leaves (positions without children) stay leaves under
/// root-only extension, so their keyword masks must admit a matching —
/// the monotone prune applied at admission. With `with_root`, a root with
/// at most one child is mandatory too, which makes this exactly condition
/// 2 of [`is_valid_answer`] for the candidate's tree. `has_child` is
/// caller-owned bitset scratch.
pub(crate) fn candidate_leaves_matchable(
    cand: &Candidate,
    query: &QuerySpec,
    with_root: bool,
    has_child: &mut Vec<u64>,
) -> bool {
    let n = cand.size();
    has_child.clear();
    has_child.resize(n.div_ceil(64), 0);
    let mut root_children = 0usize;
    for &p in cand.parent.iter().skip(1) {
        if p == 0 {
            root_children += 1;
        }
        if let Some(w) = has_child.get_mut(p as usize / 64) {
            *w |= 1 << (p % 64);
        }
    }
    let mut masks = LeafMasks::new(query);
    if with_root && root_children <= 1 && !masks.push(query.mask_of(cand.root())) {
        return false;
    }
    for (i, &v) in cand.nodes.iter().enumerate().skip(1) {
        let inner = has_child
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0);
        if !inner && !masks.push(query.mask_of(v)) {
            return false;
        }
    }
    masks.matchable()
}

/// The keyword masks of a tree's mandatory nodes, on the stack. Holds at
/// most one mask per keyword: a further mandatory node can never be
/// matched, so [`LeafMasks::push`] reports it as infeasible.
struct LeafMasks {
    masks: [u32; MAX_KEYWORDS],
    len: usize,
    keywords: usize,
}

impl LeafMasks {
    fn new(query: &QuerySpec) -> LeafMasks {
        LeafMasks {
            masks: [0; MAX_KEYWORDS],
            len: 0,
            keywords: query.keyword_count().min(MAX_KEYWORDS),
        }
    }

    /// Adds one mandatory node's mask; false when the node can never be
    /// matched (free node, or more mandatory nodes than keywords).
    fn push(&mut self, mask: u32) -> bool {
        if mask == 0 || self.len >= self.keywords {
            return false;
        }
        match self.masks.get_mut(self.len) {
            Some(slot) => *slot = mask,
            None => return false,
        }
        self.len += 1;
        true
    }

    fn matchable(&self) -> bool {
        masks_matchable(self.masks.get(..self.len).unwrap_or(&[]))
    }
}

/// The Hall matcher: true if every mask can be assigned a distinct keyword
/// bit it contains (augmenting paths over at most [`MAX_KEYWORDS`] masks,
/// with stack arrays and a `u32` seen-set — no allocation).
pub(crate) fn masks_matchable(masks: &[u32]) -> bool {
    if masks.len() > MAX_KEYWORDS {
        return false;
    }
    // keyword -> index into `masks` of its current owner.
    let mut owner = [NO_OWNER; MAX_KEYWORDS];
    (0..masks.len()).all(|i| augment(i, masks, &mut owner, &mut 0))
}

const NO_OWNER: u8 = u8::MAX;

fn augment(i: usize, masks: &[u32], owner: &mut [u8; MAX_KEYWORDS], seen: &mut u32) -> bool {
    let mut bits = masks.get(i).copied().unwrap_or(0);
    while bits != 0 {
        let k = bits.trailing_zeros();
        bits &= bits - 1;
        if *seen & (1 << k) != 0 {
            continue;
        }
        *seen |= 1 << k;
        let Some(&other) = owner.get(k as usize) else {
            continue;
        };
        if other == NO_OWNER || augment(usize::from(other), masks, owner, seen) {
            if let Some(slot) = owner.get_mut(k as usize) {
                // `masks.len() ≤ MAX_KEYWORDS`, so the index fits.
                *slot = u8::try_from(i).unwrap_or(NO_OWNER);
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MatcherInfo;
    use ci_graph::NodeId;
    use ci_rwmp::TreeError;
    use proptest::prelude::*;

    /// The `Jtt`-based matcher the admission path used before
    /// [`candidate_leaves_matchable`], kept as the reference the mask-based
    /// Hall matcher is checked against.
    fn reference_leaves_matchable(tree: &Jtt, query: &QuerySpec, positions: &[usize]) -> bool {
        fn augment(
            pi: usize,
            mask: u32,
            positions: &[usize],
            tree: &Jtt,
            query: &QuerySpec,
            owner: &mut [usize],
            seen: &mut [bool],
        ) -> bool {
            for k in 0..owner.len() {
                if mask & (1 << k) == 0 || seen[k] {
                    continue;
                }
                seen[k] = true;
                let other = owner[k];
                if other == usize::MAX {
                    owner[k] = pi;
                    return true;
                }
                let other_mask = query.mask_of(tree.node(positions[other]));
                if augment(other, other_mask, positions, tree, query, owner, seen) {
                    owner[k] = pi;
                    return true;
                }
            }
            false
        }
        let kc = query.keyword_count();
        if positions.len() > kc {
            return false;
        }
        let mut owner = vec![usize::MAX; kc];
        for (pi, &pos) in positions.iter().enumerate() {
            let mask = query.mask_of(tree.node(pos));
            if mask == 0 {
                return false;
            }
            let mut seen = vec![false; kc];
            if !augment(pi, mask, positions, tree, query, &mut owner, &mut seen) {
                return false;
            }
        }
        true
    }

    fn query_k(keywords: usize, masks: &[u32]) -> QuerySpec {
        QuerySpec::new(
            (0..keywords).map(|i| format!("k{i}")).collect(),
            masks
                .iter()
                .enumerate()
                .filter(|(_, &m)| m != 0)
                .map(|(node, &mask)| MatcherInfo {
                    node: NodeId(node as u32),
                    mask,
                    match_count: mask.count_ones(),
                    word_count: 1,
                    gen: 1.0,
                })
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Random trees over nodes with random keyword masks: the
        /// parent-array, mask-based feasibility check agrees with the old
        /// `Jtt`-based matcher on the frozen leaves, and (with the root)
        /// with full answer validity.
        #[test]
        fn mask_matching_equals_jtt_matching(
            keywords in 1usize..5,
            raw_masks in proptest::collection::vec(0u32..32, 8),
            parents in proptest::collection::vec(0usize..8, 7),
            size in 1usize..9,
        ) {
            let full = (1u32 << keywords) - 1;
            let masks: Vec<u32> = raw_masks.iter().map(|m| m & full).collect();
            let q = query_k(keywords, &masks);
            let mut cand = Candidate::empty();
            for i in 0..size {
                cand.nodes.push(NodeId(i as u32));
                cand.parent.push(if i == 0 { 0 } else { (parents[i - 1] % i) as u32 });
                cand.mask |= q.mask_of(NodeId(i as u32));
            }
            let tree = cand.to_jtt();
            let mut scratch = Vec::new();
            let frozen = cand.frozen_leaves();
            prop_assert_eq!(
                candidate_leaves_matchable(&cand, &q, false, &mut scratch),
                reference_leaves_matchable(&tree, &q, &frozen)
            );
            let valid = cand.mask == q.full_mask()
                && reference_leaves_matchable(&tree, &q, &tree.leaves());
            prop_assert_eq!(is_valid_answer(&tree, &q), valid);
            prop_assert_eq!(
                cand.mask == q.full_mask()
                    && candidate_leaves_matchable(&cand, &q, true, &mut scratch),
                valid
            );
        }

        /// The Hall matcher against brute force over every assignment.
        #[test]
        fn hall_matcher_equals_brute_force(
            masks in proptest::collection::vec(0u32..16, 0..6),
        ) {
            fn brute(masks: &[u32], used: u32) -> bool {
                match masks.split_first() {
                    None => true,
                    Some((&m, rest)) => (0..4).any(|k| {
                        m & (1 << k) != 0 && used & (1 << k) == 0 && brute(rest, used | (1 << k))
                    }),
                }
            }
            prop_assert_eq!(masks_matchable(&masks), brute(&masks, 0));
        }
    }

    fn query2(matchers: Vec<(u32, u32)>) -> QuerySpec {
        QuerySpec::new(
            vec!["a".into(), "b".into()],
            matchers
                .into_iter()
                .map(|(node, mask)| MatcherInfo {
                    node: NodeId(node),
                    mask,
                    match_count: mask.count_ones(),
                    word_count: 1,
                    gen: 1.0,
                })
                .collect(),
        )
    }

    #[test]
    fn chain_with_distinct_matcher_leaves_is_valid() -> Result<(), TreeError> {
        // 0(a) — 9(free) — 1(b)
        let q = query2(vec![(0, 0b01), (1, 0b10)]);
        let t = Jtt::new(vec![NodeId(0), NodeId(9), NodeId(1)], vec![(0, 1), (1, 2)])?;
        assert!(is_valid_answer(&t, &q));
        Ok(())
    }

    #[test]
    fn free_leaf_invalidates() -> Result<(), TreeError> {
        let q = query2(vec![(0, 0b01), (1, 0b10)]);
        // 0(a) — 1(b) — 9(free leaf)
        let t = Jtt::new(vec![NodeId(0), NodeId(1), NodeId(9)], vec![(0, 1), (1, 2)])?;
        assert!(!is_valid_answer(&t, &q));
        Ok(())
    }

    #[test]
    fn missing_keyword_invalidates() {
        let q = query2(vec![(0, 0b01), (1, 0b10)]);
        let t = Jtt::singleton(NodeId(0));
        assert!(!is_valid_answer(&t, &q));
    }

    #[test]
    fn single_node_covering_all_keywords_is_valid() {
        let q = query2(vec![(0, 0b11)]);
        let t = Jtt::singleton(NodeId(0));
        assert!(is_valid_answer(&t, &q));
    }

    #[test]
    fn two_leaves_same_single_keyword_invalid() -> Result<(), TreeError> {
        // Both leaves match only keyword a; keyword b sits on the middle.
        let q = query2(vec![(0, 0b01), (1, 0b01), (2, 0b10)]);
        let t = Jtt::new(vec![NodeId(0), NodeId(2), NodeId(1)], vec![(0, 1), (1, 2)])?;
        assert!(!is_valid_answer(&t, &q));
        Ok(())
    }

    #[test]
    fn matching_untangles_overlapping_masks() -> Result<(), TreeError> {
        // Leaf x matches {a}, leaf y matches {a, b}: assign x→a, y→b.
        let q = query2(vec![(0, 0b01), (1, 0b11)]);
        let t = Jtt::new(vec![NodeId(0), NodeId(9), NodeId(1)], vec![(0, 1), (1, 2)])?;
        assert!(is_valid_answer(&t, &q));
        // Order of leaves must not matter.
        let t2 = Jtt::new(vec![NodeId(1), NodeId(9), NodeId(0)], vec![(0, 1), (1, 2)])?;
        assert!(is_valid_answer(&t2, &q));
        Ok(())
    }

    #[test]
    fn more_leaves_than_keywords_invalid() -> Result<(), TreeError> {
        // Star with 3 matcher leaves but only 2 keywords.
        let q = query2(vec![(0, 0b11), (1, 0b11), (2, 0b11)]);
        let t = Jtt::new(
            vec![NodeId(9), NodeId(0), NodeId(1), NodeId(2)],
            vec![(0, 1), (0, 2), (0, 3)],
        )?;
        assert!(!is_valid_answer(&t, &q));
        Ok(())
    }

    #[test]
    fn interior_matcher_covers_keyword_without_assignment() -> Result<(), TreeError> {
        // Chain 0(a) — 2(b, interior) — 1(a): leaves both match a… invalid
        // (two leaves, one keyword a between them).
        let q = query2(vec![(0, 0b01), (1, 0b01), (2, 0b10)]);
        let t = Jtt::new(vec![NodeId(0), NodeId(2), NodeId(1)], vec![(0, 1), (1, 2)])?;
        assert!(!is_valid_answer(&t, &q));
        // But 0(a) — 2(b interior) — 3(b leaf): leaf 3 takes b, leaf 0
        // takes a — valid.
        let q2 = query2(vec![(0, 0b01), (3, 0b10), (2, 0b10)]);
        let t2 = Jtt::new(vec![NodeId(0), NodeId(2), NodeId(3)], vec![(0, 1), (1, 2)])?;
        assert!(is_valid_answer(&t2, &q2));
        Ok(())
    }
}
