use ci_graph::NodeId;
use ci_rwmp::Scorer;

/// A non-free node of the query: which keywords it contains and its RWMP
/// message generation statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatcherInfo {
    /// The graph node.
    pub node: NodeId,
    /// Bitmask of matched keywords (bit `k` set ⇔ contains keyword `k`).
    pub mask: u32,
    /// Distinct matched keywords (`|v ∩ Q|` = `mask.count_ones()`).
    pub match_count: u32,
    /// Node word count (`|v|`), ≥ 1.
    pub word_count: u32,
    /// Message generation count `r_vv` (precomputed).
    pub gen: f64,
}

/// Hard cap on query keywords.
///
/// Keyword coverage is tracked as a `u32` bitmask everywhere (candidate
/// trees, matcher infos, the top-k dominance checks), so a query can name
/// at most 32 keywords — one bit per keyword, with the 32-keyword case
/// using the full `u32::MAX` mask. Raising the cap means widening every
/// mask in the search layer, not just this constant.
pub const MAX_KEYWORDS: usize = 32;

/// A resolved keyword query: the keyword list, every matcher with its
/// statistics, and per-keyword aggregates used by the search bounds.
///
/// Queries carry between 1 and [`MAX_KEYWORDS`] keywords; the cap comes
/// from the `u32` keyword bitmask (bit `k` ⇔ keyword `k`), and
/// [`QuerySpec::new`] panics beyond it.
///
/// Matchers are looked up on every flow, bound and grow step, so they sit
/// in one flat open-addressing table rather than a hashed map: a single
/// probe answers [`QuerySpec::matcher`], [`QuerySpec::mask_of`] and the
/// matcher's ordinal in [`QuerySpec::matchers_sorted`] order.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    keywords: Vec<String>,
    /// Every matcher, in [`QuerySpec::matchers_sorted`] order.
    infos: Vec<MatcherInfo>,
    /// Open-addressing table over `infos`: `node << 32 | (ordinal + 1)`
    /// per occupied slot, 0 when empty. Power-of-two length, load ≤ ½.
    table: Vec<u64>,
    /// Matchers of each keyword, sorted by descending generation count.
    per_keyword: Vec<Vec<NodeId>>,
    /// `R_k`: the largest generation count among keyword `k`'s matchers.
    best_gen: Vec<f64>,
    /// Every matcher node, sorted by descending generation count.
    all_sorted: Vec<NodeId>,
}

/// Home slot of `node` in a table of `len` slots, a power of two ≥ 2
/// (Fibonacci hashing: the top bits of a multiplicative hash).
fn home(node: NodeId, len: usize) -> usize {
    let bits = len.trailing_zeros();
    let h = u64::from(node.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    usize::try_from(h >> (64 - bits)).unwrap_or(0)
}

/// Where `node` sits in a table: its slot, or the empty slot it would
/// take. Load ≤ ½ keeps an empty slot on every probe sequence.
fn slot_of(table: &[u64], node: NodeId) -> usize {
    let mask = table.len().saturating_sub(1);
    let mut i = home(node, table.len());
    while table
        .get(i)
        .is_some_and(|&w| w != 0 && w >> 32 != u64::from(node.0))
    {
        i = (i + 1) & mask;
    }
    i
}

/// The flat table over `infos` (see [`QuerySpec`]); a repeated node keeps
/// its last position.
fn table_for(infos: &[MatcherInfo]) -> Vec<u64> {
    let mut table = vec![0u64; (infos.len() * 2).next_power_of_two().max(2)];
    for (ord, m) in infos.iter().enumerate() {
        let i = slot_of(&table, m.node);
        if let Some(w) = table.get_mut(i) {
            *w = (u64::from(m.node.0) << 32) | (ord as u64 + 1);
        }
    }
    table
}

/// Position of `node` in the `infos` a table was built over.
fn probe(table: &[u64], node: NodeId) -> Option<usize> {
    let w = *table.get(slot_of(table, node))?;
    usize::try_from(w & 0xffff_ffff).ok()?.checked_sub(1)
}

impl QuerySpec {
    /// Builds a query spec. `keyword_count` ≤ [`MAX_KEYWORDS`] (masks are
    /// `u32`); every matcher's mask must be a non-empty subset of the
    /// keyword range. A node listed twice keeps its last entry.
    pub fn new(keywords: Vec<String>, matchers: Vec<MatcherInfo>) -> Self {
        let kc = keywords.len();
        assert!(
            (1..=MAX_KEYWORDS).contains(&kc),
            "between 1 and 32 keywords supported"
        );
        let full = Self::full_mask_for(kc);
        let mut per_keyword = vec![Vec::new(); kc];
        let mut best_gen = vec![0.0f64; kc];
        for m in &matchers {
            assert!(
                m.mask != 0 && m.mask & !full == 0,
                "matcher mask out of range"
            );
            assert_eq!(
                m.match_count,
                m.mask.count_ones(),
                "match_count must equal mask bits"
            );
            for k in 0..kc {
                if m.mask & (1 << k) != 0 {
                    if let Some(list) = per_keyword.get_mut(k) {
                        list.push(m.node);
                    }
                    if let Some(best) = best_gen.get_mut(k) {
                        *best = best.max(m.gen);
                    }
                }
            }
        }
        // A repeated node keeps its last entry: a table over the raw list
        // maps each node to its last position.
        let raw = table_for(&matchers);
        let mut infos: Vec<MatcherInfo> = matchers
            .iter()
            .enumerate()
            .filter(|&(i, m)| probe(&raw, m.node) == Some(i))
            .map(|(_, m)| *m)
            .collect();
        infos.sort_unstable_by(|a, b| b.gen.total_cmp(&a.gen).then(a.node.0.cmp(&b.node.0)));
        let table = table_for(&infos);
        let gen_of = |v: NodeId| {
            probe(&table, v)
                .and_then(|i| infos.get(i))
                .map_or(0.0, |m| m.gen)
        };
        for list in per_keyword.iter_mut() {
            list.sort_unstable_by(|a, b| gen_of(*b).total_cmp(&gen_of(*a)).then(a.0.cmp(&b.0)));
        }
        QuerySpec {
            keywords,
            all_sorted: infos.iter().map(|m| m.node).collect(),
            infos,
            table,
            per_keyword,
            best_gen,
        }
    }

    /// Convenience constructor: derives generation counts from the scorer
    /// given `(node, mask, word_count)` triples.
    pub fn from_matches(
        scorer: &Scorer<'_>,
        keywords: Vec<String>,
        matches: Vec<(NodeId, u32, u32)>,
    ) -> Self {
        let infos = matches
            .into_iter()
            .map(|(node, mask, word_count)| {
                let match_count = mask.count_ones();
                MatcherInfo {
                    node,
                    mask,
                    match_count,
                    word_count,
                    gen: scorer.generation(node, match_count, word_count),
                }
            })
            .collect();
        QuerySpec::new(keywords, infos)
    }

    fn full_mask_for(kc: usize) -> u32 {
        if kc == 32 {
            u32::MAX
        } else {
            (1u32 << kc) - 1
        }
    }

    /// Number of query keywords.
    pub fn keyword_count(&self) -> usize {
        self.keywords.len()
    }

    /// The keywords.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// Bitmask with every keyword set.
    pub fn full_mask(&self) -> u32 {
        Self::full_mask_for(self.keywords.len())
    }

    /// Position of `node` in [`QuerySpec::matchers_sorted`], if it is a
    /// matcher: one probe of the flat table.
    pub(crate) fn ordinal(&self, node: NodeId) -> Option<usize> {
        probe(&self.table, node)
    }

    /// Matcher info for a node, if it is a matcher.
    pub fn matcher(&self, node: NodeId) -> Option<&MatcherInfo> {
        self.infos.get(self.ordinal(node)?)
    }

    /// Keyword mask of a node (0 for free nodes).
    pub fn mask_of(&self, node: NodeId) -> u32 {
        self.matcher(node).map_or(0, |m| m.mask)
    }

    /// The node's bit in a candidate's matcher signature: bit `i` for the
    /// `i`-th matcher of [`QuerySpec::matchers_sorted`] when `i < 64`,
    /// else 0 (free nodes and matchers past the 64th have no bit).
    pub(crate) fn matcher_bit(&self, node: NodeId) -> u64 {
        match self.ordinal(node) {
            Some(i) if i < 64 => 1 << i,
            _ => 0,
        }
    }

    /// All matchers, in [`QuerySpec::matchers_sorted`] order.
    pub fn matchers(&self) -> impl Iterator<Item = &MatcherInfo> {
        self.infos.iter()
    }

    /// Number of matcher nodes.
    pub fn matcher_count(&self) -> usize {
        self.infos.len()
    }

    /// Matchers of keyword `k` (`En(k)`), sorted by descending generation.
    pub fn matchers_of(&self, k: usize) -> &[NodeId] {
        self.per_keyword.get(k).map_or(&[], Vec::as_slice)
    }

    /// `R_k`: the best generation count among matchers of keyword `k`
    /// (0.0 when the keyword matches nothing — the query is then
    /// unanswerable under AND semantics).
    pub fn best_gen(&self, k: usize) -> f64 {
        self.best_gen.get(k).copied().unwrap_or(0.0)
    }

    /// All matcher nodes, sorted by descending generation count.
    pub fn matchers_sorted(&self) -> &[NodeId] {
        &self.all_sorted
    }

    /// True if every keyword has at least one matcher.
    pub fn answerable(&self) -> bool {
        self.per_keyword.iter().all(|l| !l.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn mi(node: u32, mask: u32, gen: f64) -> MatcherInfo {
        MatcherInfo {
            node: NodeId(node),
            mask,
            match_count: mask.count_ones(),
            word_count: 2,
            gen,
        }
    }

    #[test]
    fn aggregates_per_keyword() {
        let q = QuerySpec::new(
            vec!["a".into(), "b".into()],
            vec![mi(0, 0b01, 1.0), mi(1, 0b10, 3.0), mi(2, 0b11, 2.0)],
        );
        assert_eq!(q.full_mask(), 0b11);
        assert_eq!(q.matchers_of(0), &[NodeId(2), NodeId(0)]); // sorted by gen
        assert_eq!(q.matchers_of(1), &[NodeId(1), NodeId(2)]);
        assert_eq!(q.best_gen(0), 2.0);
        assert_eq!(q.best_gen(1), 3.0);
        assert!(q.answerable());
        assert_eq!(q.mask_of(NodeId(2)), 0b11);
        assert_eq!(q.mask_of(NodeId(9)), 0);
    }

    #[test]
    fn unanswerable_when_keyword_unmatched() {
        let q = QuerySpec::new(vec!["a".into(), "b".into()], vec![mi(0, 0b01, 1.0)]);
        assert!(!q.answerable());
        assert_eq!(q.best_gen(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "mask out of range")]
    fn oversized_mask_rejected() {
        QuerySpec::new(vec!["a".into()], vec![mi(0, 0b10, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "between 1 and 32")]
    fn empty_query_rejected() {
        QuerySpec::new(vec![], vec![]);
    }

    #[test]
    fn thirty_two_keywords_fill_the_mask_exactly() {
        // Boundary: 32 keywords is the largest query the u32 mask admits;
        // the full mask must be u32::MAX with no overflow in its
        // construction, and the last keyword's bit must round-trip.
        let keywords: Vec<String> = (0..MAX_KEYWORDS).map(|k| format!("k{k}")).collect();
        let matchers: Vec<MatcherInfo> = (0..MAX_KEYWORDS as u32)
            .map(|k| mi(k, 1u32 << k, 1.0 + f64::from(k)))
            .collect();
        let q = QuerySpec::new(keywords, matchers);
        assert_eq!(q.keyword_count(), MAX_KEYWORDS);
        assert_eq!(q.full_mask(), u32::MAX);
        assert!(q.answerable());
        assert_eq!(q.matchers_of(31), &[NodeId(31)]);
        assert_eq!(q.mask_of(NodeId(31)), 1u32 << 31);
    }

    #[test]
    #[should_panic(expected = "between 1 and 32")]
    fn thirty_three_keywords_rejected() {
        // Boundary: one past the mask width must fail loudly rather than
        // silently truncating keyword 32's coverage bit.
        let keywords: Vec<String> = (0..=MAX_KEYWORDS).map(|k| format!("k{k}")).collect();
        QuerySpec::new(keywords, vec![mi(0, 0b1, 1.0)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The flat table answers like a `HashMap` keyed by node (a node
        /// listed twice keeps its last entry) for matchers and non-matchers
        /// alike, and `matchers()` yields `matchers_sorted` order.
        #[test]
        fn flat_table_agrees_with_hash_map(
            raw in proptest::collection::vec((0u32..300, 1u32..8, 0u32..40), 0..120),
            big in proptest::collection::vec(1_000u32..u32::MAX, 0..8),
            probes in proptest::collection::vec(0u32..400, 0..64),
        ) {
            let infos: Vec<MatcherInfo> = raw
                .iter()
                .copied()
                .chain(big.iter().map(|&v| (v, 0b100, 3)))
                .map(|(v, mask, g)| mi(v, mask, f64::from(g) / 4.0))
                .collect();
            let reference: HashMap<NodeId, MatcherInfo> =
                infos.iter().map(|m| (m.node, *m)).collect();
            let q = QuerySpec::new(vec!["a".into(), "b".into(), "c".into()], infos);
            prop_assert_eq!(q.matcher_count(), reference.len());
            let order: Vec<NodeId> = q.matchers().map(|m| m.node).collect();
            prop_assert_eq!(order.as_slice(), q.matchers_sorted());
            for v in probes.iter().chain(&big).map(|&v| NodeId(v)) {
                prop_assert_eq!(q.matcher(v), reference.get(&v));
                prop_assert_eq!(q.mask_of(v), reference.get(&v).map_or(0, |m| m.mask));
                if let Some(i) = q.ordinal(v) {
                    prop_assert_eq!(q.matchers_sorted()[i], v);
                }
            }
            for (i, &v) in q.matchers_sorted().iter().enumerate() {
                prop_assert_eq!(q.ordinal(v), Some(i));
                prop_assert_eq!(q.matcher(v), reference.get(&v));
            }
        }
    }
}
