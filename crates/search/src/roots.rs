//! Per-run, per-root state of the branch-and-bound search.
//!
//! Two admission terms depend only on a candidate's root and one missing
//! keyword `k`, never on the rest of the candidate:
//!
//! * the distance floor `min_{u ∈ En(k)} dist_lb(root, u)`, which decides
//!   the distance prune for every depth at once;
//! * the missing-keyword term `max_{u ∈ En(k)} gen(u) · ρ(u, root)` of the
//!   complete estimate `ce`.
//!
//! Every candidate sharing a root would repeat the same oracle probes
//! over `En(k)` for both, so [`RootTable`] memoizes them per
//! `(root, keyword)` for the run and each is scanned once. The scans
//! themselves live in `bounds.rs`, which passes them in.
//!
//! Both this table and the same-root partner index find a root's block
//! through [`NodeBlocks`]: a per-node offset stamped with the run
//! generation, so a new run empties them by bumping the stamp — no
//! clearing pass, no hashing, and storage for the roots a run touches
//! only.

use std::mem::size_of;

use ci_graph::NodeId;

/// Run-stamped per-node block offsets: which nodes the current run has
/// touched, and where each one's block starts in its owner's flat buffer.
#[derive(Debug, Default)]
pub(crate) struct NodeBlocks {
    /// Current run stamp (bumped by [`NodeBlocks::begin`]).
    run_gen: u64,
    /// Run stamp per node (stale ⇒ no block this run).
    node_gen: Vec<u64>,
    /// Offset of each stamped node's block.
    node_block: Vec<u32>,
}

impl NodeBlocks {
    /// Forgets every block: stamps from earlier runs read as stale.
    pub(crate) fn begin(&mut self) {
        self.run_gen = self.run_gen.wrapping_add(1);
        if self.run_gen == 0 {
            // u64 wrap is unreachable in practice; stay correct anyway.
            self.node_gen.fill(0);
            self.run_gen = 1;
        }
    }

    /// Offset of `node`'s block, if it has one this run.
    #[inline]
    pub(crate) fn get(&self, node: NodeId) -> Option<usize> {
        let id = node.0 as usize;
        if self.node_gen.get(id).copied() != Some(self.run_gen) {
            return None;
        }
        self.node_block.get(id).map(|&b| b as usize)
    }

    /// Records that `node`'s block starts at `offset` this run.
    pub(crate) fn set(&mut self, node: NodeId, offset: usize) {
        let id = node.0 as usize;
        if self.node_gen.len() <= id {
            self.node_gen.resize(id + 1, 0);
            self.node_block.resize(id + 1, 0);
        }
        if let (Some(g), Some(b)) = (self.node_gen.get_mut(id), self.node_block.get_mut(id)) {
            *g = self.run_gen;
            *b = u32::try_from(offset).unwrap_or(u32::MAX);
        }
    }

    pub(crate) fn capacity_bytes(&self) -> usize {
        self.node_gen.capacity() * size_of::<u64>() + self.node_block.capacity() * size_of::<u32>()
    }
}

/// The memoized `(root, keyword)` terms of one entry; `None` until first
/// asked for.
#[derive(Debug, Clone, Copy, Default)]
struct RootTerms {
    floor: Option<u32>,
    missing: Option<f64>,
}

/// The per-run `(root, keyword)` memo of the distance floor and the
/// missing-keyword bound term (see the module docs): one block of one
/// entry per query keyword for each root the run asks about, back to
/// back. Each term is computed by the scan its caller passes, on first
/// use only, and stays valid for the run, since both are pure functions
/// of the query, the oracle and the root.
#[derive(Debug, Default)]
pub struct RootTable {
    roots: NodeBlocks,
    keywords: usize,
    entries: Vec<RootTerms>,
}

impl RootTable {
    /// Empties the table for a run over a query with `keywords` keywords,
    /// keeping its allocations.
    pub fn begin(&mut self, keywords: usize) {
        self.roots.begin();
        self.keywords = keywords;
        self.entries.clear();
    }

    /// The entry of `(root, k)`, allocating the root's block on first use.
    fn entry(&mut self, root: NodeId, k: usize) -> Option<&mut RootTerms> {
        let base = match self.roots.get(root) {
            Some(base) => base,
            None => {
                let base = self.entries.len();
                self.entries
                    .resize(base + self.keywords, RootTerms::default());
                self.roots.set(root, base);
                base
            }
        };
        if k >= self.keywords {
            return None;
        }
        self.entries.get_mut(base + k)
    }

    /// The distance floor of `(root, k)`, computed by `scan` on first use.
    pub(crate) fn floor(&mut self, root: NodeId, k: usize, scan: impl FnOnce() -> u32) -> u32 {
        let Some(e) = self.entry(root, k) else {
            debug_assert!(false, "keyword {k} out of range");
            return scan();
        };
        *e.floor.get_or_insert_with(scan)
    }

    /// The missing-keyword term of `(root, k)`, computed by `scan` on
    /// first use.
    pub(crate) fn missing(&mut self, root: NodeId, k: usize, scan: impl FnOnce() -> f64) -> f64 {
        let Some(e) = self.entry(root, k) else {
            debug_assert!(false, "keyword {k} out of range");
            return scan();
        };
        *e.missing.get_or_insert_with(scan)
    }

    pub(crate) fn capacity_bytes(&self) -> usize {
        self.roots.capacity_bytes() + self.entries.capacity() * size_of::<RootTerms>()
    }

    /// Entries held this run: (roots touched) × keywords.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::admissibility_props::{
        build_graph, case_query, case_scorer, random_case, Case,
    };
    use crate::bounds::{best_damped_gen, distance_prune};
    use crate::scratch::SearchScratch;
    use crate::trace::{PruneReason, TraceEvent, TraceLevel};
    use crate::{bnb_search_in, SearchOptions};
    use ci_index::{detect_star_relations, DistanceOracle, NaiveIndex, NoIndex, StarIndex};
    use ci_rwmp::Scorer;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    /// Distinct roots of the candidates that reached the distance prune:
    /// the only ones that can have touched the table.
    fn roots_reaching_distance_prune(scratch: &SearchScratch) -> usize {
        let mut roots: Vec<NodeId> = scratch
            .trace()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Admit { root, .. } => Some(root),
                TraceEvent::Prune {
                    reason: PruneReason::Distance | PruneReason::Bound,
                    root,
                    ..
                } => Some(root),
                _ => None,
            })
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    /// Runs two different queries of `case` (2 and 3 keywords) through
    /// one scratch, then checks the table against the direct scans.
    fn check_table<O: DistanceOracle>(
        case: &Case,
        scorer: &Scorer<'_>,
        opts: &SearchOptions,
        oracle: &O,
    ) -> Result<(), TestCaseError> {
        let mut scratch = SearchScratch::new();
        for (keywords, salt) in [(case.keywords, 0), (5 - case.keywords, 3)] {
            let Some(query) = case_query(case, scorer, keywords, salt) else {
                continue;
            };
            bnb_search_in(scorer, &query, oracle, opts, &mut scratch);
            let touched = roots_reaching_distance_prune(&scratch);
            let table = &mut scratch.roots;
            prop_assert!(
                table.len() <= touched * keywords,
                "{} entries for {} roots × {} keywords",
                table.len(),
                touched,
                keywords
            );
            for root in scorer.graph().nodes() {
                for k in 0..keywords {
                    let matchers = query.matchers_of(k);
                    let scan = || best_damped_gen(&query, oracle, matchers, root, None);
                    let (got, want) = (table.missing(root, k, scan), scan());
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "root {:?} k {}", root, k);
                    let mask = query.full_mask() & !(1 << k);
                    for depth in 0..=opts.diameter {
                        let within_reach = matchers
                            .iter()
                            .any(|&u| oracle.dist_lb(root, u) + depth <= opts.diameter);
                        let pruned =
                            distance_prune(&query, oracle, table, root, mask, depth, opts.diameter);
                        prop_assert_eq!(
                            pruned,
                            !within_reach,
                            "root {:?} k {} depth {}",
                            root,
                            k,
                            depth
                        );
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Under the no-index, naive-index and star-index oracles, two
        /// different queries run through one scratch, so a stale run stamp
        /// would serve the first query's terms to the second. After each
        /// run the table holds at most (roots touched) × keywords entries,
        /// and for every root, keyword and depth 0..=D its distance verdict
        /// equals the direct scan for a matcher within reach, and its
        /// missing-keyword term is bit-identical to `best_damped_gen`.
        #[test]
        fn root_table_agrees_with_direct_scans(case in random_case(7)) {
            let graph = build_graph(&case);
            let scorer = case_scorer(&graph, &case);
            let opts = SearchOptions {
                diameter: 4,
                k: 4,
                max_tree_nodes: 6,
                trace: TraceLevel::Full,
                trace_capacity: 1 << 20,
                ..Default::default()
            };
            let damp: Vec<f64> = graph.nodes().map(|v| scorer.dampening(v)).collect();
            let naive = NaiveIndex::build(&graph, &damp, opts.diameter);
            let star = StarIndex::build(&graph, &damp, opts.diameter, &detect_star_relations(&graph));
            check_table(&case, &scorer, &opts, &NoIndex)?;
            check_table(&case, &scorer, &opts, &naive)?;
            check_table(&case, &scorer, &opts, &star.oracle(&graph))?;
        }
    }
}
