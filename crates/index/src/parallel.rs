//! The §V pair tables both index builds share, and the deterministic
//! fork/join over source nodes that fills them.
//!
//! Both index builds run one independent hop-bounded traversal per source
//! node, so the offline build parallelizes by partitioning sources into
//! contiguous chunks across scoped workers. Each worker fills the rows of
//! its own chunk with one reusable [`HopScratch`], and the chunks are
//! appended in source order — the result is the same rows (and therefore
//! the same `DS`/`LS` tables, bit for bit) at every thread count.
//!
//! `std::thread::scope` is used deliberately: workers borrow the graph and
//! dampening vector, and scoped threads cannot outlive those borrows
//! (`cargo xtask lint` rule 5 bans detached `thread::spawn` in library
//! crates for exactly this reason).

use ci_graph::{hop_bounded_costs, Graph, HopScratch, NodeId};

/// The `(u, v) → (DS, LS)` table of an index: one row per source node,
/// its targets ascending, with the hop distance and the best retention
/// among paths of at most `cap` hops. Rows sit back to back in flat
/// arrays; a lookup is a binary search in the source's row.
pub(crate) struct PairRows {
    /// `starts[u]..starts[u + 1]` is source `u`'s row.
    starts: Vec<usize>,
    targets: Vec<u32>,
    values: Vec<(u32, f64)>,
}

/// The rows of one worker's contiguous chunk of sources.
#[derive(Default)]
struct Chunk {
    /// Where each source's row ends in `targets`.
    ends: Vec<usize>,
    targets: Vec<u32>,
    values: Vec<(u32, f64)>,
}

impl PairRows {
    /// Runs the hop-layered DP ([`hop_bounded_costs`], node costs
    /// `−ln d`) from every node `indexed` accepts and keeps the pairs
    /// whose target it accepts too, over `threads` scoped workers.
    /// `damp.len()` must equal the node count.
    pub(crate) fn build<P>(
        graph: &Graph,
        damp: &[f64],
        cap: u32,
        threads: usize,
        indexed: P,
    ) -> Self
    where
        P: Fn(NodeId) -> bool + Sync,
    {
        let node_cost: Vec<f64> = damp.iter().map(|d| -d.ln()).collect();
        let sources: Vec<NodeId> = graph.nodes().filter(|&v| indexed(v)).collect();
        let chunks = map_chunks(&sources, threads, |chunk| {
            let mut scratch = HopScratch::default();
            let mut rows = Chunk::default();
            for &u in chunk {
                for r in hop_bounded_costs(graph, u, cap, &node_cost, &mut scratch) {
                    // The DP never reaches past the cap: a clamped
                    // distance would make `distance()` claim exactness
                    // for an out-of-range pair.
                    debug_assert!(r.dist <= cap, "DP row beyond the cap");
                    if r.node != u && indexed(r.node) {
                        rows.targets.push(r.node.0);
                        rows.values.push((r.dist, (-r.cost).exp()));
                    }
                }
                rows.ends.push(rows.targets.len());
            }
            rows
        });
        let pairs = chunks.iter().map(|c| c.targets.len()).sum();
        let mut table = PairRows {
            starts: vec![0; graph.node_count() + 1],
            targets: Vec::with_capacity(pairs),
            values: Vec::with_capacity(pairs),
        };
        let mut sources = sources.iter();
        for chunk in chunks {
            let base = table.targets.len();
            // `ends` goes first: zip stops on it without taking a source.
            for (end, u) in chunk.ends.into_iter().zip(sources.by_ref()) {
                if let Some(s) = table.starts.get_mut(u.idx() + 1) {
                    *s = base + end;
                }
            }
            table.targets.extend(chunk.targets);
            table.values.extend(chunk.values);
        }
        // A node that is not a source has an empty row: it starts and
        // ends where the row before it ends.
        let mut end = 0;
        for s in &mut table.starts {
            end = end.max(*s);
            *s = end;
        }
        table
    }

    /// `(DS, LS)` of the pair, if stored.
    pub(crate) fn get(&self, u: NodeId, v: NodeId) -> Option<(u32, f64)> {
        let (a, b) = (*self.starts.get(u.idx())?, *self.starts.get(u.idx() + 1)?);
        let i = self.targets.get(a..b)?.binary_search(&v.0).ok()?;
        self.values.get(a + i).copied()
    }

    /// Number of stored pairs.
    pub(crate) fn len(&self) -> usize {
        self.targets.len()
    }

    /// Canonical byte form of the table: rows ascending by `(u, v)`,
    /// retention serialized via `f64::to_bits`. Equality of these bytes
    /// is equality of the tables bit for bit.
    pub(crate) fn table_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len() * 20);
        for (u, w) in (0u32..).zip(self.starts.windows(2)) {
            let &[a, b] = w else { continue };
            let (Some(targets), Some(values)) = (self.targets.get(a..b), self.values.get(a..b))
            else {
                continue;
            };
            for (v, (d, r)) in targets.iter().zip(values) {
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
                out.extend_from_slice(&d.to_le_bytes());
                out.extend_from_slice(&r.to_bits().to_le_bytes());
            }
        }
        out
    }
}

/// Clamps a requested worker count to something useful: at least 1, at
/// most one worker per source.
pub(crate) fn effective_threads(requested: usize, sources: usize) -> usize {
    requested.max(1).min(sources.max(1))
}

/// Applies `work` to contiguous chunks of `sources`, one chunk per scoped
/// worker out of `threads`. The output is ordered like `sources`
/// regardless of thread count; with `threads <= 1` no thread is spawned
/// and the call is exactly `vec![work(sources)]`.
pub(crate) fn map_chunks<T, F>(sources: &[NodeId], threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(&[NodeId]) -> T + Sync,
{
    let threads = effective_threads(threads, sources.len());
    if threads <= 1 {
        return vec![work(sources)];
    }
    let chunk = sources.len().div_ceil(threads);
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(sources.len().div_ceil(chunk), || None);
    std::thread::scope(|s| {
        for (c, slot) in sources.chunks(chunk).zip(out.iter_mut()) {
            let work = &work;
            s.spawn(move || *slot = Some(work(c)));
        }
    });
    debug_assert!(
        out.iter().all(Option::is_some),
        "every source chunk must be fully materialized before the merge"
    );
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_preserved_at_every_thread_count() {
        let sources: Vec<NodeId> = (0..23).map(NodeId).collect();
        let tens = |c: &[NodeId]| c.iter().map(|u| u.0 * 10).collect::<Vec<_>>();
        let serial = map_chunks(&sources, 1, tens);
        assert_eq!(serial.len(), 1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(map_chunks(&sources, threads, tens).concat(), serial[0]);
        }
    }

    #[test]
    fn empty_and_single_source() {
        assert_eq!(map_chunks(&[], 4, <[NodeId]>::len), vec![0]);
        assert_eq!(
            map_chunks(&[NodeId(7)], 4, <[NodeId]>::to_vec),
            vec![vec![NodeId(7)]]
        );
    }

    #[test]
    fn thread_clamping() {
        assert_eq!(effective_threads(0, 10), 1);
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 10), 2);
        assert_eq!(effective_threads(4, 0), 1);
    }
}
