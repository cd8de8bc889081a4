//! Structured query tracing for the branch-and-bound search (`ci-obs`).
//!
//! A [`SearchTrace`] is a bounded, in-memory event buffer that records what
//! Algorithm 1 actually did during one run: which candidates were popped
//! and with what bound components (`ce`, `pe`, `ub = max(ce, pe)`), which
//! grow and merge expansions were enumerated, why candidates were pruned,
//! when a budget axis truncated the run, and when the session's oracle
//! cache transitioned between hits and misses. It exists to make the
//! search debuggable and tunable — the per-query work counters
//! ([`crate::SearchStats`]) say *how much* happened; the trace says *what*.
//!
//! The trace records the run the engine does. Every level runs the same
//! enumeration, so grows of a dead pop and merges with partners over the
//! diameter or size cap — work the search skips, counted only in
//! [`crate::RejectionStats`] as `dead_pops` and `merge_shape` — leave no
//! event at any level.
//!
//! # Cost model
//!
//! Tracing is opt-in via [`crate::SearchOptions::trace`] and strictly
//! observational:
//!
//! * **Disabled path is zero-cost.** At [`TraceLevel::Off`] (the default)
//!   every emission site is a single enum discriminant test; no event is
//!   constructed and the buffer never allocates
//!   ([`SearchTrace::buffer_capacity`] stays `0`, asserted by the
//!   trace-neutrality regression test).
//! * **No effect on results at any level.** Events are derived from values
//!   the search computes anyway (the bound components are stored next to
//!   each candidate at admission), so enabling tracing cannot change
//!   answers, statistics, or the replay fingerprints — the determinism
//!   tests pin this.
//! * **Bounded memory.** The buffer holds at most
//!   [`crate::SearchOptions::trace_capacity`] events; further events are
//!   counted in [`SearchTrace::dropped`] instead of growing the buffer.
//!
//! The event vocabulary is documented in `docs/observability.md`, with an
//! equation → trace-field mapping table in `docs/paper-map.md`.

use crate::budget::TruncationReason;
use ci_graph::NodeId;

/// How much of the search a [`SearchTrace`] records: nothing
/// ([`TraceLevel::Off`], the default, which costs nothing) or every
/// event ([`TraceLevel::Full`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// No tracing. Emission sites reduce to one branch; the event buffer
    /// never allocates.
    #[default]
    Off,
    /// Record everything: pops, budget truncations, every enumerated
    /// grow and merge attempt, per-candidate admissions and prune
    /// reasons, and oracle-cache hit/miss transitions.
    Full,
}

impl TraceLevel {
    /// True only at [`TraceLevel::Full`].
    #[inline]
    pub fn full(self) -> bool {
        matches!(self, TraceLevel::Full)
    }
}

/// Why a candidate was rejected at registration (the prune taxonomy of
/// §IV-B, in the order the admission path applies them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// A non-root leaf is a free node (or a matcher whose keywords are
    /// redundant): no extension can make the leaf assignment feasible.
    InfeasibleLeaves,
    /// The `(root, canonical tree)` identity was already admitted this
    /// run. Only a seed or a merge can be one; a grow never is.
    Duplicate,
    /// Distance-feasibility: some missing keyword has no matcher close
    /// enough to the root to keep the final diameter within `D`
    /// (the bounds' companion `distance_prune`).
    Distance,
    /// The upper bound `ub(C) = max(ce, pe)` cannot beat the current
    /// top-k minimum (lines 9–11 of Algorithm 1, applied at admission).
    Bound,
}

/// One recorded search event. Field meanings follow the paper's notation:
/// `ce`/`pe` are the complete and potential estimates of §IV-B,
/// `ub = max(ce, pe)` the admissible upper bound, `mask` the keyword
/// coverage bitmask (bit `k` ⇔ keyword `k`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A candidate was popped from the priority queue for expansion
    /// ([`TraceLevel::Full`]).
    Pop {
        /// Arena index of the popped candidate.
        idx: usize,
        /// Root node of the candidate.
        root: NodeId,
        /// Number of nodes in the candidate tree.
        size: usize,
        /// Keyword coverage bitmask.
        mask: u32,
        /// The bound the candidate was enqueued with (`max(ce, pe)`).
        ub: f64,
        /// Complete estimate at admission: mean over existing matchers of
        /// their per-node Eq. 3 score bound.
        ce: f64,
        /// Damped potential estimate at admission (what an added matcher
        /// beyond the root could still score).
        pe: f64,
    },
    /// A *tree grow* expansion was enumerated: the popped candidate's root
    /// gains the neighbor `added` as the new root ([`TraceLevel::Full`]).
    /// Only pops with a grow that fits the caps enumerate grows.
    Grow {
        /// Root of the candidate being expanded.
        from_root: NodeId,
        /// The neighbor becoming the grown candidate's new root.
        added: NodeId,
    },
    /// A *tree merge* between two same-rooted candidates was attempted
    /// ([`TraceLevel::Full`]): the partner index visited a partner whose
    /// merge fits the caps, and the merge test ran.
    Merge {
        /// The shared root.
        root: NodeId,
        /// Arena index of the freshly admitted operand.
        idx: usize,
        /// Arena index of the existing merge partner.
        partner: usize,
        /// Whether the merge produced a candidate (disjoint non-root node
        /// sets).
        merged: bool,
    },
    /// A candidate passed every prune and entered the arena and queue
    /// ([`TraceLevel::Full`]).
    Admit {
        /// Arena index assigned to the candidate.
        idx: usize,
        /// Root node.
        root: NodeId,
        /// Tree size in nodes.
        size: usize,
        /// Keyword coverage bitmask.
        mask: u32,
        /// Upper bound it was enqueued with.
        ub: f64,
    },
    /// A candidate was rejected at registration ([`TraceLevel::Full`]).
    Prune {
        /// Which test rejected it.
        reason: PruneReason,
        /// Root node of the rejected candidate.
        root: NodeId,
        /// Tree size in nodes.
        size: usize,
        /// Keyword coverage bitmask.
        mask: u32,
    },
    /// A budget axis stopped the run early ([`TraceLevel::Full`]);
    /// mirrors [`crate::SearchStats::truncation`].
    Truncated {
        /// The exhausted budget axis.
        reason: TruncationReason,
    },
    /// The session oracle cache's cumulative hit/miss counters changed
    /// since the previous pop — a hit/miss transition boundary
    /// ([`TraceLevel::Full`], only when the oracle exposes counters).
    Cache {
        /// Cumulative memoized-probe hits at this point of the run.
        hits: u64,
        /// Cumulative probes forwarded to the inner oracle.
        misses: u64,
    },
}

/// A bounded buffer of [`TraceEvent`]s collected over one search run.
///
/// Owned by the search scratch (one per [`crate::SearchScratch`], recycled
/// across runs like every other scratch buffer) and re-armed by the run
/// prologue from [`crate::SearchOptions::trace`] /
/// [`crate::SearchOptions::trace_capacity`]. Read it after the run via
/// [`crate::SearchScratch::trace`] (or the engine session's accessor).
#[derive(Debug, Default, Clone)]
pub struct SearchTrace {
    level: TraceLevel,
    cap: usize,
    events: Vec<TraceEvent>,
    dropped: usize,
}

impl SearchTrace {
    /// Re-arms the buffer for a new run: sets the level and capacity and
    /// clears prior events (keeping the allocation for reuse).
    pub(crate) fn begin(&mut self, level: TraceLevel, cap: usize) {
        self.level = level;
        self.cap = cap;
        self.events.clear();
        self.dropped = 0;
    }

    /// The level this buffer is currently recording at.
    #[inline]
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Bounded push: records the event, or counts it as dropped once the
    /// capacity is reached. Callers guard on [`SearchTrace::level`] first
    /// so disabled runs never construct an event.
    #[inline]
    pub(crate) fn emit(&mut self, event: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events discarded after the buffer reached its capacity. A non-zero
    /// value means [`SearchTrace::events`] is a prefix of the run, not the
    /// whole run.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Heap capacity of the event buffer, in events. Stays `0` for a
    /// scratch that has only ever run at [`TraceLevel::Off`] — the
    /// allocation-freeness probe the trace-neutrality test asserts.
    pub fn buffer_capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Number of events of each kind, as `(pops, grows, merges, admits,
    /// prunes)` — a cheap structural summary for assertions and display.
    pub fn counts(&self) -> TraceCounts {
        let mut c = TraceCounts::default();
        for e in &self.events {
            match e {
                TraceEvent::Pop { .. } => c.pops += 1,
                TraceEvent::Grow { .. } => c.grows += 1,
                TraceEvent::Merge { .. } => c.merges += 1,
                TraceEvent::Admit { .. } => c.admits += 1,
                TraceEvent::Prune { .. } => c.prunes += 1,
                TraceEvent::Truncated { .. } => c.truncations += 1,
                TraceEvent::Cache { .. } => c.cache_transitions += 1,
            }
        }
        c
    }
}

/// Per-kind event totals of one [`SearchTrace`] (see
/// [`SearchTrace::counts`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TraceCounts {
    /// [`TraceEvent::Pop`] events.
    pub pops: usize,
    /// [`TraceEvent::Grow`] events.
    pub grows: usize,
    /// [`TraceEvent::Merge`] events.
    pub merges: usize,
    /// [`TraceEvent::Admit`] events.
    pub admits: usize,
    /// [`TraceEvent::Prune`] events.
    pub prunes: usize,
    /// [`TraceEvent::Truncated`] events.
    pub truncations: usize,
    /// [`TraceEvent::Cache`] events.
    pub cache_transitions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_buffer_never_allocates() {
        let mut t = SearchTrace::default();
        t.begin(TraceLevel::Off, 1024);
        assert!(!t.level().full());
        assert_eq!(t.buffer_capacity(), 0);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn capacity_bounds_the_buffer() {
        let mut t = SearchTrace::default();
        t.begin(TraceLevel::Full, 2);
        for i in 0..5 {
            t.emit(TraceEvent::Grow {
                from_root: NodeId(i),
                added: NodeId(i + 1),
            });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.counts().grows, 2);
        // Re-arming clears events but keeps the allocation.
        let cap = t.buffer_capacity();
        t.begin(TraceLevel::Full, 2);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.buffer_capacity(), cap);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(!TraceLevel::Off.full());
        assert!(TraceLevel::Full.full());
        assert_eq!(TraceLevel::default(), TraceLevel::Off);
    }

    #[test]
    fn counts_tally_each_kind() {
        let mut t = SearchTrace::default();
        t.begin(TraceLevel::Full, 64);
        t.emit(TraceEvent::Pop {
            idx: 0,
            root: NodeId(1),
            size: 1,
            mask: 0b1,
            ub: 1.0,
            ce: 1.0,
            pe: f64::NEG_INFINITY,
        });
        t.emit(TraceEvent::Prune {
            reason: PruneReason::Bound,
            root: NodeId(2),
            size: 2,
            mask: 0b1,
        });
        t.emit(TraceEvent::Truncated {
            reason: TruncationReason::Deadline,
        });
        t.emit(TraceEvent::Cache { hits: 3, misses: 1 });
        let c = t.counts();
        assert_eq!(c.pops, 1);
        assert_eq!(c.prunes, 1);
        assert_eq!(c.truncations, 1);
        assert_eq!(c.cache_transitions, 1);
        assert_eq!(c.grows + c.merges + c.admits, 0);
    }
}
