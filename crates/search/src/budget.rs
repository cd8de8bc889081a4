use std::time::{Duration, Instant};

/// Per-query resource budget threaded through both search algorithms.
///
/// A budget never changes *which* answers are correct — it only allows a
/// run to stop early. Every early stop is reported through
/// [`crate::SearchStats::truncation`] instead of panicking or silently
/// capping, and the answers returned by a truncated run are always valid
/// (each one is a complete, scored JTT); only the top-k *optimality*
/// guarantee of Theorem 1 is forfeited.
///
/// The default budget is unlimited on every truncation axis, preserving
/// the exact search semantics; only the oracle-cache memory cap defaults
/// to a (generous) finite value, which is safe because cache overflow
/// passes probes through to the inner oracle instead of truncating the
/// search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBudget {
    /// Cap on branch-and-bound queue pops (grow steps). Also bounds total
    /// candidate registrations at 10× the cap, because merge cascades at
    /// hub roots can register far more candidates than the pop loop ever
    /// touches. Registrations are the count
    /// [`QueryBudget::max_candidates`] caps too.
    pub max_expansions: Option<usize>,
    /// Wall-clock limit, armed afresh at the start of every run
    /// (`run start + timeout`), so a long-lived session holding this
    /// budget gives each query the full timeout. Checked at bounded
    /// intervals, so a run may overshoot by a few expansions but never
    /// hangs past the check.
    pub timeout: Option<Duration>,
    /// Cap on live candidates held in memory (the branch-and-bound arena,
    /// an upper bound on resident candidate memory). The arena is
    /// append-only within a run, so this caps the same count as the
    /// registration cap of [`QueryBudget::max_expansions`]:
    /// [`crate::SearchStats::candidates_peak`], which equals
    /// [`crate::SearchStats::registered`].
    pub max_candidates: Option<usize>,
    /// Cap on memoized oracle-probe slots held by the per-session
    /// [`crate::OracleCache`] (each slot is a few dozen bytes). Unlike the
    /// axes above this is *not* a truncation axis: once the cap is
    /// reached, further distinct probes are answered by the inner oracle
    /// directly and counted as overflow in
    /// [`crate::CacheStats::overflow`], so results are bit-identical with
    /// any cap — adversarial many-matcher queries just lose memoization
    /// speed instead of growing memory without bound. Defaults to
    /// [`QueryBudget::DEFAULT_CACHE_ENTRIES`].
    pub max_cache_entries: Option<usize>,
}

impl Default for QueryBudget {
    fn default() -> Self {
        QueryBudget {
            max_cache_entries: Some(QueryBudget::DEFAULT_CACHE_ENTRIES),
            ..QueryBudget::UNLIMITED
        }
    }
}

impl QueryBudget {
    /// The unlimited budget: exact search, Theorem 1 holds, and the
    /// oracle cache may grow without bound.
    pub const UNLIMITED: QueryBudget = QueryBudget {
        max_expansions: None,
        timeout: None,
        max_candidates: None,
        max_cache_entries: None,
    };

    /// Default oracle-cache slot cap: 2 million slots ≈ 64 MiB at the
    /// flat cache's 32-byte slot size — far beyond what the bench
    /// workloads touch (thousands), yet a hard ceiling on adversarial
    /// queries with huge matcher sets.
    pub const DEFAULT_CACHE_ENTRIES: usize = 2_000_000;

    /// Builder-style expansion cap.
    #[must_use]
    pub fn with_max_expansions(mut self, cap: usize) -> Self {
        self.max_expansions = Some(cap);
        self
    }

    /// Builder-style wall-clock limit: each run stops `timeout` after it
    /// starts.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Builder-style candidate-memory cap.
    #[must_use]
    pub fn with_max_candidates(mut self, cap: usize) -> Self {
        self.max_candidates = Some(cap);
        self
    }

    /// Builder-style oracle-cache slot cap (`None` = unbounded cache).
    #[must_use]
    pub fn with_max_cache_entries(mut self, cap: Option<usize>) -> Self {
        self.max_cache_entries = cap;
        self
    }

    /// True if no *truncation* axis is bounded — the exactness-preserving
    /// default. [`QueryBudget::max_cache_entries`] is deliberately
    /// excluded: the cache cap can never change which answers a search
    /// returns (overflowing probes fall through to the inner oracle), so
    /// a budget that only bounds the cache still runs the exact search.
    pub fn is_unlimited(&self) -> bool {
        self.max_expansions.is_none() && self.timeout.is_none() && self.max_candidates.is_none()
    }

    /// The wall-clock deadline of a run starting now: `now + timeout`.
    /// Reads the clock only when a timeout is set. Called once per run, in
    /// the search prologue.
    pub(crate) fn arm(&self) -> Option<Instant> {
        self.timeout.map(|t| Instant::now() + t)
    }
}

/// A run's strided wall-clock poll over the deadline [`QueryBudget::arm`]
/// sets. The clock is read once per [`DeadlinePoll::STRIDE`] checks,
/// keeping `Instant::now` off the per-candidate fast path; the first check
/// of a run always polls, so an already-expired deadline truncates
/// deterministically before any work. Both searches poll through it.
#[derive(Debug)]
pub(crate) struct DeadlinePoll {
    deadline: Option<Instant>,
    ticks: u32,
    expired: bool,
}

impl DeadlinePoll {
    /// Checks per clock read.
    const STRIDE: u32 = 64;

    /// Arms `budget`'s wall-clock limit for a run starting now.
    pub(crate) fn arm(budget: &QueryBudget) -> DeadlinePoll {
        DeadlinePoll {
            deadline: budget.arm(),
            ticks: 0,
            expired: false,
        }
    }

    /// One check: true if it read the clock and the deadline has passed.
    pub(crate) fn poll(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        let tick = self.ticks;
        self.ticks = self.ticks.wrapping_add(1);
        if !tick.is_multiple_of(DeadlinePoll::STRIDE) {
            return false;
        }
        self.expired = Instant::now() >= deadline;
        self.expired
    }

    /// True once a poll has found the deadline passed. Reads no clock.
    pub(crate) fn expired(&self) -> bool {
        self.expired
    }
}

/// Why a search run stopped before exhausting its search space.
///
/// Reported uniformly by both algorithms through
/// [`crate::SearchStats::truncation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// [`QueryBudget::max_expansions`] (or its derived registration cap)
    /// was reached.
    Expansions,
    /// The run's wall-clock limit ([`QueryBudget::timeout`]) passed
    /// mid-run.
    Deadline,
    /// [`QueryBudget::max_candidates`] live candidates were reached.
    CandidateMemory,
    /// A naive-search enumeration cap was hit
    /// ([`crate::SearchOptions::naive_max_paths`] or
    /// [`crate::SearchOptions::naive_max_combinations`]).
    EnumerationCaps,
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TruncationReason::Expansions => f.write_str("expansion budget exhausted"),
            TruncationReason::Deadline => f.write_str("wall-clock deadline passed"),
            TruncationReason::CandidateMemory => f.write_str("candidate-memory budget exhausted"),
            TruncationReason::EnumerationCaps => f.write_str("naive enumeration cap hit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let b = QueryBudget::default();
        assert!(b.is_unlimited(), "no truncation axis is bounded");
        assert_eq!(
            b.max_cache_entries,
            Some(QueryBudget::DEFAULT_CACHE_ENTRIES),
            "the cache cap defaults on (it never affects results)"
        );
        assert!(QueryBudget::UNLIMITED.is_unlimited());
        assert_eq!(QueryBudget::UNLIMITED.max_cache_entries, None);
        assert_eq!(b.arm(), None);
    }

    #[test]
    fn cache_cap_does_not_make_a_budget_limited() {
        let b = QueryBudget::UNLIMITED.with_max_cache_entries(Some(64));
        assert_eq!(b.max_cache_entries, Some(64));
        assert!(b.is_unlimited(), "cache cap is not a truncation axis");
        assert!(QueryBudget::default()
            .with_max_cache_entries(None)
            .max_cache_entries
            .is_none());
    }

    #[test]
    fn builders_set_each_axis() {
        let b = QueryBudget::default()
            .with_max_expansions(10)
            .with_timeout(Duration::from_secs(1))
            .with_max_candidates(100);
        assert_eq!(b.max_expansions, Some(10));
        assert_eq!(b.timeout, Some(Duration::from_secs(1)));
        assert_eq!(b.max_candidates, Some(100));
        assert!(!b.is_unlimited());
    }

    #[test]
    fn timeout_is_armed_per_run() {
        let b = QueryBudget::default().with_timeout(Duration::from_millis(20));
        assert!(!b.is_unlimited());
        let first = b.arm().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        // The same budget value, reused after its timeout elapsed, still
        // gives the next run the whole timeout.
        let second = b.arm().unwrap();
        assert!(second >= first + Duration::from_millis(30));
        assert!(second > Instant::now());
    }

    #[test]
    fn deadline_poll_reads_the_clock_on_the_first_check_and_every_stride() {
        let mut expired = DeadlinePoll::arm(&QueryBudget::default().with_timeout(Duration::ZERO));
        assert!(!expired.expired(), "no poll yet");
        let hits: Vec<usize> = (0..130).filter(|_| expired.poll()).collect();
        assert_eq!(hits, vec![0, 64, 128], "first check, then every 64th");
        assert!(expired.expired());
        let mut unlimited = DeadlinePoll::arm(&QueryBudget::default());
        assert!(!(0..130).any(|_| unlimited.poll()) && !unlimited.expired());
    }

    #[test]
    fn reasons_display() {
        for (r, needle) in [
            (TruncationReason::Expansions, "expansion"),
            (TruncationReason::Deadline, "deadline"),
            (TruncationReason::CandidateMemory, "memory"),
            (TruncationReason::EnumerationCaps, "enumeration"),
        ] {
            assert!(r.to_string().contains(needle));
        }
    }
}
