use std::cell::RefCell;
use std::time::Instant;

use ci_index::{DistanceOracle, OracleVisitor};
use ci_rwmp::Scorer;
use ci_search::{
    bnb_search_in, naive_search, Answer, CachedOracle, OracleCache, QueryBudget, QuerySpec,
    SearchOptions, SearchScratch, SearchStats, SearchTrace, TraceLevel,
};

use crate::snapshot::{EngineSnapshot, RankedAnswer};
use crate::Result;

/// Per-query mutable state over an immutable [`EngineSnapshot`].
///
/// A session owns everything a single caller needs that the shared
/// snapshot must not: the [`SearchOptions`] (including the
/// [`QueryBudget`] — expansion, wall-clock, and candidate-memory limits)
/// and an [`OracleCache`] that memoizes distance-oracle probes across the
/// session's runs. Sessions are cheap to create and intentionally
/// `!Sync`; snapshots are what cross threads, one session per thread.
///
/// ```
/// # use ci_rank::{CiRankConfig, Engine, QueryBudget};
/// # use ci_storage::{schemas, Value};
/// # use ci_graph::WeightConfig;
/// # let (mut db, t) = schemas::dblp();
/// # let a = db.insert(t.author, vec![Value::text("Yu")]).unwrap();
/// # let p = db.insert(t.paper, vec![Value::text("CI-Rank"), Value::int(2012)]).unwrap();
/// # db.link(t.author_paper, a, p).unwrap();
/// # let engine = Engine::build(&db, CiRankConfig {
/// #     weights: WeightConfig::dblp_default(), ..Default::default()
/// # }).unwrap();
/// let session = engine
///     .session()
///     .with_budget(QueryBudget::default().with_max_expansions(10_000));
/// let (answers, stats) = session.search_with_stats("yu").unwrap();
/// assert!(!answers.is_empty());
/// assert!(!stats.truncated());
/// ```
pub struct QuerySession<'s> {
    snap: &'s EngineSnapshot,
    opts: SearchOptions,
    cache: OracleCache,
    /// Branch-and-bound working memory, recycled across the session's
    /// queries (candidate arena, heap, flow buffers — see
    /// [`ci_search::SearchScratch`]).
    scratch: RefCell<SearchScratch>,
}

impl<'s> QuerySession<'s> {
    pub(crate) fn new(snap: &'s EngineSnapshot) -> Self {
        QuerySession {
            snap,
            opts: snap.config().search_options(),
            cache: OracleCache::new(),
            scratch: RefCell::new(SearchScratch::new()),
        }
    }

    /// The snapshot this session queries.
    pub fn snapshot(&self) -> &'s EngineSnapshot {
        self.snap
    }

    /// Replaces the session's resource budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.opts.budget = budget;
        self
    }

    /// Replaces the session's search options wholesale.
    pub fn with_options(mut self, opts: SearchOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the session's trace level. At [`TraceLevel::Off`] (the
    /// default) nothing is recorded and the query path costs one branch
    /// per emission site; no level changes answers or statistics.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.opts.trace = level;
        self
    }

    /// The session's current search options.
    pub fn options(&self) -> &SearchOptions {
        &self.opts
    }

    /// The session's oracle cache (diagnostics: distinct pairs probed so
    /// far).
    pub fn oracle_cache(&self) -> &OracleCache {
        &self.cache
    }

    /// Diagnostics: candidate slots the session's search scratch has
    /// constructed so far. Constant across repeated identical queries once
    /// warm — the steady-state no-allocation property of the candidate
    /// pool (asserted by the query hot-path tests).
    pub fn scratch_slots_allocated(&self) -> usize {
        self.scratch.borrow().slots_allocated()
    }

    /// The trace recorded by the session's most recent branch-and-bound
    /// run — empty unless the session's trace level
    /// ([`QuerySession::with_trace`]) enabled recording.
    pub fn last_trace(&self) -> SearchTrace {
        self.scratch.borrow().trace().clone()
    }

    /// Branch-and-bound top-k under this session's options and budget,
    /// returning raw answers plus statistics.
    pub fn run_bnb(&self, spec: &QuerySpec) -> (Vec<Answer>, SearchStats) {
        let scorer = self.snap.scorer();
        self.snap.with_oracle(BnbRun {
            scorer: &scorer,
            spec,
            opts: &self.opts,
            cache: &self.cache,
            scratch: &self.scratch,
        })
    }

    /// Top-k search with the CI-Rank scoring function (branch-and-bound).
    pub fn search(&self, query: &str) -> Result<Vec<RankedAnswer>> {
        self.search_with_stats(query).map(|(a, _)| a)
    }

    /// Like [`QuerySession::search`], also returning search statistics
    /// (including [`SearchStats::truncation`] when the budget cut the run
    /// short). Every call — success or error — is folded into the
    /// snapshot's [`crate::MetricsRegistry`].
    pub fn search_with_stats(&self, query: &str) -> Result<(Vec<RankedAnswer>, SearchStats)> {
        let start = Instant::now();
        let spec = match self.snap.query_spec(query) {
            Ok(spec) => spec,
            Err(e) => {
                self.snap.metrics().record_error();
                return Err(e);
            }
        };
        let (answers, stats) = self.run_bnb(&spec);
        let ranked: Vec<RankedAnswer> = answers
            .into_iter()
            .map(|a| self.snap.to_ranked(&spec, a))
            .collect();
        self.snap
            .metrics()
            .record_search(&stats, ranked.len(), start.elapsed());
        Ok((ranked, stats))
    }

    /// Top-k search with the naive algorithm of §IV-A. Recorded in the
    /// snapshot's serving metrics like the branch-and-bound path.
    pub fn search_naive(&self, query: &str) -> Result<(Vec<RankedAnswer>, SearchStats)> {
        let start = Instant::now();
        let spec = match self.snap.query_spec(query) {
            Ok(spec) => spec,
            Err(e) => {
                self.snap.metrics().record_error();
                return Err(e);
            }
        };
        let scorer = self.snap.scorer();
        let (answers, stats) = naive_search(&scorer, &spec, &self.opts);
        let ranked: Vec<RankedAnswer> = answers
            .into_iter()
            .map(|a| self.snap.to_ranked(&spec, a))
            .collect();
        self.snap
            .metrics()
            .record_search(&stats, ranked.len(), start.elapsed());
        Ok((ranked, stats))
    }

    /// Generates a candidate pool of up to `pool_k` answers via
    /// branch-and-bound (see [`EngineSnapshot::candidate_pool`]). Recorded
    /// in the snapshot's serving metrics like [`QuerySession::search`].
    pub fn candidate_pool(&self, query: &str, pool_k: usize) -> Result<Vec<Answer>> {
        let start = Instant::now();
        let spec = match self.snap.query_spec(query) {
            Ok(spec) => spec,
            Err(e) => {
                self.snap.metrics().record_error();
                return Err(e);
            }
        };
        let scorer = self.snap.scorer();
        let opts = SearchOptions {
            k: pool_k,
            ..self.opts.clone()
        };
        let (answers, stats) = self.snap.with_oracle(BnbRun {
            scorer: &scorer,
            spec: &spec,
            opts: &opts,
            cache: &self.cache,
            scratch: &self.scratch,
        });
        self.snap
            .metrics()
            .record_search(&stats, answers.len(), start.elapsed());
        Ok(answers)
    }
}

/// The monomorphizing search launcher: receives the snapshot's oracle at
/// its concrete type, layers the session's memo cache on top, and runs
/// branch-and-bound — bound probes inline all the way down.
struct BnbRun<'a> {
    scorer: &'a Scorer<'a>,
    spec: &'a QuerySpec,
    opts: &'a SearchOptions,
    cache: &'a OracleCache,
    scratch: &'a RefCell<SearchScratch>,
}

impl OracleVisitor for BnbRun<'_> {
    type Output = (Vec<Answer>, SearchStats);

    fn visit<O: DistanceOracle>(self, oracle: &O) -> Self::Output {
        // Shape the flat cache for this query: the slot budget comes from
        // the session budget, and pre-assigning rows to the keyword-match
        // nodes keeps the slab at (matchers × touched roots). Neither call
        // invalidates probes memoized by earlier runs in this session.
        self.cache
            .set_entry_budget(self.opts.budget.max_cache_entries);
        self.cache
            .begin_query(self.spec.matchers_sorted().iter().copied());
        let before = self.cache.stats();
        let cached = CachedOracle::with_store(oracle, self.cache);
        // Sessions are !Sync and never re-enter a search from inside a
        // search, so the scratch borrow cannot conflict.
        let mut scratch = self.scratch.borrow_mut();
        let (answers, mut stats) =
            bnb_search_in(self.scorer, self.spec, &cached, self.opts, &mut scratch);
        stats.cache = Some(self.cache.stats().delta_since(&before));
        (answers, stats)
    }
}
