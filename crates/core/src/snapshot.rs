use std::fmt;

use ci_baselines::BanksPrestige;
use ci_graph::{Graph, NodeId};
use ci_index::{DistIndex, OracleVisitor};
use ci_rwmp::{Dampening, Jtt, Scorer};
use ci_search::{Answer, QuerySpec, SearchStats, MAX_KEYWORDS};
use ci_text::{tokenize, InvertedIndex};
use ci_walk::Importance;

use crate::config::CiRankConfig;
use crate::error::CiRankError;
use crate::explain::ExplainReport;
use crate::metrics::MetricsRegistry;
use crate::session::QuerySession;
use crate::Result;

/// One node of a ranked answer, with display metadata.
#[derive(Debug, Clone)]
pub struct AnswerNode {
    /// The graph node.
    pub node: NodeId,
    /// Name of the node's relation (table).
    pub relation: String,
    /// The node's text.
    pub text: String,
    /// True if the node matches a query keyword (non-free).
    pub is_matcher: bool,
}

/// A scored query answer with human-readable node payloads.
#[derive(Debug, Clone)]
pub struct RankedAnswer {
    /// Ranking score (higher is better). The scale depends on the ranker.
    pub score: f64,
    /// The underlying joined tuple tree.
    pub tree: Jtt,
    /// Node payloads, aligned with `tree` positions.
    pub nodes: Vec<AnswerNode>,
}

impl fmt::Display for RankedAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.4}]", self.score)?;
        for (i, n) in self.nodes.iter().enumerate() {
            let marker = if n.is_matcher { "*" } else { "" };
            if i > 0 {
                write!(f, " —")?;
            }
            write!(f, " {}{}:{:?}", marker, n.relation, n.text)?;
        }
        Ok(())
    }
}

/// An immutable, query-ready view of one database: the data graph, text
/// index, importance and prestige vectors, the precomputed dampening
/// rates, and the configured distance index.
///
/// Snapshots are produced by [`crate::EngineBuilder`]'s staged pipeline,
/// never mutated afterwards, and are `Send + Sync` — wrap one in an
/// [`std::sync::Arc`] and serve queries from as many threads as you like.
/// Queries run through a [`QuerySession`], opened per thread with
/// [`EngineSnapshot::session`]; it holds the per-query mutable state
/// (options, budget, oracle cache, search scratch).
pub struct EngineSnapshot {
    cfg: CiRankConfig,
    graph: Graph,
    text: InvertedIndex,
    importance: Importance,
    prestige: BanksPrestige,
    /// Per-node dampening rates (Eq. 2), computed once at build time and
    /// shared by the scorer, the distance index build, and `explain`.
    damp: Vec<f64>,
    dist: DistIndex,
    node_text: Vec<String>,
    relation_names: Vec<String>,
    /// Cumulative serving counters, fed by every [`QuerySession`] over
    /// this snapshot (relaxed atomics — see [`MetricsRegistry`]).
    metrics: MetricsRegistry,
}

// Compile-time proof that snapshots can be shared across threads; the
// concurrency integration test exercises this at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSnapshot>();
};

impl fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .field("terms", &self.text.term_count())
            .field("index", &self.dist.kind())
            .finish()
    }
}

impl EngineSnapshot {
    /// Final assembly from the builder's stage outputs.
    #[allow(clippy::too_many_arguments)] // one argument per pipeline stage
    pub(crate) fn assemble(
        cfg: CiRankConfig,
        graph: Graph,
        text: InvertedIndex,
        importance: Importance,
        prestige: BanksPrestige,
        damp: Vec<f64>,
        dist: DistIndex,
        node_text: Vec<String>,
        relation_names: Vec<String>,
    ) -> EngineSnapshot {
        debug_assert_eq!(damp.len(), graph.node_count());
        EngineSnapshot {
            cfg,
            graph,
            text,
            importance,
            prestige,
            damp,
            dist,
            node_text,
            relation_names,
            metrics: MetricsRegistry::new(),
        }
    }

    /// The snapshot's configuration.
    pub fn config(&self) -> &CiRankConfig {
        &self.cfg
    }

    /// The data graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Node importance values.
    pub fn importance(&self) -> &Importance {
        &self.importance
    }

    /// The inverted text index.
    pub fn text_index(&self) -> &InvertedIndex {
        &self.text
    }

    /// BANKS node prestige.
    pub(crate) fn prestige(&self) -> &BanksPrestige {
        &self.prestige
    }

    /// The precomputed per-node dampening rates (Eq. 2).
    pub fn dampening_vector(&self) -> &[f64] {
        &self.damp
    }

    /// The distance index backing the search.
    pub fn dist_index(&self) -> &DistIndex {
        &self.dist
    }

    /// The snapshot's serving metrics: cumulative counters over every
    /// query any session has run against it. Read with
    /// [`MetricsRegistry::snapshot`]; safe to call from any thread.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The concatenated text of one graph node.
    pub fn node_text(&self, v: NodeId) -> &str {
        self.node_text.get(v.idx()).map_or("", String::as_str)
    }

    /// Display name of a node's relation (table).
    pub(crate) fn relation_name(&self, v: NodeId) -> String {
        self.relation_names
            .get(self.graph.relation(v) as usize)
            .cloned()
            .unwrap_or_else(|| format!("rel{}", self.graph.relation(v)))
    }

    /// The RWMP scorer over this snapshot's graph and importance, reading
    /// the snapshot's precomputed dampening vector.
    pub fn scorer(&self) -> Scorer<'_> {
        Scorer::with_dampening_vector(
            &self.graph,
            self.importance.values(),
            self.importance.min(),
            Dampening::Logarithmic {
                alpha: self.cfg.alpha,
                g: self.cfg.g,
            },
            &self.damp,
        )
    }

    /// Resolves the distance index to a concretely-typed oracle and hands
    /// it to the visitor — the single `match` over index kinds on the
    /// query path (everything past it is monomorphized).
    pub fn with_oracle<V: OracleVisitor>(&self, visitor: V) -> V::Output {
        self.dist.with_oracle(&self.graph, visitor)
    }

    /// Opens a query session: per-query budget and oracle cache over this
    /// snapshot. Sessions are cheap; create one per thread or per query.
    pub fn session(&self) -> QuerySession<'_> {
        QuerySession::new(self)
    }

    /// Parses a query string into distinct keyword tokens.
    pub fn parse_query(&self, query: &str) -> Result<Vec<String>> {
        let mut keywords: Vec<String> = Vec::new();
        for tok in tokenize(query) {
            if !keywords.contains(&tok) {
                keywords.push(tok);
            }
        }
        if keywords.is_empty() {
            return Err(CiRankError::EmptyQuery);
        }
        if keywords.len() > MAX_KEYWORDS {
            return Err(CiRankError::TooManyKeywords(keywords.len()));
        }
        Ok(keywords)
    }

    /// Resolves a query string against the text index.
    ///
    /// Matches are sorted by node id before the spec is built, so the
    /// resulting spec — and therefore tie-broken answer order — is
    /// deterministic regardless of hash-map iteration order.
    pub fn query_spec(&self, query: &str) -> Result<QuerySpec> {
        let keywords = self.parse_query(query)?;
        let scorer = self.scorer();
        let mut masks: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for (k, kw) in keywords.iter().enumerate() {
            for doc in self.text.matching_docs(kw) {
                *masks.entry(doc).or_insert(0) |= 1 << k;
            }
        }
        let mut matches: Vec<(NodeId, u32, u32)> = masks
            .into_iter()
            .map(|(doc, mask)| (NodeId(doc), mask, self.text.doc_len(doc).max(1)))
            .collect();
        matches.sort_unstable_by_key(|&(v, _, _)| v.0);
        Ok(QuerySpec::from_matches(&scorer, keywords, matches))
    }

    /// Branch-and-bound top-k on a fresh session —
    /// `self.session().search_with_stats(query)`. Callers running more
    /// than one query hold a [`QuerySession`] instead, which keeps its
    /// oracle cache and search scratch warm.
    pub fn search_with_stats(&self, query: &str) -> Result<(Vec<RankedAnswer>, SearchStats)> {
        self.session().search_with_stats(query)
    }

    /// Explains an answer's RWMP score: the full Eqs. 2–4 decomposition
    /// (per-source generation counts, hop-dampened flows into every tree
    /// node, the Eq. 3 minimum and its arg-min source, the Eq. 4 mean)
    /// paired with display metadata. The report's score is bit-identical
    /// to the score the search ranked the answer by; render it with
    /// [`ExplainReport::render`] (the `cirank explain` subcommand).
    ///
    /// Errors with [`CiRankError::NotAnAnswer`] when `tree` contains no
    /// node matching the query.
    pub fn explain(&self, query: &str, tree: &Jtt) -> Result<ExplainReport> {
        let spec = self.query_spec(query)?;
        let scorer = self.scorer();
        let explanation =
            ci_search::explain_answer(&scorer, &spec, tree).ok_or(CiRankError::NotAnAnswer)?;
        Ok(ExplainReport {
            explanation,
            nodes: self.answer_nodes(&spec, tree),
            keywords: spec.keywords().to_vec(),
        })
    }

    pub(crate) fn to_ranked(&self, spec: &QuerySpec, answer: Answer) -> RankedAnswer {
        RankedAnswer {
            nodes: self.answer_nodes(spec, &answer.tree),
            score: answer.score,
            tree: answer.tree,
        }
    }

    /// Display metadata of every node of `tree`, in tree position order.
    fn answer_nodes(&self, spec: &QuerySpec, tree: &Jtt) -> Vec<AnswerNode> {
        tree.nodes()
            .iter()
            .map(|&v| AnswerNode {
                node: v,
                relation: self.relation_name(v),
                text: self.node_text(v).to_owned(),
                is_matcher: spec.matcher(v).is_some(),
            })
            .collect()
    }
}
