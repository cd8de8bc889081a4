use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use ci_storage::Database;

use crate::builder::EngineBuilder;
use crate::config::CiRankConfig;
use crate::snapshot::EngineSnapshot;
use crate::Result;

/// The CI-Rank search engine: an [`EngineSnapshot`] behind an `Arc`.
///
/// Build once per database, then query through sessions
/// ([`EngineSnapshot::session`]). The engine dereferences to its snapshot,
/// so every [`EngineSnapshot`] method is available directly; clone the
/// engine (or [`Engine::snapshot`]) to share the same immutable snapshot
/// across threads — it is `Send + Sync` and queries never block each
/// other. See the crate docs for an end-to-end example.
#[derive(Clone)]
pub struct Engine {
    snapshot: Arc<EngineSnapshot>,
}

// The façade must stay as shareable as the snapshot it wraps.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("snapshot", &*self.snapshot)
            .finish()
    }
}

impl Deref for Engine {
    type Target = EngineSnapshot;

    fn deref(&self) -> &EngineSnapshot {
        &self.snapshot
    }
}

impl From<EngineSnapshot> for Engine {
    fn from(snapshot: EngineSnapshot) -> Engine {
        Engine {
            snapshot: Arc::new(snapshot),
        }
    }
}

impl From<Arc<EngineSnapshot>> for Engine {
    fn from(snapshot: Arc<EngineSnapshot>) -> Engine {
        Engine { snapshot }
    }
}

impl Engine {
    /// Builds the engine through the staged pipeline: maps the database to
    /// the data graph, indexes the text, solves the random walk, computes
    /// the dampening vector, and constructs the configured distance index
    /// (see [`EngineBuilder`] for the stage-by-stage form, with
    /// build-progress callbacks).
    pub fn build(db: &Database, cfg: CiRankConfig) -> Result<Engine> {
        Ok(Engine::from(EngineBuilder::new(cfg).build(db)?))
    }

    /// The shared snapshot; clone the `Arc` to hand the same immutable
    /// view to another thread.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        &self.snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ImportanceMethod, IndexKind};
    use crate::error::CiRankError;
    use ci_graph::WeightConfig;
    use ci_storage::{schemas, Value};

    /// Two authors, two shared papers of very different citation counts
    /// — the paper's running example.
    fn tsimmis_db() -> Database {
        let (mut db, t) = schemas::dblp();
        let a1 = db
            .insert(t.author, vec![Value::text("Yannis Papakonstantinou")])
            .unwrap();
        let a2 = db
            .insert(t.author, vec![Value::text("Jeffrey Ullman")])
            .unwrap();
        let weak = db
            .insert(
                t.paper,
                vec![
                    Value::text("Capability Based Mediation in TSIMMIS"),
                    Value::int(1997),
                ],
            )
            .unwrap();
        let strong = db
            .insert(
                t.paper,
                vec![
                    Value::text(
                        "The TSIMMIS Project Integration of Heterogeneous Information Sources",
                    ),
                    Value::int(1995),
                ],
            )
            .unwrap();
        for p in [weak, strong] {
            db.link(t.author_paper, a1, p).unwrap();
            db.link(t.author_paper, a2, p).unwrap();
        }
        // Citations: 7 for the weak paper, 38 for the strong one.
        for i in 0..45 {
            let citing = db
                .insert(
                    t.paper,
                    vec![
                        Value::text(format!("citing paper {i}")),
                        Value::int(2000 + i),
                    ],
                )
                .unwrap();
            let target = if i < 7 { weak } else { strong };
            db.link(t.cites, citing, target).unwrap();
        }
        db
    }

    fn engine() -> Engine {
        Engine::build(
            &tsimmis_db(),
            CiRankConfig {
                weights: WeightConfig::dblp_default(),
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn tsimmis_example_ranks_the_cited_paper_first() {
        let e = engine();
        let answers = e.session().search("papakonstantinou ullman").unwrap();
        assert_eq!(answers.len(), 2, "two connecting papers");
        let top_paper = answers[0]
            .nodes
            .iter()
            .find(|n| n.relation == "paper")
            .expect("paper connects the authors");
        assert!(
            top_paper.text.contains("Heterogeneous"),
            "the 38-citation paper must rank first, got {:?}",
            top_paper.text
        );
        assert!(answers[0].score > answers[1].score);
    }

    #[test]
    fn empty_query_rejected() {
        let e = engine();
        assert_eq!(
            e.session().search("  ...  ").unwrap_err(),
            CiRankError::EmptyQuery
        );
    }

    #[test]
    fn empty_database_rejected() {
        let (db, _) = schemas::dblp();
        let err = Engine::build(&db, CiRankConfig::default()).unwrap_err();
        assert_eq!(err, CiRankError::EmptyDatabase);
    }

    #[test]
    fn unmatched_keyword_yields_no_answers() {
        let e = engine();
        let answers = e.session().search("papakonstantinou zzzzz").unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn naive_and_bnb_agree_end_to_end() {
        let e = engine();
        let session = e.session();
        let bnb = session.search("papakonstantinou ullman").unwrap();
        let (naive, stats) = session.search_naive("papakonstantinou ullman").unwrap();
        assert!(!stats.truncated());
        assert_eq!(bnb.len(), naive.len());
        for (a, b) in bnb.iter().zip(&naive) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn explain_breaks_down_the_score() {
        let e = engine();
        let answers = e.session().search("papakonstantinou ullman").unwrap();
        let report = e
            .explain("papakonstantinou ullman", &answers[0].tree)
            .unwrap();
        let sources = &report.explanation.sources;
        assert_eq!(sources.len(), 2, "two matchers in the answer");
        for s in sources {
            assert!(s.generation > 0.0);
            assert!(s.node_score > 0.0);
            assert!(s.node_score <= s.generation * 10.0);
        }
        for x in &report.explanation.nodes {
            assert!(x.importance > 0.0);
            assert!(x.dampening > 0.0 && x.dampening < 1.0);
        }
        // The tree score is exactly the mean of node scores — and the
        // report's score replays the ranked score bit for bit.
        let mean: f64 = sources.iter().map(|s| s.node_score).sum::<f64>() / sources.len() as f64;
        assert!((mean - answers[0].score).abs() < 1e-9);
        assert_eq!(report.score().to_bits(), answers[0].score.to_bits());
        // A tree with no matchers is not an answer and cannot be explained.
        let err = e.explain("zzzz qqqq", &answers[0].tree).unwrap_err();
        assert_eq!(err, crate::CiRankError::NotAnAnswer);
    }

    #[test]
    fn ranked_answers_display() {
        let e = engine();
        let answers = e.session().search("tsimmis").unwrap();
        assert!(!answers.is_empty());
        let s = answers[0].to_string();
        assert!(s.contains("paper"));
        assert!(s.starts_with('['));
    }

    #[test]
    fn index_kinds_agree() {
        for index in [
            IndexKind::None,
            IndexKind::Naive,
            IndexKind::Star { relations: None },
        ] {
            let e = Engine::build(
                &tsimmis_db(),
                CiRankConfig {
                    weights: WeightConfig::dblp_default(),
                    index,
                    ..Default::default()
                },
            )
            .unwrap();
            let answers = e.session().search("papakonstantinou ullman").unwrap();
            assert_eq!(answers.len(), 2);
            assert!(answers[0]
                .nodes
                .iter()
                .any(|n| n.text.contains("Heterogeneous")));
        }
    }

    #[test]
    fn personalized_importance_biases_results() {
        let db = tsimmis_db();
        let base = Engine::build(
            &db,
            CiRankConfig {
                weights: WeightConfig::dblp_default(),
                ..Default::default()
            },
        )
        .unwrap();
        // Bias all teleport mass onto the weak paper's node.
        let weak_node = base
            .graph()
            .nodes()
            .find(|&v| base.node_text(v).contains("Capability"))
            .unwrap();
        let mut u = vec![0.0; base.graph().node_count()];
        u[weak_node.idx()] = 1.0;
        let biased = Engine::build(
            &db,
            CiRankConfig {
                weights: WeightConfig::dblp_default(),
                importance: ImportanceMethod::Personalized(u),
                ..Default::default()
            },
        )
        .unwrap();
        let answers = biased.session().search("papakonstantinou ullman").unwrap();
        let top_paper = answers[0]
            .nodes
            .iter()
            .find(|n| n.relation == "paper")
            .unwrap();
        assert!(
            top_paper.text.contains("Capability"),
            "feedback bias flips the ranking"
        );
    }

    #[test]
    fn dampening_vector_shared_by_scorer_index_and_explain() {
        // The snapshot stores the dampening rates once; the scorer serves
        // them verbatim, a fresh on-demand scorer agrees bit-for-bit, and
        // explanations expose the same values.
        let e = engine();
        let stored = e.dampening_vector();
        assert_eq!(stored.len(), e.graph().node_count());
        let scorer = e.scorer();
        let fresh = ci_rwmp::Scorer::new(
            e.graph(),
            e.importance().values(),
            e.importance().min(),
            ci_rwmp::Dampening::Logarithmic {
                alpha: e.config().alpha,
                g: e.config().g,
            },
        );
        for v in e.graph().nodes() {
            assert_eq!(stored[v.idx()], scorer.dampening(v));
            assert_eq!(stored[v.idx()], fresh.dampening(v));
        }
        let answers = e.session().search("papakonstantinou ullman").unwrap();
        let report = e
            .explain("papakonstantinou ullman", &answers[0].tree)
            .unwrap();
        for x in &report.explanation.nodes {
            assert_eq!(x.dampening, stored[x.node.idx()]);
        }
    }

    #[test]
    fn query_spec_is_deterministic() {
        // Satellite of the snapshot refactor: matcher resolution sorts by
        // node id, so repeated resolution yields identical specs (the
        // HashMap it draws from has no iteration-order guarantee).
        let e = engine();
        let a = e.query_spec("papakonstantinou ullman tsimmis").unwrap();
        for _ in 0..10 {
            let b = e.query_spec("papakonstantinou ullman tsimmis").unwrap();
            assert_eq!(a.matchers_sorted(), b.matchers_sorted());
            assert_eq!(
                a.keywords(),
                b.keywords(),
                "keyword order is input order, not map order"
            );
        }
    }

    #[test]
    fn parse_query_enforces_the_keyword_cap() {
        // 32 distinct keywords pass; 33 trip TooManyKeywords (the u32
        // keyword-mask width, see ci_search::MAX_KEYWORDS).
        let e = engine();
        let q32 = (0..32)
            .map(|i| format!("kw{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(e.parse_query(&q32).unwrap().len(), 32);
        let q33 = (0..33)
            .map(|i| format!("kw{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(
            e.parse_query(&q33).unwrap_err(),
            CiRankError::TooManyKeywords(33)
        );
    }

    #[test]
    fn session_budget_truncates_but_stays_valid() {
        // An already-expired deadline must deterministically yield a
        // truncated (possibly empty) but valid result, never an error.
        let e = engine();
        let session = e
            .session()
            .with_budget(crate::QueryBudget::default().with_timeout(std::time::Duration::ZERO));
        let (answers, stats) = session
            .search_with_stats("papakonstantinou ullman")
            .unwrap();
        assert_eq!(
            stats.truncation,
            Some(crate::TruncationReason::Deadline),
            "expired deadline must be reported"
        );
        for a in &answers {
            assert!(a.score.is_finite());
            assert!(!a.nodes.is_empty());
        }
        // A generous budget returns the full answer set with no truncation.
        let generous = e
            .session()
            .with_budget(crate::QueryBudget::default().with_max_expansions(1_000_000));
        let (full, stats) = generous
            .search_with_stats("papakonstantinou ullman")
            .unwrap();
        assert!(stats.truncation.is_none());
        assert_eq!(full.len(), 2);
    }

    #[test]
    fn session_oracle_cache_fills_across_runs() {
        let e = engine();
        let session = e.session();
        assert!(session.oracle_cache().is_empty());
        session.search("papakonstantinou ullman").unwrap();
        let after_first = session.oracle_cache().len();
        assert!(after_first > 0, "bnb probes the oracle through the cache");
        // A repeat of the same query adds no new pairs.
        session.search("papakonstantinou ullman").unwrap();
        assert_eq!(session.oracle_cache().len(), after_first);
    }

    #[test]
    fn cloned_engines_share_one_snapshot() {
        let e = engine();
        let e2 = e.clone();
        assert!(Arc::ptr_eq(e.snapshot(), e2.snapshot()));
        assert_eq!(
            e.session().search("tsimmis").unwrap().len(),
            e2.session().search("tsimmis").unwrap().len()
        );
    }
}
