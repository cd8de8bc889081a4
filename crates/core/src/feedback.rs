//! User-feedback biasing (§VI-A of the paper).
//!
//! The paper labels 29,078 frequent AOL queries and uses them "as user
//! feedback to bias the CI-RANK model". This module implements that
//! mechanism: click/selection feedback accumulates into a personalized
//! teleportation vector, so frequently selected tuples (and, through the
//! random walk, their neighborhoods) gain importance.
//!
//! ```
//! use ci_rank::feedback::FeedbackLog;
//! use ci_rank::{CiRankConfig, Engine, ImportanceMethod};
//! use ci_graph::WeightConfig;
//! use ci_storage::{schemas, Value};
//!
//! let (mut db, t) = schemas::dblp();
//! let a = db.insert(t.author, vec![Value::text("ada crane")]).unwrap();
//! let p = db.insert(t.paper, vec![Value::text("note"), Value::int(2001)]).unwrap();
//! db.link(t.author_paper, a, p).unwrap();
//!
//! let base = Engine::build(&db, CiRankConfig {
//!     weights: WeightConfig::dblp_default(),
//!     ..Default::default()
//! }).unwrap();
//!
//! let mut log = FeedbackLog::new();
//! log.record_click(p, 3.0); // the paper tuple was selected three times
//! let teleport = log.teleport_vector(&base);
//!
//! let biased = Engine::build(&db, CiRankConfig {
//!     weights: WeightConfig::dblp_default(),
//!     importance: ImportanceMethod::Personalized(teleport),
//!     ..Default::default()
//! }).unwrap();
//! assert!(biased.importance().get(ci_graph::NodeId(1)) > 0.0);
//! ```

use std::collections::HashMap;

use ci_storage::TupleId;

use crate::engine::Engine;

/// Accumulated user feedback: per-tuple selection weight.
#[derive(Debug, Clone, Default)]
pub struct FeedbackLog {
    clicks: HashMap<TupleId, f64>,
}

impl FeedbackLog {
    /// An empty log.
    pub fn new() -> Self {
        FeedbackLog::default()
    }

    /// Records that a tuple was selected (clicked) with the given weight —
    /// e.g. the query's frequency in the log.
    pub fn record_click(&mut self, tuple: TupleId, weight: f64) {
        assert!(weight > 0.0, "feedback weight must be positive");
        *self.clicks.entry(tuple).or_insert(0.0) += weight;
    }

    /// Records a whole labeled query: every tuple of the selected best
    /// answer gets the query's weight.
    pub fn record_answer(&mut self, tuples: &[TupleId], weight: f64) {
        for &t in tuples {
            self.record_click(t, weight);
        }
    }

    /// Total accumulated weight.
    pub fn total(&self) -> f64 {
        self.clicks.values().sum()
    }

    /// Number of distinct tuples with feedback.
    pub fn len(&self) -> usize {
        self.clicks.len()
    }

    /// True if no feedback was recorded.
    pub fn is_empty(&self) -> bool {
        self.clicks.is_empty()
    }

    /// Converts the log into a teleportation vector over the engine's
    /// graph nodes (merged nodes accumulate the feedback of all their
    /// tuples). Pass the result to
    /// [`crate::ImportanceMethod::Personalized`] and rebuild the engine;
    /// the personalized walk mixes in a uniform floor, so unclicked nodes
    /// keep positive importance.
    pub fn teleport_vector(&self, engine: &Engine) -> Vec<f64> {
        let graph = engine.graph();
        let mut u = vec![0.0; graph.node_count()];
        for v in graph.nodes() {
            for t in graph.tuples(v) {
                if let Some(&w) = self.clicks.get(t) {
                    if let Some(slot) = u.get_mut(v.idx()) {
                        *slot += w;
                    }
                }
            }
        }
        if u.iter().all(|&x| x == 0.0) {
            // No feedback matched the graph: fall back to uniform.
            u.fill(1.0);
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CiRankConfig, Engine, ImportanceMethod};
    use ci_graph::WeightConfig;
    use ci_storage::{schemas, Value};

    fn two_paper_db() -> (ci_storage::Database, TupleId, TupleId) {
        let (mut db, t) = schemas::dblp();
        let a1 = db.insert(t.author, vec![Value::text("ada crane")]).unwrap();
        let a2 = db.insert(t.author, vec![Value::text("bo quill")]).unwrap();
        let p1 = db
            .insert(t.paper, vec![Value::text("first option"), Value::int(2001)])
            .unwrap();
        let p2 = db
            .insert(
                t.paper,
                vec![Value::text("second option"), Value::int(2002)],
            )
            .unwrap();
        for p in [p1, p2] {
            db.link(t.author_paper, a1, p).unwrap();
            db.link(t.author_paper, a2, p).unwrap();
        }
        (db, p1, p2)
    }

    #[test]
    fn feedback_flips_a_tied_ranking() {
        let (db, p1, p2) = two_paper_db();
        let cfg = CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        };
        let base = Engine::build(&db, cfg.clone()).unwrap();

        // Without feedback the two connecting papers are symmetric.
        let answers = base.session().search("crane quill").unwrap();
        assert_eq!(answers.len(), 2);
        assert!((answers[0].score - answers[1].score).abs() < 1e-9);

        // Clicks on p1 bias the walk toward it.
        let mut log = FeedbackLog::new();
        log.record_click(p1, 5.0);
        let teleport = log.teleport_vector(&base);
        let biased = Engine::build(
            &db,
            CiRankConfig {
                importance: ImportanceMethod::Personalized(teleport),
                ..cfg
            },
        )
        .unwrap();
        let answers = biased.session().search("crane quill").unwrap();
        assert!(answers[0].nodes.iter().any(|n| n.text.contains("first")));
        assert!(answers[0].score > answers[1].score);
        let _ = p2;
    }

    #[test]
    fn record_answer_spreads_weight() {
        let (db, p1, _) = two_paper_db();
        let cfg = CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        };
        let base = Engine::build(&db, cfg).unwrap();
        let mut log = FeedbackLog::new();
        log.record_answer(&[p1, TupleId::new(p1.table, 99)], 2.0);
        assert_eq!(log.len(), 2);
        assert_eq!(log.total(), 4.0);
        // Unknown tuples are ignored when projecting onto the graph.
        let u = log.teleport_vector(&base);
        assert_eq!(u.iter().filter(|&&x| x > 0.0).count(), 1);
    }

    #[test]
    fn empty_log_falls_back_to_uniform() {
        let (db, _, _) = two_paper_db();
        let cfg = CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        };
        let base = Engine::build(&db, cfg).unwrap();
        let log = FeedbackLog::new();
        assert!(log.is_empty());
        let u = log.teleport_vector(&base);
        assert!(u.iter().all(|&x| x == 1.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        FeedbackLog::new().record_click(TupleId::new(ci_storage::TableId(0), 0), 0.0);
    }
}
