//! User-feedback biasing (§VI-A): click feedback flows into a personalized
//! teleportation vector, changing the random-walk importance and hence the
//! ranking — the mechanism the paper drives with its labeled AOL queries.
//!
//! ```text
//! cargo run --example user_feedback
//! ```

// LINT-EXEMPT(example): examples are runnable documentation; panicking on
// unexpected states keeps them short and is the conventional idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use ci_graph::WeightConfig;
use ci_rank::feedback::FeedbackLog;
use ci_rank::{CiRankConfig, Engine, ImportanceMethod};
use ci_storage::{schemas, Value};

fn main() {
    // Two authors with two symmetric joint papers.
    let (mut db, t) = schemas::dblp();
    let a1 = db
        .insert(t.author, vec![Value::text("ramona ashcombe")])
        .unwrap();
    let a2 = db
        .insert(t.author, vec![Value::text("wendel foxworth")])
        .unwrap();
    let survey = db
        .insert(
            t.paper,
            vec![Value::text("a survey of keyword search"), Value::int(2008)],
        )
        .unwrap();
    let demo = db
        .insert(
            t.paper,
            vec![Value::text("a demo of keyword search"), Value::int(2009)],
        )
        .unwrap();
    for p in [survey, demo] {
        db.link(t.author_paper, a1, p).unwrap();
        db.link(t.author_paper, a2, p).unwrap();
    }

    let cfg = CiRankConfig {
        weights: WeightConfig::dblp_default(),
        ..Default::default()
    };
    let base = Engine::build(&db, cfg.clone()).unwrap();

    println!("before feedback:");
    for a in base.session().search("ashcombe foxworth").unwrap() {
        println!("  {a}");
    }

    // Users repeatedly click the answer containing the survey paper.
    let mut log = FeedbackLog::new();
    log.record_answer(&[a1, survey, a2], 4.0);

    let biased = Engine::build(
        &db,
        CiRankConfig {
            importance: ImportanceMethod::Personalized(log.teleport_vector(&base)),
            ..cfg
        },
    )
    .unwrap();

    println!("\nafter {} clicks of feedback on the survey answer:", 4);
    let answers = biased.session().search("ashcombe foxworth").unwrap();
    for a in &answers {
        println!("  {a}");
    }
    assert!(answers[0].nodes.iter().any(|n| n.text.contains("survey")));
    println!("\nthe clicked answer now ranks first.");
}
