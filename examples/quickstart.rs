//! Quickstart: build a tiny bibliography, ask the paper's motivating
//! query, and see CI-Rank prefer the heavily cited connecting paper.
//!
//! ```text
//! cargo run --example quickstart
//! ```

// LINT-EXEMPT(example): examples are runnable documentation; panicking on
// unexpected states keeps them short and is the conventional idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, Engine};
use ci_storage::{schemas, Value};

fn main() {
    // 1. A DBLP-shaped database: two authors, two shared papers.
    let (mut db, t) = schemas::dblp();
    let papa = db
        .insert(t.author, vec![Value::text("Yannis Papakonstantinou")])
        .unwrap();
    let ullman = db
        .insert(t.author, vec![Value::text("Jeffrey Ullman")])
        .unwrap();

    let mediation = db
        .insert(
            t.paper,
            vec![
                Value::text("Capability Based Mediation in TSIMMIS"),
                Value::int(1997),
            ],
        )
        .unwrap();
    let project = db
        .insert(
            t.paper,
            vec![
                Value::text(
                    "The TSIMMIS Project: Integration of Heterogeneous Information Sources",
                ),
                Value::int(1995),
            ],
        )
        .unwrap();
    for p in [mediation, project] {
        db.link(t.author_paper, papa, p).unwrap();
        db.link(t.author_paper, ullman, p).unwrap();
    }

    // 2. Citations: 7 for the mediation paper, 38 for the project paper —
    //    the counts the paper quotes in §II-B.
    for i in 0..45 {
        let citer = db
            .insert(
                t.paper,
                vec![
                    Value::text(format!("follow-up paper {i}")),
                    Value::int(2000),
                ],
            )
            .unwrap();
        let target = if i < 7 { mediation } else { project };
        db.link(t.cites, citer, target).unwrap();
    }

    // 3. Build the engine with the paper's Table II weights and defaults
    //    (α = 0.15, g = 20, c = 0.15, D = 4).
    let engine = Engine::build(
        &db,
        CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        },
    )
    .expect("non-empty database");

    // 4. The motivating query.
    let answers = engine.session().search("Papakonstantinou Ullman").unwrap();
    println!(
        "query: \"Papakonstantinou Ullman\" — {} answers\n",
        answers.len()
    );
    for (i, a) in answers.iter().enumerate() {
        println!("#{}  {a}", i + 1);
    }
    println!("\nCI-Rank ranks the 38-citation TSIMMIS Project paper first;");
    println!("an IR-style ranker cannot tell the two connecting papers apart.");

    assert!(answers[0]
        .nodes
        .iter()
        .any(|n| n.text.contains("Heterogeneous")));
}
