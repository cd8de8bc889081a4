//! The paper's two motivating examples (§I–II), end to end through the
//! public API:
//!
//! * "Papakonstantinou Ullman" — CI-Rank must rank the heavily cited
//!   TSIMMIS paper first while DISCOVER2 ties the two answers and SPARK
//!   prefers the shorter title;
//! * "Bloom Wood Mortensen" — CI-Rank must pick the popular movie as the
//!   free connector while BANKS ties the movies.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, Engine, Ranker};
use ci_storage::{schemas, Database, Value};

fn tsimmis_db() -> Database {
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
                Value::text("The TSIMMIS Project Integration of Heterogeneous Information Sources"),
                Value::int(1995),
            ],
        )
        .unwrap();
    for p in [mediation, project] {
        db.link(t.author_paper, papa, p).unwrap();
        db.link(t.author_paper, ullman, p).unwrap();
    }
    // Citation counts from §II-B: 7 vs 38.
    for i in 0..45 {
        let c = db
            .insert(
                t.paper,
                vec![Value::text(format!("citer number {i}")), Value::int(2005)],
            )
            .unwrap();
        db.link(t.cites, c, if i < 7 { mediation } else { project })
            .unwrap();
    }
    db
}

#[test]
fn tsimmis_example_all_rankers() {
    let db = tsimmis_db();
    let engine = Engine::build(
        &db,
        CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        },
    )
    .unwrap();
    let query = "papakonstantinou ullman";
    let session = engine.session();
    let pool = session.candidate_pool(query, 10).unwrap();
    assert_eq!(pool.len(), 2);

    // CI-Rank: the 38-citation paper wins.
    let ci = session.rank(query, &pool, Ranker::CiRank).unwrap();
    assert!(ci[0].nodes.iter().any(|n| n.text.contains("Heterogeneous")));
    assert!(ci[0].score > ci[1].score);

    // DISCOVER2: a tie — the free paper nodes contribute nothing.
    let d2 = session.rank(query, &pool, Ranker::Discover2).unwrap();
    assert!(
        (d2[0].score - d2[1].score).abs() < 1e-9,
        "DISCOVER2 must tie: {} vs {}",
        d2[0].score,
        d2[1].score
    );

    // SPARK: the shorter-titled (less important) paper wins — the flaw.
    let spark = session.rank(query, &pool, Ranker::Spark).unwrap();
    assert!(
        spark[0].nodes.iter().any(|n| n.text.contains("Mediation")),
        "SPARK prefers the shorter title"
    );
}

#[test]
fn costar_example_banks_vs_ci() {
    let (mut db, t) = schemas::imdb();
    let trio: Vec<_> = ["orlan bloomfield", "elia woodward", "vigo mortenhall"]
        .iter()
        .map(|n| db.insert(t.actor, vec![Value::text(*n)]).unwrap())
        .collect();
    let hit = db
        .insert(
            t.movie,
            vec![Value::text("the golden voyage"), Value::int(2001)],
        )
        .unwrap();
    let flop = db
        .insert(
            t.movie,
            vec![Value::text("the hollow orchard"), Value::int(1999)],
        )
        .unwrap();
    for &a in &trio {
        db.link(t.actor_movie, a, hit).unwrap();
        db.link(t.actor_movie, a, flop).unwrap();
    }
    // Popularity for the hit: many extra credits.
    for i in 0..30 {
        let extra = db
            .insert(
                t.actress,
                vec![Value::text(format!("supporting player {i}"))],
            )
            .unwrap();
        db.link(t.actress_movie, extra, hit).unwrap();
    }

    let engine = Engine::build(
        &db,
        CiRankConfig {
            weights: WeightConfig::imdb_default(),
            ..Default::default()
        },
    )
    .unwrap();
    let query = "bloomfield woodward mortenhall";
    let session = engine.session();
    let pool = session.candidate_pool(query, 10).unwrap();
    assert!(pool.len() >= 2, "both movies connect the trio");

    let ci = session.rank(query, &pool, Ranker::CiRank).unwrap();
    assert!(
        ci[0].nodes.iter().any(|n| n.text.contains("golden")),
        "CI-Rank picks the popular movie"
    );

    // BANKS only scores root + leaves: the two star answers (movie as the
    // interior connector) are indistinguishable up to prestige of the
    // *leaves*, which are identical. Find the two 4-node star answers.
    let banks = session.rank(query, &pool, Ranker::Banks).unwrap();
    let stars: Vec<_> = banks
        .iter()
        .filter(|a| a.tree.size() == 4 && a.nodes.iter().any(|n| n.relation == "movie"))
        .collect();
    assert!(stars.len() >= 2);
    assert!(
        (stars[0].score - stars[1].score).abs() < 1e-9,
        "BANKS ties the two movies: {} vs {}",
        stars[0].score,
        stars[1].score
    );
}
