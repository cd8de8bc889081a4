//! The "Bloom Wood Mortensen" scenario of §II-B.2 on a generated IMDB
//! database: a three-keyword query whose answers differ only in the free
//! movie node connecting the three actors. CI-Rank favours the popular
//! movie; BANKS cannot tell the movies apart.
//!
//! ```text
//! cargo run --example imdb_costars
//! ```

// LINT-EXEMPT(example): examples are runnable documentation; panicking on
// unexpected states keeps them short and is the conventional idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use ci_datagen::{generate_imdb, ImdbConfig};
use ci_graph::{MergeSpec, WeightConfig};
use ci_rank::{CiRankConfig, Engine, Ranker};
use ci_storage::{TupleId, Value};

fn main() {
    // A synthetic IMDB database, plus a hand-crafted trio of co-stars who
    // appear together in two movies of very different popularity.
    let mut data = generate_imdb(ImdbConfig {
        movies: 150,
        actors: 100,
        actresses: 70,
        ..Default::default()
    });
    let t = data.tables;
    let db = &mut data.db;

    let trio: Vec<TupleId> = ["orson bramble", "elwin woodgate", "viggo morland"]
        .iter()
        .map(|name| db.insert(t.actor, vec![Value::text(*name)]).unwrap())
        .collect();
    let hit = db
        .insert(
            t.movie,
            vec![Value::text("the fellowship saga"), Value::int(2001)],
        )
        .unwrap();
    let flop = db
        .insert(
            t.movie,
            vec![Value::text("the forgotten reel"), Value::int(1999)],
        )
        .unwrap();
    for &a in &trio {
        db.link(t.actor_movie, a, hit).unwrap();
        db.link(t.actor_movie, a, flop).unwrap();
    }
    // The hit movie is popular: many other credits point at it.
    for row in 0..db.row_count(t.actress).unwrap().min(40) {
        let extra = TupleId::new(t.actress, row as u32);
        db.link(t.actress_movie, extra, hit).unwrap();
    }

    let engine = Engine::build(
        &data.db,
        CiRankConfig {
            weights: WeightConfig::imdb_default(),
            merge: Some(MergeSpec::over(vec![
                t.actor, t.actress, t.director, t.producer,
            ])),
            diameter: 4,
            ..Default::default()
        },
    )
    .unwrap();

    let query = "bramble woodgate morland";
    println!("query: {query:?}\n");

    let session = engine.session();
    println!("— CI-Rank —");
    let ci = session.search(query).unwrap();
    for (i, a) in ci.iter().take(3).enumerate() {
        println!("#{} {a}", i + 1);
    }

    println!("\n— BANKS (same candidate pool) —");
    let pool = session.candidate_pool(query, 10).unwrap();
    let banks = session.rank(query, &pool, Ranker::Banks).unwrap();
    for (i, a) in banks.iter().take(3).enumerate() {
        println!("#{} {a}", i + 1);
    }

    let top_movie = ci[0].nodes.iter().find(|n| n.relation == "movie").unwrap();
    println!(
        "\nCI-Rank connects the trio through {:?} (the popular movie).",
        top_movie.text
    );
    assert!(top_movie.text.contains("fellowship"));
}
