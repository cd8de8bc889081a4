//! Bring your own schema: the engine is not tied to the paper's DBLP/IMDB
//! shapes. This example models a small music catalogue (artists, albums,
//! playlists) and searches it — including a custom Table-II-style weight
//! configuration and a person merge across roles.
//!
//! ```text
//! cargo run --example custom_schema
//! ```

// LINT-EXEMPT(example): examples are runnable documentation; panicking on
// unexpected states keeps them short and is the conventional idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use ci_graph::{MergeSpec, WeightConfig};
use ci_rank::{CiRankConfig, Engine};
use ci_storage::{Database, TableSchema, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Schema: artist —< album >— playlist, plus producer credits.
    let mut db = Database::new();
    let artist = db.add_table(TableSchema::new("artist").text_column("name"))?;
    let producer = db.add_table(TableSchema::new("producer").text_column("name"))?;
    let album = db.add_table(
        TableSchema::new("album")
            .text_column("title")
            .int_column("year"),
    )?;
    let playlist = db.add_table(TableSchema::new("playlist").text_column("name"))?;
    let performs = db.add_link(artist, album, "performs_on").unwrap();
    let produced = db.add_link(producer, album, "produced").unwrap();
    let features = db.add_link(playlist, album, "features").unwrap();

    // 2. Data: two artists with two joint albums of different popularity.
    let nova = db.insert(artist, vec![Value::text("lena nova")]).unwrap();
    let marsh = db.insert(artist, vec![Value::text("teo marsh")]).unwrap();
    let hit = db
        .insert(
            album,
            vec![Value::text("midnight circuit"), Value::int(2019)],
        )
        .unwrap();
    let obscure = db
        .insert(album, vec![Value::text("early sketches"), Value::int(2011)])
        .unwrap();
    for a in [hit, obscure] {
        db.link(performs, nova, a).unwrap();
        db.link(performs, marsh, a).unwrap();
    }
    // The hit album sits on many playlists — that is its importance signal.
    for i in 0..12 {
        let p = db
            .insert(playlist, vec![Value::text(format!("mix tape {i}"))])
            .unwrap();
        db.link(features, p, hit).unwrap();
    }
    // "lena nova" also produced the hit album (same person, second role —
    // exercised by the person merge below).
    let nova_producer = db.insert(producer, vec![Value::text("lena nova")]).unwrap();
    db.link(produced, nova_producer, hit).unwrap();

    // 3. Weights: playlist links are weak signals, credits strong.
    let mut weights = WeightConfig::uniform();
    weights.set("performs_on", 1.0, 1.0);
    weights.set("produced", 0.7, 0.7);
    weights.set("features", 0.3, 0.3);

    let engine = Engine::build(
        &db,
        CiRankConfig {
            weights,
            merge: Some(MergeSpec::over(vec![artist, producer])),
            ..Default::default()
        },
    )
    .unwrap();

    // 4. Search: which album connects the two artists?
    let answers = engine.session().search("nova marsh").unwrap();
    println!("query: \"nova marsh\"\n");
    for (i, a) in answers.iter().enumerate() {
        println!("#{} {a}", i + 1);
    }
    assert!(answers[0].nodes.iter().any(|n| n.text.contains("midnight")));
    println!("\nthe playlist-backed album wins — collective importance at work.");

    // 5. The merged person node carries both roles.
    let merged = engine
        .graph()
        .nodes()
        .find(|&v| engine.graph().tuples(v).len() == 2)
        .expect("lena nova merged across artist and producer roles");
    println!(
        "merged node {merged}: {:?} ({} tuples)",
        engine.node_text(merged),
        engine.graph().tuples(merged).len()
    );
    Ok(())
}
