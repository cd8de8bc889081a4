//! Table I — the four qualitative benefits of the RWMP model, each
//! verified on a purpose-built micro-database.
//!
//! | # | Characteristic | Effect |
//! |---|----------------|--------|
//! | 1 | source messages ∝ importance | important non-free nodes favored |
//! | 2 | dampening per traversed node | smaller trees preferred |
//! | 3 | dampening monotone in importance | important free connectors preferred |
//! | 4 | score not dominated by free nodes | free-node domination avoided |

use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, Engine};
use ci_storage::{schemas, Database, Value};

use crate::table::Table;

/// Verifies every property; each row reports the two compared scores and
/// whether the paper's claimed effect holds.
pub fn run() -> Table {
    let mut table = Table::new(
        "table1",
        "Benefits of the RWMP model",
        vec!["property", "favored_score", "other_score", "holds"],
    );
    type PropertyCheck = fn() -> (f64, f64);
    let checks: [(&str, PropertyCheck); 4] = [
        ("1: important non-free nodes favored", property1),
        ("2: smaller trees preferred", property2),
        ("3: important free connectors preferred", property3),
        ("4: free-node domination avoided", property4),
    ];
    for (name, f) in checks {
        let (favored, other) = f();
        table.push_row(vec![
            name.to_string(),
            format!("{favored:.5}"),
            format!("{other:.5}"),
            (favored > other).to_string(),
        ]);
    }
    table
}

fn dblp_engine(db: &Database) -> Engine {
    Engine::build(
        db,
        CiRankConfig {
            weights: WeightConfig::dblp_default(),
            index: ci_rank::IndexKind::None,
            ..Default::default()
        },
    )
    .expect("non-empty database")
}

/// Property 1: two single-node answers; the more-cited paper must rank
/// higher because it generates more messages.
fn property1() -> (f64, f64) {
    let (mut db, t) = schemas::dblp();
    let strong = db
        .insert(
            t.paper,
            vec![Value::text("keyword search survey"), Value::int(2005)],
        )
        .unwrap();
    let weak = db
        .insert(
            t.paper,
            vec![Value::text("keyword search note"), Value::int(2006)],
        )
        .unwrap();
    for i in 0..12 {
        let c = db
            .insert(
                t.paper,
                vec![Value::text(format!("citer {i}")), Value::int(2010)],
            )
            .unwrap();
        db.link(t.cites, c, strong).unwrap();
    }
    let e = dblp_engine(&db);
    let answers = e.session().search("keyword search").unwrap();
    let score_of = |needle: &str| {
        answers
            .iter()
            .find(|a| a.nodes.iter().any(|n| n.text.contains(needle)))
            .map(|a| a.score)
            .unwrap_or(0.0)
    };
    let _ = weak;
    (score_of("survey"), score_of("note"))
}

/// Property 2: the same two authors connected by a single shared paper or
/// by a two-paper citation chain; the smaller tree must win.
fn property2() -> (f64, f64) {
    let (mut db, t) = schemas::dblp();
    let a1 = db
        .insert(t.author, vec![Value::text("alba crane")])
        .unwrap();
    let a2 = db
        .insert(t.author, vec![Value::text("bruno quill")])
        .unwrap();
    // Direct: both author the same paper.
    let direct = db
        .insert(t.paper, vec![Value::text("joint work"), Value::int(2001)])
        .unwrap();
    db.link(t.author_paper, a1, direct).unwrap();
    db.link(t.author_paper, a2, direct).unwrap();
    // Long: a1's solo paper cites a2's solo paper.
    let p1 = db
        .insert(t.paper, vec![Value::text("solo one"), Value::int(2002)])
        .unwrap();
    let p2 = db
        .insert(t.paper, vec![Value::text("solo two"), Value::int(2000)])
        .unwrap();
    db.link(t.author_paper, a1, p1).unwrap();
    db.link(t.author_paper, a2, p2).unwrap();
    db.link(t.cites, p1, p2).unwrap();
    let e = dblp_engine(&db);
    let answers = e.session().search("crane quill").unwrap();
    let small = answers
        .iter()
        .find(|a| a.tree.size() == 3)
        .map(|a| a.score)
        .unwrap_or(0.0);
    let large = answers
        .iter()
        .find(|a| a.tree.size() == 4)
        .map(|a| a.score)
        .unwrap_or(0.0);
    (small, large)
}

/// Property 3: two co-author pairs joined by connector papers of very
/// different citation counts; the tree through the cited connector wins.
fn property3() -> (f64, f64) {
    let (mut db, t) = schemas::dblp();
    let a1 = db
        .insert(t.author, vec![Value::text("alba crane")])
        .unwrap();
    let a2 = db
        .insert(t.author, vec![Value::text("bruno quill")])
        .unwrap();
    let famous = db
        .insert(
            t.paper,
            vec![Value::text("famous connector"), Value::int(1995)],
        )
        .unwrap();
    let obscure = db
        .insert(
            t.paper,
            vec![Value::text("obscure connector"), Value::int(1996)],
        )
        .unwrap();
    for p in [famous, obscure] {
        db.link(t.author_paper, a1, p).unwrap();
        db.link(t.author_paper, a2, p).unwrap();
    }
    for i in 0..15 {
        let c = db
            .insert(
                t.paper,
                vec![Value::text(format!("citer {i}")), Value::int(2010)],
            )
            .unwrap();
        db.link(t.cites, c, famous).unwrap();
    }
    let e = dblp_engine(&db);
    let answers = e.session().search("crane quill").unwrap();
    let score_of = |needle: &str| {
        answers
            .iter()
            .find(|a| a.nodes.iter().any(|n| n.text.contains(needle)))
            .map(|a| a.score)
            .unwrap_or(0.0)
    };
    (score_of("famous"), score_of("obscure"))
}

/// Property 4: the Fig. 4 scenario — a single node matching both keywords
/// must beat a sprawling tree whose free connector is hugely important.
fn property4() -> (f64, f64) {
    let (mut db, t) = schemas::imdb();
    // The relevant single node.
    let wilson_cruz = db
        .insert(t.actor, vec![Value::text("wilson cruz")])
        .unwrap();
    let some_movie = db
        .insert(
            t.movie,
            vec![Value::text("ordinary feature"), Value::int(2003)],
        )
        .unwrap();
    db.link(t.actor_movie, wilson_cruz, some_movie).unwrap();
    // The irrelevant tree: movie "charlie wilson s war" — star actor —
    // tribute movie — actress "penelope cruz".
    let war = db
        .insert(
            t.movie,
            vec![Value::text("charlie wilson s war"), Value::int(2007)],
        )
        .unwrap();
    let star = db
        .insert(t.actor, vec![Value::text("tomas hanksen")])
        .unwrap();
    let tribute = db
        .insert(
            t.movie,
            vec![Value::text("tribute to heroes"), Value::int(2001)],
        )
        .unwrap();
    let cruz = db
        .insert(t.actress, vec![Value::text("penelope cruz")])
        .unwrap();
    db.link(t.actor_movie, star, war).unwrap();
    db.link(t.actor_movie, star, tribute).unwrap();
    db.link(t.actress_movie, cruz, tribute).unwrap();
    // Make the star actor enormously important.
    for i in 0..25 {
        let m = db
            .insert(
                t.movie,
                vec![
                    Value::text(format!("blockbuster {i}")),
                    Value::int(1990 + i),
                ],
            )
            .unwrap();
        db.link(t.actor_movie, star, m).unwrap();
    }
    let e = Engine::build(
        &db,
        CiRankConfig {
            weights: WeightConfig::imdb_default(),
            index: ci_rank::IndexKind::None,
            diameter: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let answers = e.session().search("wilson cruz").unwrap();
    let single = answers
        .iter()
        .find(|a| a.tree.size() == 1)
        .map(|a| a.score)
        .unwrap_or(0.0);
    let sprawl = answers
        .iter()
        .find(|a| a.tree.size() > 1)
        .map(|a| a.score)
        .unwrap_or(0.0);
    (single, sprawl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_properties_hold() {
        let t = run();
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert_eq!(row[3], "true", "property failed: {}", row[0]);
        }
    }
}
