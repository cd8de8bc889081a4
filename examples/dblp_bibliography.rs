//! Keyword search over a generated DBLP bibliography: runs a small
//! workload and compares CI-Rank against SPARK and DISCOVER2 side by side
//! on the same candidate pools.
//!
//! ```text
//! cargo run --example dblp_bibliography
//! ```

// LINT-EXEMPT(example): examples are runnable documentation; panicking on
// unexpected states keeps them short and is the conventional idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use ci_datagen::{dblp_workload, generate_dblp, DblpConfig};
use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, Engine, Ranker};

fn main() {
    let data = generate_dblp(DblpConfig {
        papers: 400,
        authors: 180,
        conferences: 10,
        ..Default::default()
    });
    let engine = Engine::build(
        &data.db,
        CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        },
    )
    .unwrap();
    println!(
        "DBLP graph: {} nodes, {} edges\n",
        engine.graph().node_count(),
        engine.graph().edge_count()
    );

    let queries = dblp_workload(&data, 6, 7);
    let session = engine.session();
    for q in &queries {
        let query = q.keywords.join(" ");
        let pool = session.candidate_pool(&query, 15).unwrap();
        if pool.is_empty() {
            continue;
        }
        println!(
            "query: {query:?} ({:?}, {} candidates)",
            q.pattern,
            pool.len()
        );
        for (label, ranker) in [
            ("CI-Rank  ", Ranker::CiRank),
            ("SPARK    ", Ranker::Spark),
            ("DISCOVER2", Ranker::Discover2),
        ] {
            let ranked = session.rank(&query, &pool, ranker).unwrap();
            if let Some(top) = ranked.first() {
                println!("  {label} → {top}");
            }
        }
        println!();
    }
}
