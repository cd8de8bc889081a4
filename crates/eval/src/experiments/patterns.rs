//! Extension experiment: effectiveness broken down by query structure.
//!
//! §VI-B attributes the precision differences between CI-Rank and SPARK
//! "primarily … to those long queries that match three or more non-free
//! nodes", and notes that only 11.4% of user-log queries require free
//! nodes. This experiment quantifies that attribution: MRR per ranker per
//! query pattern on the synthetic IMDB workload.

use std::collections::HashMap;

use ci_datagen::QueryPattern;
use ci_rank::Ranker;
use ci_rwmp::Jtt;

use crate::judge::judge_pool;
use crate::metrics::{mean, reciprocal_rank};
use crate::setup::{EvalConfig, Harness};
use crate::table::Table;

const RANKERS: [(&str, Ranker); 3] = [
    ("SPARK", Ranker::Spark),
    ("BANKS", Ranker::Banks),
    ("CI-Rank", Ranker::CiRank),
];

/// Runs the per-pattern breakdown on the synthetic IMDB workload.
pub fn run(cfg: &EvalConfig) -> Table {
    let h = Harness::build(*cfg);
    // Pattern → per-ranker reciprocal ranks.
    let mut buckets: HashMap<QueryPattern, Vec<Vec<f64>>> = HashMap::new();
    let session = h.imdb_engine.session();
    for q in h.imdb_synthetic.iter().chain(h.imdb_user_log.iter()) {
        let query = q.keywords.join(" ");
        let Ok(pool) = session.candidate_pool(&query, h.cfg.pool_k()) else {
            continue;
        };
        if pool.is_empty() {
            continue;
        }
        let verdict = judge_pool(&h.imdb_engine, &h.imdb.truth, &q.keywords, &pool, &h.judge);
        let entry = buckets
            .entry(q.pattern)
            .or_insert_with(|| vec![Vec::new(); RANKERS.len()]);
        for (ri, &(_, ranker)) in RANKERS.iter().enumerate() {
            let ranked = session
                .rank(&query, &pool, ranker)
                .expect("query already parsed");
            let trees: Vec<Jtt> = ranked.iter().map(|a| a.tree.clone()).collect();
            entry[ri].push(reciprocal_rank(&trees, &verdict.best));
        }
    }

    let mut table = Table::new(
        "patterns",
        "MRR by query structure on IMDB (extension)",
        vec!["pattern", "queries", "SPARK", "BANKS", "CI-Rank"],
    );
    for (pattern, label) in [
        (QueryPattern::Single, "single node"),
        (QueryPattern::AdjacentPair, "adjacent pair"),
        (QueryPattern::DistantPair, "distant pair (free node)"),
        (QueryPattern::Triple, "three matchers"),
    ] {
        let Some(rrs) = buckets.get(&pattern) else {
            continue;
        };
        table.push_row(vec![
            label.to_string(),
            rrs[0].len().to_string(),
            format!("{:.4}", mean(&rrs[0])),
            format!("{:.4}", mean(&rrs[1])),
            format!("{:.4}", mean(&rrs[2])),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::EvalScale;

    #[test]
    fn breakdown_covers_multiple_patterns() {
        let cfg = EvalConfig {
            scale: EvalScale::Smoke,
            seed: 29,
        };
        let t = run(&cfg);
        assert!(t.rows.len() >= 2, "at least two pattern buckets");
        for r in &t.rows {
            let n: usize = r[1].parse().unwrap();
            assert!(n > 0);
            for cell in &r[2..5] {
                let v: f64 = cell.parse().unwrap();
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
