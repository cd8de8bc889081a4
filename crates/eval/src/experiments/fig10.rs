//! Fig. 10 — average top-5 search time of the naive algorithm vs branch
//! and bound.
//!
//! Paper result: on 10% samples of the full datasets the naive algorithm
//! takes hundreds of seconds (and runs out of memory on the full data)
//! while branch and bound stays near zero.
//!
//! **Adaptation, recorded in EXPERIMENTS.md:** our substitute datasets are
//! laptop-scale, so a 10% sample is too sparse to exercise the naive
//! algorithm's exponential path enumeration at all. Instead this
//! experiment sweeps the dataset scale (1×, 2×, 4× the configured size)
//! and reports both algorithms per scale: the naive algorithm's cost grows
//! steeply with graph size (it is *global* — breadth-first expansion from
//! every matcher plus a combination product), while the expansion-capped
//! branch and bound stays bounded (its work is *answer-local*). The
//! crossover reproduces the paper's qualitative claim.

use std::time::Instant;

use ci_datagen::{dblp_workload, generate_dblp, generate_imdb, imdb_synthetic_workload};
use ci_rank::Engine;

use crate::setup::{EvalConfig, Harness};
use crate::table::Table;

/// Dataset scale multipliers swept by the experiment.
pub const FACTORS: &[usize] = &[1, 2, 4];

/// Queries per (dataset, factor) cell.
const QUERIES: usize = 6;

/// Runs the scale sweep. Returns average per-query milliseconds.
pub fn run(cfg: &EvalConfig) -> Table {
    let mut table = Table::new(
        "fig10",
        "Naive vs branch-and-bound average search time (top-5, scale sweep)",
        vec!["dataset", "scale", "naive_ms", "bnb_ms"],
    );
    let tweak = |c: &mut ci_rank::CiRankConfig| {
        c.k = 5;
        // Generous naive caps so the enumeration does its real work; the
        // branch-and-bound expansion cap stays at the harness default
        // (2,000 pops), making it an anytime search with bounded cost.
        c.naive_max_paths = 4096;
        c.naive_max_combinations = 2_000_000;
    };

    for &factor in FACTORS {
        let mut imdb_cfg = cfg.imdb();
        imdb_cfg.movies *= factor;
        imdb_cfg.actors *= factor;
        imdb_cfg.actresses *= factor;
        imdb_cfg.directors *= factor;
        imdb_cfg.producers *= factor;
        imdb_cfg.companies *= factor;
        let data = generate_imdb(imdb_cfg);
        let engine = Engine::build(&data.db, Harness::imdb_engine_config(&data, &tweak))
            .expect("generated data is non-empty");
        let queries = imdb_synthetic_workload(&data, QUERIES, cfg.seed + 20);
        let (naive_ms, bnb_ms) = time_both(&engine, &queries);
        push(&mut table, "IMDB", factor, naive_ms, bnb_ms);
    }

    for &factor in FACTORS {
        let mut dblp_cfg = cfg.dblp();
        dblp_cfg.papers *= factor;
        dblp_cfg.authors *= factor;
        let data = generate_dblp(dblp_cfg);
        let engine = Engine::build(&data.db, Harness::dblp_engine_config(&tweak))
            .expect("generated data is non-empty");
        let queries = dblp_workload(&data, QUERIES, cfg.seed + 21);
        let (naive_ms, bnb_ms) = time_both(&engine, &queries);
        push(&mut table, "DBLP", factor, naive_ms, bnb_ms);
    }

    table
}

fn time_both(engine: &Engine, queries: &[ci_datagen::LabeledQuery]) -> (f64, f64) {
    let mut naive_total = 0.0;
    let mut bnb_total = 0.0;
    let mut n = 0usize;
    let session = engine.session();
    for q in queries {
        let query = q.keywords.join(" ");
        let t0 = Instant::now();
        let naive_ok = session.search_naive(&query).is_ok();
        let naive_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let bnb_ok = session.search(&query).is_ok();
        let bnb_ms = t1.elapsed().as_secs_f64() * 1e3;
        if naive_ok && bnb_ok {
            naive_total += naive_ms;
            bnb_total += bnb_ms;
            n += 1;
        }
    }
    let n = n.max(1) as f64;
    (naive_total / n, bnb_total / n)
}

fn push(table: &mut Table, name: &str, factor: usize, naive_ms: f64, bnb_ms: f64) {
    table.push_row(vec![
        name.to_string(),
        format!("{factor}x"),
        format!("{naive_ms:.2}"),
        format!("{bnb_ms:.2}"),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::EvalScale;

    #[test]
    fn produces_timings_for_both_datasets_at_every_scale() {
        let cfg = EvalConfig {
            scale: EvalScale::Smoke,
            seed: 17,
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 2 * FACTORS.len());
        for r in &t.rows {
            let naive: f64 = r[2].parse().unwrap();
            let bnb: f64 = r[3].parse().unwrap();
            assert!(naive >= 0.0 && bnb >= 0.0);
        }
    }
}
