//! Figs. 11 & 12 — average top-5 search time versus the maximal tree
//! diameter D, with and without the (star) index, on IMDB (Fig. 11) and
//! DBLP (Fig. 12).
//!
//! Paper result: the index reduces search time considerably at every D,
//! and time grows with D.
//!
//! The index proves its worth by letting branch-and-bound terminate
//! sooner (tighter bounds, distance pruning). On hub-dense data the search
//! only terminates exactly at moderate size, so these experiments run at
//! the exact-friendly `Smoke` sizing regardless of `CI_RANK_SCALE`
//! (recorded in EXPERIMENTS.md); the harness's standard expansion cap
//! stays as a backstop and is rarely hit at this sizing.

use std::time::Instant;

use ci_datagen::{
    dblp_workload, generate_dblp, generate_imdb, imdb_synthetic_workload, LabeledQuery,
};
use ci_rank::{CiRankConfig, Engine, IndexKind};
use ci_storage::Database;

use crate::setup::{EvalConfig, EvalScale, Harness};
use crate::table::Table;

/// Diameters evaluated, as in the paper.
pub const DIAMETERS: &[u32] = &[4, 5, 6];

fn exact_cfg(cfg: &EvalConfig) -> EvalConfig {
    EvalConfig {
        scale: EvalScale::Smoke,
        seed: cfg.seed,
    }
}

/// Fig. 11: IMDB.
pub fn run_imdb(cfg: &EvalConfig) -> Table {
    let cfg = exact_cfg(cfg);
    let imdb = generate_imdb(cfg.imdb());
    let queries = imdb_synthetic_workload(&imdb, cfg.query_count(false), cfg.seed + 30);
    run_one(
        "fig11",
        "IMDB average search time vs diameter (top-5)",
        &imdb.db,
        |d, index| {
            Harness::imdb_engine_config(&imdb, &|c| {
                c.k = 5;
                c.diameter = d;
                c.index = index.clone();
            })
        },
        &queries,
    )
}

/// Fig. 12: DBLP.
pub fn run_dblp(cfg: &EvalConfig) -> Table {
    let cfg = exact_cfg(cfg);
    let dblp = generate_dblp(cfg.dblp());
    let queries = dblp_workload(&dblp, cfg.query_count(false), cfg.seed + 31);
    run_one(
        "fig12",
        "DBLP average search time vs diameter (top-5)",
        &dblp.db,
        |d, index| {
            Harness::dblp_engine_config(&|c| {
                c.k = 5;
                c.diameter = d;
                c.index = index.clone();
            })
        },
        &queries,
    )
}

fn run_one(
    id: &str,
    title: &str,
    db: &Database,
    make_cfg: impl Fn(u32, &IndexKind) -> CiRankConfig,
    queries: &[LabeledQuery],
) -> Table {
    let mut table = Table::new(
        id,
        title,
        vec!["D", "upbound_ms", "upbound_index_ms", "index_speedup"],
    );
    for &d in DIAMETERS {
        let plain = Engine::build(db, make_cfg(d, &IndexKind::None)).expect("non-empty data");
        let indexed = Engine::build(db, make_cfg(d, &IndexKind::Star { relations: None }))
            .expect("non-empty data");
        let t_plain = avg_ms(&plain, queries);
        let t_indexed = avg_ms(&indexed, queries);
        table.push_row(vec![
            d.to_string(),
            format!("{t_plain:.2}"),
            format!("{t_indexed:.2}"),
            format!("{:.2}x", t_plain / t_indexed.max(1e-9)),
        ]);
    }
    table
}

fn avg_ms(engine: &Engine, queries: &[LabeledQuery]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    let session = engine.session();
    for q in queries {
        let query = q.keywords.join(" ");
        let t0 = Instant::now();
        if session.search(&query).is_ok() {
            total += t0.elapsed().as_secs_f64() * 1e3;
            n += 1;
        }
    }
    total / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::EvalScale;

    #[test]
    fn rows_per_diameter_on_dblp() {
        let cfg = EvalConfig {
            scale: EvalScale::Smoke,
            seed: 23,
        };
        let t = run_dblp(&cfg);
        assert_eq!(t.rows.len(), DIAMETERS.len());
        for r in &t.rows {
            let plain: f64 = r[1].parse().unwrap();
            let indexed: f64 = r[2].parse().unwrap();
            assert!(plain > 0.0 && indexed > 0.0);
        }
    }
}
