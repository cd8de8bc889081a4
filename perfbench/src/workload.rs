//! The named workloads: the inputs each one generates from its seeds, the
//! engine configuration it builds, and how its queries reach the engine.

use ci_datagen::{
    dblp_workload, generate_dblp, generate_imdb, imdb_synthetic_workload, DblpConfig, ImdbConfig,
    LabeledQuery,
};
use ci_graph::{MergeSpec, WeightConfig};
use ci_rank::{CiRankConfig, IndexKind, QueryBudget};
use ci_storage::Database;

/// Branch-and-bound expansion cap of the capped IMDB workloads; the same
/// value as the workspace benches' `BENCH_EXPANSION_CAP`.
pub const EXPANSION_CAP: usize = 3_000;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small DBLP, unlimited budget: every query finishes exact top-k.
    DblpExact,
    /// Bench-scale IMDB under the expansion cap, one warm session.
    ImdbCapped,
    /// The `imdb_capped` inputs, a fresh session per query.
    ImdbCold,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists the first two; `ImdbCold`
    /// is run by hand (its replays spread too widely for the bounds).
    pub const ALL: [Workload; 3] = [
        Workload::DblpExact,
        Workload::ImdbCapped,
        Workload::ImdbCold,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DblpExact => "dblp_exact",
            Workload::ImdbCapped => "imdb_capped",
            Workload::ImdbCold => "imdb_cold",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when every query must finish with the top-k guarantee
    /// (Theorem 1); a truncated run then counts as a failure.
    pub fn exact(self) -> bool {
        self == Workload::DblpExact
    }

    /// True when each query opens a fresh session (`EngineSnapshot::search`),
    /// false when one warm session replays the whole list.
    pub fn cold(self) -> bool {
        self == Workload::ImdbCold
    }

    /// The default `(data seed, query seed)`: the inputs the benchmark is
    /// tuned and, for `dblp_exact`, pinned on.
    pub fn default_seeds(self) -> (u64, u64) {
        match self {
            Workload::DblpExact => (42, 4),
            Workload::ImdbCapped | Workload::ImdbCold => (42, 11),
        }
    }

    /// The second seed pair, for checking a claim on inputs it was not
    /// tuned on.
    pub fn check_seeds(self) -> (u64, u64) {
        match self {
            Workload::DblpExact => (43, 2),
            Workload::ImdbCapped | Workload::ImdbCold => (43, 12),
        }
    }

    /// The session budget. Count limits only: a deadline would make
    /// completion depend on machine speed.
    pub fn budget(self) -> QueryBudget {
        match self {
            Workload::DblpExact => QueryBudget::default(),
            Workload::ImdbCapped | Workload::ImdbCold => {
                QueryBudget::default().with_max_expansions(EXPANSION_CAP)
            }
        }
    }
}

/// Everything a workload hands the engine: a database, a configuration and
/// the query strings, all derived from the two seeds.
pub struct Inputs {
    /// The generated database.
    pub db: Database,
    /// The engine configuration to build with.
    pub cfg: CiRankConfig,
    /// The query list, in generator order.
    pub queries: Vec<String>,
}

fn joined(queries: Vec<LabeledQuery>) -> Vec<String> {
    queries.into_iter().map(|q| q.keywords.join(" ")).collect()
}

/// Generates a workload's inputs. `build_threads` only sets the offline
/// build's worker count, which never changes the snapshot.
pub fn inputs(w: Workload, data_seed: u64, query_seed: u64, build_threads: usize) -> Inputs {
    let mut inputs = match w {
        Workload::DblpExact => {
            let data = generate_dblp(DblpConfig {
                papers: 70,
                authors: 35,
                conferences: 10,
                seed: data_seed,
                ..Default::default()
            });
            let queries = dblp_workload(&data, 80, query_seed);
            Inputs {
                db: data.db,
                cfg: CiRankConfig {
                    weights: WeightConfig::dblp_default(),
                    diameter: 4,
                    k: 5,
                    index: IndexKind::Star { relations: None },
                    max_expansions: None,
                    ..Default::default()
                },
                queries: joined(queries),
            }
        }
        Workload::ImdbCapped | Workload::ImdbCold => {
            let data = generate_imdb(ImdbConfig {
                movies: 250,
                actors: 160,
                actresses: 120,
                directors: 40,
                producers: 30,
                companies: 20,
                seed: data_seed,
                ..Default::default()
            });
            let queries = imdb_synthetic_workload(&data, 40, query_seed);
            let t = &data.tables;
            Inputs {
                cfg: CiRankConfig {
                    weights: WeightConfig::imdb_default(),
                    merge: Some(MergeSpec::over(vec![
                        t.actor, t.actress, t.director, t.producer,
                    ])),
                    diameter: 4,
                    k: 5,
                    index: IndexKind::Star { relations: None },
                    max_expansions: Some(EXPANSION_CAP),
                    ..Default::default()
                },
                db: data.db,
                queries: joined(queries),
            }
        }
    };
    inputs.cfg.build_threads = build_threads;
    inputs
}
