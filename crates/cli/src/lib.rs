//! Implementation of the `cirank` command-line interface.
//!
//! Subcommands:
//!
//! * `cirank generate <imdb|dblp> --out <file> [--scale N] [--seed N]` —
//!   generate a synthetic dataset and write it as a text dump;
//! * `cirank search --data <file> --query "<keywords>"
//!   [--weights imdb|dblp|uniform] [--k N] [--diameter N]
//!   [--ranker ci|spark|banks|discover2] [--explain] [--trace]` — load a
//!   dump and answer a keyword query;
//! * `cirank explain --data <file> --query "<keywords>" [--rank N]` —
//!   print the full Eqs. 2–4 score decomposition of one answer as an
//!   annotated tree (see `docs/observability.md`);
//! * `cirank stats --data <file>` — dataset and graph statistics.
//!
//! The argument parser is hand-rolled (the workspace's dependency policy
//! keeps external crates to the approved list); [`run`] is testable and
//! returns the rendered output instead of printing.

// LINT-EXEMPT(tests): the workspace lint wall (workspace Cargo.toml) bans
// panicking constructs in library code; unit tests opt back in. Clippy still
// checks the non-test compilation of this crate, so library violations are
// caught even with this relaxation in place.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
    )
)]

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};

use ci_datagen::{generate_dblp, generate_imdb, DblpConfig, ImdbConfig};
use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, Engine, Ranker, TraceLevel};
use ci_storage::{persist, Database};

/// CLI failure: a user-facing message plus a suggestion to print usage.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
cirank — keyword search over relational data, ranked by collective importance

USAGE:
  cirank generate <imdb|dblp> --out <file> [--scale N] [--seed N]
  cirank search --data <file> --query \"<keywords>\" [options]
  cirank explain --data <file> --query \"<keywords>\" [--rank N] [options]
  cirank stats --data <file>

SEARCH OPTIONS:
  --weights <imdb|dblp|uniform>   edge weight preset (default: inferred from tables)
  --k <N>                         answers to return (default 10)
  --diameter <N>                  max answer-tree diameter D (default 4)
  --ranker <ci|spark|banks|discover2>  ranking function (default ci)
  --explain                       print each answer's score decomposition
  --trace                         print a search-trace summary (pops, prunes, cache)

EXPLAIN OPTIONS:
  --rank <N>                      which answer to explain, 1-based (default 1)
";

/// Entry point used by `main` and by the tests: parses `args` (without the
/// program name) and returns the rendered output.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let rest = args.get(1..).unwrap_or(&[]);
    match args.first().map(String::as_str) {
        Some("generate") => generate(rest),
        Some("search") => search(rest),
        Some("explain") => explain(rest),
        Some("stats") => stats(rest),
        Some("help") | Some("--help") | Some("-h") => Ok(USAGE.to_string()),
        Some(other) => Err(CliError(format!("unknown subcommand {other:?}\n\n{USAGE}"))),
        None => Err(CliError(format!("missing subcommand\n\n{USAGE}"))),
    }
}

/// Minimal flag parser: `--name value` pairs plus positional arguments.
struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switch_names: &[&str]) -> Result<Flags, CliError> {
        let mut f = Flags {
            positional: Vec::new(),
            named: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if switch_names.contains(&name) {
                    f.switches.push(name.to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| CliError(format!("--{name} needs a value")))?;
                    f.named.push((name.to_string(), value.clone()));
                }
            } else {
                f.positional.push(a.clone());
            }
        }
        Ok(f)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError(format!("missing required --{name}")))
    }

    fn get_usize(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("--{name} must be a number, got {v:?}"))),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn generate(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let kind = flags
        .positional
        .first()
        .ok_or_else(|| CliError("generate needs a dataset kind (imdb or dblp)".into()))?;
    let out = flags.require("out")?;
    let scale = flags.get_usize("scale", 1)?.max(1);
    let seed = flags.get_usize("seed", 42)? as u64;

    let db = match kind.as_str() {
        "imdb" => {
            let cfg = ImdbConfig {
                movies: 120 * scale,
                actors: 80 * scale,
                actresses: 60 * scale,
                directors: 20 * scale,
                producers: 15 * scale,
                companies: 10 * scale,
                seed,
                ..Default::default()
            };
            generate_imdb(cfg).db
        }
        "dblp" => {
            let cfg = DblpConfig {
                papers: 200 * scale,
                authors: 100 * scale,
                conferences: 8 + 2 * scale,
                seed,
                ..Default::default()
            };
            generate_dblp(cfg).db
        }
        other => return Err(CliError(format!("unknown dataset kind {other:?}"))),
    };

    let file = File::create(out).map_err(|e| CliError(format!("cannot create {out:?}: {e}")))?;
    let mut w = BufWriter::new(file);
    persist::dump(&db, &mut w).map_err(|e| CliError(format!("write failed: {e}")))?;
    Ok(format!(
        "wrote {} tuples, {} links to {out}\n",
        db.tuple_count(),
        db.link_count()
    ))
}

fn load_db(path: &str) -> Result<Database, CliError> {
    let file = File::open(path).map_err(|e| CliError(format!("cannot open {path:?}: {e}")))?;
    persist::load(&mut BufReader::new(file)).map_err(|e| CliError(format!("load failed: {e}")))
}

/// Infers a weight preset from the table names in the dump.
fn infer_weights(db: &Database, flag: Option<&str>) -> Result<WeightConfig, CliError> {
    match flag {
        Some("imdb") => Ok(WeightConfig::imdb_default()),
        Some("dblp") => Ok(WeightConfig::dblp_default()),
        Some("uniform") => Ok(WeightConfig::uniform()),
        Some(other) => Err(CliError(format!("unknown weight preset {other:?}"))),
        None => Ok(if db.table_by_name("movie").is_some() {
            WeightConfig::imdb_default()
        } else if db.table_by_name("paper").is_some() {
            WeightConfig::dblp_default()
        } else {
            WeightConfig::uniform()
        }),
    }
}

fn search(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["explain", "trace"])?;
    let data = flags.require("data")?;
    let query = flags.require("query")?.to_string();
    let db = load_db(data)?;
    let weights = infer_weights(&db, flags.get("weights"))?;
    let cfg = CiRankConfig {
        weights,
        k: flags.get_usize("k", 10)?,
        diameter: flags.get_usize("diameter", 4)? as u32,
        max_expansions: Some(50_000),
        ..Default::default()
    };
    let engine =
        Engine::build(&db, cfg).map_err(|e| CliError(format!("engine build failed: {e}")))?;

    let ranker = match flags.get("ranker").unwrap_or("ci") {
        "ci" => Ranker::CiRank,
        "spark" => Ranker::Spark,
        "banks" => Ranker::Banks,
        "discover2" => Ranker::Discover2,
        other => return Err(CliError(format!("unknown ranker {other:?}"))),
    };

    // `fmt::Write` into a String cannot fail; the results are ignored.
    let mut out = String::new();
    let answers = if ranker == Ranker::CiRank {
        // Tracing only instruments the branch-and-bound path, so it is
        // wired through an explicit session on the CI ranker.
        let want_trace = flags.has("trace");
        let session = if want_trace {
            engine.session().with_trace(TraceLevel::Full)
        } else {
            engine.session()
        };
        let (answers, stats) = session
            .search_with_stats(&query)
            .map_err(|e| CliError(format!("search failed: {e}")))?;
        if want_trace {
            let trace = session.last_trace();
            let c = trace.counts();
            // The trace counts what was enumerated; the stats also count
            // the work skipped as over the caps, which leaves no event.
            let _ = writeln!(
                out,
                "trace: {} pops, {} grows, {} merge tests, {} admits, {} prunes, \
                 {} truncations, {} cache transitions ({} events kept, {} dropped)",
                c.pops,
                c.grows,
                c.merges,
                c.admits,
                c.prunes,
                c.truncations,
                c.cache_transitions,
                trace.events().len(),
                trace.dropped(),
            );
            let _ = writeln!(
                out,
                "stats: {} pops ({} dead), {} registered, {} bound-pruned, \
                 {} distance-pruned, {} merge attempts ({} over the caps)",
                stats.pops,
                stats.rejections.dead_pops,
                stats.registered,
                stats.bound_pruned,
                stats.distance_pruned,
                stats.merges,
                stats.rejections.merge_shape,
            );
        }
        answers
    } else {
        if flags.has("trace") {
            let _ = writeln!(out, "note: --trace instruments the ci ranker only");
        }
        engine
            .session()
            .search_ranked(&query, ranker, cfg_pool(&flags)?)
            .map_err(|e| CliError(format!("search failed: {e}")))?
    };

    if answers.is_empty() {
        let _ = writeln!(out, "no answers for {query:?}");
        return Ok(out);
    }
    for (i, a) in answers.iter().enumerate() {
        let _ = writeln!(out, "#{:<2} {a}", i + 1);
        if flags.has("explain") {
            let report = engine
                .explain(&query, &a.tree)
                .map_err(|e| CliError(format!("explain failed: {e}")))?;
            for line in report.render().lines() {
                let _ = writeln!(out, "     {line}");
            }
        }
    }
    Ok(out)
}

fn explain(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let data = flags.require("data")?;
    let query = flags.require("query")?.to_string();
    let rank = flags.get_usize("rank", 1)?;
    if rank == 0 {
        return Err(CliError(
            "--rank is 1-based; use --rank 1 for the top answer".into(),
        ));
    }
    let db = load_db(data)?;
    let weights = infer_weights(&db, flags.get("weights"))?;
    let cfg = CiRankConfig {
        weights,
        k: flags.get_usize("k", 10)?.max(rank),
        diameter: flags.get_usize("diameter", 4)? as u32,
        max_expansions: Some(50_000),
        ..Default::default()
    };
    let engine =
        Engine::build(&db, cfg).map_err(|e| CliError(format!("engine build failed: {e}")))?;
    let answers = engine
        .session()
        .search(&query)
        .map_err(|e| CliError(format!("search failed: {e}")))?;
    if answers.is_empty() {
        return Ok(format!("no answers for {query:?}\n"));
    }
    let Some(a) = answers.get(rank - 1) else {
        return Err(CliError(format!(
            "only {} answer(s) for {query:?}; --rank {rank} is out of range",
            answers.len()
        )));
    };
    let report = engine
        .explain(&query, &a.tree)
        .map_err(|e| CliError(format!("explain failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "#{rank:<2} {a}");
    out.push_str(&report.render());
    Ok(out)
}

fn cfg_pool(flags: &Flags) -> Result<usize, CliError> {
    Ok(flags.get_usize("k", 10)?.max(10) * 2)
}

fn stats(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let data = flags.require("data")?;
    let db = load_db(data)?;
    let weights = infer_weights(&db, flags.get("weights"))?;
    let graph = ci_graph::build_graph(&db, &weights, None);
    // `fmt::Write` into a String cannot fail; the results are ignored.
    let mut out = String::new();
    let _ = writeln!(out, "tables: {}", db.table_count());
    for t in db.table_ids() {
        let name = db
            .schema(t)
            .map(|s| s.name().to_owned())
            .unwrap_or_default();
        let rows = db.row_count(t).unwrap_or(0);
        let _ = writeln!(out, "  {name:<16} {rows:>8} rows");
    }
    let _ = writeln!(out, "links:  {}", db.link_count());
    let _ = writeln!(
        out,
        "graph:  {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cirank-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
        assert!(run(&argv(&["--help"])).is_ok());
    }

    #[test]
    fn unknown_subcommand_fails_with_usage() {
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(err.0.contains("unknown subcommand"));
        assert!(err.0.contains("USAGE"));
        assert!(run(&[]).is_err());
    }

    #[test]
    fn generate_then_stats_then_search() {
        let path = tmp("dblp.dump");
        let out = run(&argv(&[
            "generate", "dblp", "--out", &path, "--scale", "1", "--seed", "7",
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");

        let stats = run(&argv(&["stats", "--data", &path])).unwrap();
        assert!(stats.contains("paper"));
        assert!(stats.contains("graph:"));

        // Search for a name that certainly exists: read one from the dump.
        let db = load_db(&path).unwrap();
        let author_table = db.table_by_name("author").unwrap();
        let name = db
            .tuple_text(ci_storage::TupleId::new(author_table, 0))
            .unwrap();
        let last = name.split(' ').nth(1).unwrap().to_string();
        let res = run(&argv(&[
            "search", "--data", &path, "--query", &last, "--k", "3",
        ]))
        .unwrap();
        assert!(res.contains("#1"), "{res}");
    }

    #[test]
    fn search_with_explain_and_rankers() {
        let path = tmp("dblp2.dump");
        run(&argv(&["generate", "dblp", "--out", &path, "--seed", "9"])).unwrap();
        let db = load_db(&path).unwrap();
        let author_table = db.table_by_name("author").unwrap();
        let name = db
            .tuple_text(ci_storage::TupleId::new(author_table, 3))
            .unwrap();
        let last = name.split(' ').nth(1).unwrap().to_string();
        for ranker in ["ci", "spark", "banks", "discover2"] {
            let res = run(&argv(&[
                "search", "--data", &path, "--query", &last, "--ranker", ranker,
            ]))
            .unwrap();
            assert!(
                res.contains("#1") || res.contains("no answers"),
                "{ranker}: {res}"
            );
        }
        let res = run(&argv(&[
            "search",
            "--data",
            &path,
            "--query",
            &last,
            "--explain",
        ]))
        .unwrap();
        assert!(res.contains("p=") || res.contains("no answers"));
    }

    #[test]
    fn explain_subcommand_renders_the_annotated_tree() {
        let path = tmp("dblp3.dump");
        run(&argv(&["generate", "dblp", "--out", &path, "--seed", "11"])).unwrap();
        let db = load_db(&path).unwrap();
        let author_table = db.table_by_name("author").unwrap();
        let name = db
            .tuple_text(ci_storage::TupleId::new(author_table, 1))
            .unwrap();
        let last = name.split(' ').nth(1).unwrap().to_string();
        let res = run(&argv(&["explain", "--data", &path, "--query", &last])).unwrap();
        assert!(
            res.contains("score ") || res.contains("no answers"),
            "{res}"
        );
        if res.contains("score ") {
            assert!(res.contains("Eq. 4"), "{res}");
            assert!(res.contains("generation r="), "{res}");
        }
        let err = run(&argv(&[
            "explain", "--data", &path, "--query", &last, "--rank", "0",
        ]))
        .unwrap_err();
        assert!(err.0.contains("1-based"), "{err}");
        let err = run(&argv(&[
            "explain", "--data", &path, "--query", &last, "--rank", "9999",
        ]))
        .unwrap_err();
        assert!(err.0.contains("out of range"), "{err}");
    }

    #[test]
    fn search_trace_prints_a_summary() {
        let path = tmp("dblp4.dump");
        run(&argv(&["generate", "dblp", "--out", &path, "--seed", "13"])).unwrap();
        let db = load_db(&path).unwrap();
        let author_table = db.table_by_name("author").unwrap();
        let name = db
            .tuple_text(ci_storage::TupleId::new(author_table, 2))
            .unwrap();
        let last = name.split(' ').nth(1).unwrap().to_string();
        let res = run(&argv(&[
            "search", "--data", &path, "--query", &last, "--trace",
        ]))
        .unwrap();
        assert!(res.contains("trace:"), "{res}");
        assert!(res.contains("stats:"), "{res}");
        // Tracing does not perturb answers: same query without --trace
        // returns the identical ranked list.
        let plain = run(&argv(&["search", "--data", &path, "--query", &last])).unwrap();
        let traced_answers: Vec<&str> = res.lines().filter(|l| l.starts_with('#')).collect();
        let plain_answers: Vec<&str> = plain.lines().filter(|l| l.starts_with('#')).collect();
        assert_eq!(traced_answers, plain_answers);
        // Non-CI rankers note that --trace does not apply.
        let res = run(&argv(&[
            "search", "--data", &path, "--query", &last, "--trace", "--ranker", "banks",
        ]))
        .unwrap();
        assert!(res.contains("ci ranker only"), "{res}");
    }

    #[test]
    fn flag_errors_are_friendly() {
        assert!(run(&argv(&["generate", "imdb"]))
            .unwrap_err()
            .0
            .contains("--out"));
        assert!(run(&argv(&["generate", "nope", "--out", "/tmp/x"]))
            .unwrap_err()
            .0
            .contains("unknown dataset kind"));
        assert!(run(&argv(&["search", "--data"]))
            .unwrap_err()
            .0
            .contains("needs a value"));
        let path = tmp("imdb.dump");
        run(&argv(&["generate", "imdb", "--out", &path])).unwrap();
        assert!(run(&argv(&[
            "search", "--data", &path, "--query", "x", "--ranker", "zzz"
        ]))
        .unwrap_err()
        .0
        .contains("unknown ranker"));
        assert!(run(&argv(&[
            "search", "--data", &path, "--query", "x", "--k", "NaN"
        ]))
        .unwrap_err()
        .0
        .contains("must be a number"));
        assert!(run(&argv(&["stats", "--data", "/nonexistent/file"]))
            .unwrap_err()
            .0
            .contains("cannot open"));
    }

    #[test]
    fn weights_inference_and_override() {
        let path = tmp("imdb2.dump");
        run(&argv(&["generate", "imdb", "--out", &path, "--seed", "3"])).unwrap();
        let db = load_db(&path).unwrap();
        // Inferred: IMDB preset (movie table present).
        let w = infer_weights(&db, None).unwrap();
        assert_eq!(w.get("actor_movie"), (1.0, 1.0));
        // Overridden.
        let w = infer_weights(&db, Some("uniform")).unwrap();
        assert_eq!(w.get("actor_movie"), (1.0, 1.0));
        assert!(infer_weights(&db, Some("bogus")).is_err());
    }
}
