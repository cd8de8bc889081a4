use std::fmt;
use std::time::{Duration, Instant};

use ci_baselines::BanksPrestige;
use ci_graph::build_graph;
use ci_index::{detect_star_relations, DistIndex, NaiveIndex, StarIndex};
use ci_rwmp::{Dampening, Scorer};
use ci_storage::Database;
use ci_text::IndexBuilder;
use ci_walk::{pagerank, pagerank_personalized, PowerOptions};

use crate::config::{CiRankConfig, ImportanceMethod, IndexKind};
use crate::error::CiRankError;
use crate::snapshot::EngineSnapshot;
use crate::Result;

/// The stages of [`EngineBuilder::build`], in execution order.
///
/// Exposed so callers (the CLI's verbose mode, benchmarks) can observe
/// build progress through [`EngineBuilder::on_stage_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildStage {
    /// Map the database to the weighted data graph (Table II).
    Graph,
    /// Build the inverted text index over node documents.
    TextIndex,
    /// Solve the random-walk importance vector (Eq. 1).
    Importance,
    /// Compute BANKS node prestige (baseline ranker input).
    Prestige,
    /// Materialize the per-node dampening rates (Eq. 2).
    Dampening,
    /// Build the configured distance/retention index (§V).
    DistanceIndex,
}

impl BuildStage {
    /// All stages in execution order.
    pub const ALL: [BuildStage; 6] = [
        BuildStage::Graph,
        BuildStage::TextIndex,
        BuildStage::Importance,
        BuildStage::Prestige,
        BuildStage::Dampening,
        BuildStage::DistanceIndex,
    ];
}

impl fmt::Display for BuildStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BuildStage::Graph => "graph",
            BuildStage::TextIndex => "text-index",
            BuildStage::Importance => "importance",
            BuildStage::Prestige => "prestige",
            BuildStage::Dampening => "dampening",
            BuildStage::DistanceIndex => "distance-index",
        };
        f.write_str(name)
    }
}

/// Wall-clock accounting for one completed [`BuildStage`], delivered
/// through [`EngineBuilder::on_stage_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// The stage that just finished.
    pub stage: BuildStage,
    /// Wall-clock time the stage took.
    pub elapsed: Duration,
    /// Worker threads the stage ran with (`1` for the serial stages;
    /// [`crate::CiRankConfig::build_threads`] for the parallel ones).
    pub threads: usize,
}

/// Staged construction of an [`EngineSnapshot`].
///
/// The pipeline runs graph → text index → importance → prestige →
/// dampening → distance index, each stage consuming the previous stage's
/// outputs; the result is an immutable, query-ready snapshot that is
/// `Send + Sync` and cheap to share behind an `Arc`.
///
/// [`crate::Engine::build`] is the one-call convenience wrapper; use the
/// builder directly to observe stage progress.
pub struct EngineBuilder {
    cfg: CiRankConfig,
    on_stage_report: Option<Box<dyn FnMut(StageReport)>>,
    running: Option<(BuildStage, Instant, usize)>,
}

impl fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl EngineBuilder {
    /// Starts a build with the given configuration.
    pub fn new(cfg: CiRankConfig) -> Self {
        EngineBuilder {
            cfg,
            on_stage_report: None,
            running: None,
        }
    }

    /// Registers a completion callback, invoked with a [`StageReport`]
    /// (wall-clock time and worker-thread count) as each [`BuildStage`]
    /// finishes.
    pub fn on_stage_report(mut self, f: impl FnMut(StageReport) + 'static) -> Self {
        self.on_stage_report = Some(Box::new(f));
        self
    }

    fn enter(&mut self, stage: BuildStage, threads: usize) {
        self.finish_stage();
        self.running = Some((stage, Instant::now(), threads));
    }

    fn finish_stage(&mut self) {
        if let Some((stage, started, threads)) = self.running.take() {
            if let Some(f) = self.on_stage_report.as_mut() {
                f(StageReport {
                    stage,
                    elapsed: started.elapsed(),
                    threads,
                });
            }
        }
    }

    /// Runs the full pipeline over a database.
    pub fn build(mut self, db: &Database) -> Result<EngineSnapshot> {
        if db.tuple_count() == 0 {
            return Err(CiRankError::EmptyDatabase);
        }
        let cfg = self.cfg.clone();
        let threads = cfg.build_threads.max(1);

        // Stage 1: the weighted data graph.
        self.enter(BuildStage::Graph, 1);
        let graph = build_graph(db, &cfg.weights, cfg.merge.as_ref());
        let relation_names: Vec<String> = db
            .table_ids()
            .map(|t| db.schema(t).map(|s| s.name().to_string()))
            .collect::<std::result::Result<_, _>>()?;

        // Stage 2: one text document per graph node (merged nodes
        // concatenate their tuples' text).
        self.enter(BuildStage::TextIndex, 1);
        let mut node_text = Vec::with_capacity(graph.node_count());
        let mut builder = IndexBuilder::new();
        for v in graph.nodes() {
            let mut text = String::new();
            for &tid in graph.tuples(v) {
                let t = db.tuple_text(tid)?;
                if !text.is_empty() {
                    text.push(' ');
                }
                text.push_str(&t);
            }
            builder.add_doc(v.0, graph.relation(v), &text);
            node_text.push(text);
        }
        let text = builder.build();

        // Stage 3: random-walk node importance (Eq. 1). The power-iteration
        // matvec fans out over `build_threads` workers and stays
        // bit-identical to the serial path (see `PowerOptions::threads`).
        self.enter(BuildStage::Importance, threads);
        let importance = match &cfg.importance {
            ImportanceMethod::PowerIteration => pagerank(
                &graph,
                PowerOptions {
                    teleport: cfg.teleport,
                    threads,
                    ..Default::default()
                },
            ),
            ImportanceMethod::Personalized(u) => pagerank_personalized(
                &graph,
                PowerOptions {
                    teleport: cfg.teleport,
                    threads,
                    ..Default::default()
                },
                u,
            ),
        };

        // Stage 4: BANKS prestige for the baseline rankers.
        self.enter(BuildStage::Prestige, 1);
        let prestige = BanksPrestige::compute(&graph);

        // Stage 5: the dampening vector, computed exactly once. The
        // snapshot's scorer, the distance index below, and score
        // explanations all read this same vector.
        self.enter(BuildStage::Dampening, 1);
        let damp = Scorer::new(
            &graph,
            importance.values(),
            importance.min(),
            Dampening::Logarithmic {
                alpha: cfg.alpha,
                g: cfg.g,
            },
        )
        .dampening_vector();

        // Stage 6: the configured distance/retention index (§V). Per-source
        // traversals are independent, so the builds chunk source nodes
        // across workers and merge rows back in source order —
        // bit-identical tables at every thread count.
        self.enter(BuildStage::DistanceIndex, threads);
        let dist = match &cfg.index {
            IndexKind::None => DistIndex::None,
            IndexKind::Naive => DistIndex::Naive(NaiveIndex::build_with_threads(
                &graph,
                &damp,
                cfg.diameter,
                threads,
            )),
            IndexKind::Star { relations } => {
                let rels = relations
                    .clone()
                    .unwrap_or_else(|| detect_star_relations(&graph));
                DistIndex::Star(StarIndex::build_with_threads(
                    &graph,
                    &damp,
                    cfg.diameter,
                    &rels,
                    threads,
                ))
            }
        };
        self.finish_stage();

        Ok(EngineSnapshot::assemble(
            cfg,
            graph,
            text,
            importance,
            prestige,
            damp,
            dist,
            node_text,
            relation_names,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    use ci_graph::WeightConfig;
    use ci_storage::{schemas, Value};

    fn tiny_db() -> Database {
        let (mut db, t) = schemas::dblp();
        let a = db.insert(t.author, vec![Value::text("Ada")]).unwrap();
        let p = db
            .insert(t.paper, vec![Value::text("Notes"), Value::int(1843)])
            .unwrap();
        db.link(t.author_paper, a, p).unwrap();
        db
    }

    #[test]
    fn stages_fire_in_order() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let snap = EngineBuilder::new(CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        })
        .on_stage_report(move |r| sink.borrow_mut().push(r.stage))
        .build(&tiny_db())
        .unwrap();
        assert_eq!(seen.borrow().as_slice(), &BuildStage::ALL);
        assert_eq!(snap.graph().node_count(), 2);
    }

    #[test]
    fn stage_reports_cover_all_stages_with_thread_counts() {
        let reports = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&reports);
        EngineBuilder::new(CiRankConfig {
            weights: WeightConfig::dblp_default(),
            index: crate::IndexKind::Naive,
            build_threads: 3,
            ..Default::default()
        })
        .on_stage_report(move |r| sink.borrow_mut().push(r))
        .build(&tiny_db())
        .unwrap();
        let reports = reports.borrow();
        let stages: Vec<BuildStage> = reports.iter().map(|r| r.stage).collect();
        assert_eq!(stages.as_slice(), &BuildStage::ALL);
        for r in reports.iter() {
            let expect = match r.stage {
                BuildStage::Importance | BuildStage::DistanceIndex => 3,
                _ => 1,
            };
            assert_eq!(r.threads, expect, "threads for {}", r.stage);
        }
    }

    #[test]
    fn parallel_build_threads_yield_identical_snapshots() {
        let bits = |threads: usize| {
            let snap = EngineBuilder::new(CiRankConfig {
                weights: WeightConfig::dblp_default(),
                build_threads: threads,
                ..Default::default()
            })
            .build(&tiny_db())
            .unwrap();
            snap.importance()
                .values()
                .iter()
                .map(|&x| x.to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(bits(1), bits(4));
    }

    #[test]
    fn empty_database_rejected_before_any_stage() {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let (db, _) = schemas::dblp();
        let err = EngineBuilder::new(CiRankConfig::default())
            .on_stage_report(move |r| sink.borrow_mut().push(r.stage))
            .build(&db)
            .unwrap_err();
        assert_eq!(err, CiRankError::EmptyDatabase);
        assert!(seen.borrow().is_empty());
    }

    #[test]
    fn stage_display_names() {
        let names: Vec<String> = BuildStage::ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(names[0], "graph");
        assert_eq!(names[5], "distance-index");
    }
}
