use ci_baselines::{banks_score, discover2_score, spark_score, BanksPrestige, SparkParams};
use ci_graph::Graph;
use ci_rwmp::{score_alternative, AlternativeScore, Jtt, Scorer};
use ci_search::{score_answer, Answer, QuerySpec};
use ci_text::InvertedIndex;

/// The ranking functions the evaluation compares (§VI-B), all applied to
/// the same candidate pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ranker {
    /// CI-Rank (RWMP, Eqs. 2–4).
    CiRank,
    /// The SPARK scoring function.
    Spark,
    /// The DISCOVER2 scoring function.
    Discover2,
    /// The BANKS ranking function.
    Banks,
    /// Future-work hybrid: `w·CI + (1−w)·SPARK`, both max-normalized
    /// within the pool.
    Hybrid {
        /// Weight of the CI component, in `[0, 1]`.
        ci_weight: f64,
    },
    /// One of the rejected §III-B alternatives (ablations).
    Alternative(AlternativeScore),
}

/// Scores every pool answer under `ranker` and returns `(tree, score)`
/// pairs sorted by descending score (ties broken deterministically by
/// canonical tree identity).
#[allow(clippy::too_many_arguments)]
pub fn rank_pool(
    scorer: &Scorer<'_>,
    spec: &QuerySpec,
    text: &InvertedIndex,
    graph: &Graph,
    prestige: &BanksPrestige,
    pool: &[Answer],
    ranker: Ranker,
) -> Vec<(Jtt, f64)> {
    let mut scored: Vec<(Jtt, f64)> = pool
        .iter()
        .map(|a| {
            let s = score_one(scorer, spec, text, graph, prestige, &a.tree, ranker);
            (a.tree.clone(), s)
        })
        .collect();
    if let Ranker::Hybrid { ci_weight } = ranker {
        // score_one returned the CI score; blend with SPARK after pool-wide
        // max normalization.
        let spark: Vec<f64> = pool
            .iter()
            .map(|a| score_one(scorer, spec, text, graph, prestige, &a.tree, Ranker::Spark))
            .collect();
        let max_ci = scored
            .iter()
            .map(|s| s.1)
            .fold(0.0f64, f64::max)
            .max(1e-300);
        let max_ir = spark.iter().cloned().fold(0.0f64, f64::max).max(1e-300);
        for (entry, &ir) in scored.iter_mut().zip(&spark) {
            entry.1 = ci_weight * entry.1 / max_ci + (1.0 - ci_weight) * ir / max_ir;
        }
    }
    // Ties break on a hash of the tree identity: deterministic, but
    // uncorrelated with node insertion order (ascending node-id ties would
    // accidentally leak age, which correlates with citation counts in
    // bibliographic data).
    scored.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then_with(|| key_hash(&a.0).cmp(&key_hash(&b.0)))
    });
    scored
}

fn key_hash(tree: &Jtt) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    tree.canonical_key().hash(&mut h);
    h.finish()
}

fn score_one(
    scorer: &Scorer<'_>,
    spec: &QuerySpec,
    text: &InvertedIndex,
    graph: &Graph,
    prestige: &BanksPrestige,
    tree: &Jtt,
    ranker: Ranker,
) -> f64 {
    match ranker {
        Ranker::CiRank | Ranker::Hybrid { .. } => score_answer(scorer, spec, tree).unwrap_or(0.0),
        Ranker::Spark => {
            let docs: Vec<u32> = tree.nodes().iter().map(|n| n.0).collect();
            spark_score(text, spec.keywords(), &docs, &SparkParams::default())
        }
        Ranker::Discover2 => {
            let docs: Vec<u32> = tree.nodes().iter().map(|n| n.0).collect();
            discover2_score(text, spec.keywords(), &docs, 0.2)
        }
        Ranker::Banks => {
            // BANKS answers are rooted at a keyword node (§II-B.2's example
            // roots at the actor "Orlando Bloom" with the movie as an
            // intermediate free node); pick the most prestigious matcher.
            let root = (0..tree.size())
                .filter(|&p| spec.matcher(tree.node(p)).is_some())
                .max_by(|&a, &b| {
                    prestige
                        .get(tree.node(a))
                        .total_cmp(&prestige.get(tree.node(b)))
                })
                .unwrap_or(0);
            banks_score(graph, prestige, tree, root, 0.2)
        }
        Ranker::Alternative(kind) => {
            let matchers: Vec<usize> = (0..tree.size())
                .filter(|&pos| spec.matcher(tree.node(pos)).is_some())
                .collect();
            if matchers.is_empty() {
                return 0.0;
            }
            score_alternative(kind, scorer, tree, &matchers)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CiRankConfig, Engine};
    use ci_graph::WeightConfig;
    use ci_storage::{schemas, Value};

    fn engine() -> Engine {
        let (mut db, t) = schemas::dblp();
        let a1 = db.insert(t.author, vec![Value::text("ada crane")]).unwrap();
        let a2 = db.insert(t.author, vec![Value::text("bo quill")]).unwrap();
        let p1 = db
            .insert(t.paper, vec![Value::text("short title"), Value::int(2000)])
            .unwrap();
        let p2 = db
            .insert(
                t.paper,
                vec![
                    Value::text("a very long descriptive famous title"),
                    Value::int(2001),
                ],
            )
            .unwrap();
        for p in [p1, p2] {
            db.link(t.author_paper, a1, p).unwrap();
            db.link(t.author_paper, a2, p).unwrap();
        }
        // p2 heavily cited.
        for i in 0..20 {
            let c = db
                .insert(
                    t.paper,
                    vec![Value::text(format!("citer {i}")), Value::int(2010)],
                )
                .unwrap();
            db.link(t.cites, c, p2).unwrap();
        }
        Engine::build(
            &db,
            CiRankConfig {
                weights: WeightConfig::dblp_default(),
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn rankers_disagree_as_the_paper_describes() {
        let e = engine();
        let s = e.session();
        let pool = s.candidate_pool("crane quill", 10).unwrap();
        assert_eq!(pool.len(), 2);

        let ci = s.rank("crane quill", &pool, Ranker::CiRank).unwrap();
        assert!(
            ci[0].nodes.iter().any(|n| n.text.contains("famous")),
            "CI-Rank prefers the cited connector"
        );

        let spark = s.rank("crane quill", &pool, Ranker::Spark).unwrap();
        assert!(
            spark[0].nodes.iter().any(|n| n.text.contains("short")),
            "SPARK prefers the shorter title (the §II-B flaw)"
        );
    }

    #[test]
    fn all_rankers_produce_full_rankings() {
        let e = engine();
        let s = e.session();
        let pool = s.candidate_pool("crane quill", 10).unwrap();
        for ranker in [
            Ranker::CiRank,
            Ranker::Spark,
            Ranker::Discover2,
            Ranker::Banks,
            Ranker::Hybrid { ci_weight: 0.5 },
            Ranker::Alternative(AlternativeScore::AvgAllImportance),
        ] {
            let ranked = s.rank("crane quill", &pool, ranker).unwrap();
            assert_eq!(ranked.len(), pool.len(), "{ranker:?}");
            for w in ranked.windows(2) {
                assert!(w[0].score >= w[1].score, "{ranker:?} not sorted");
            }
        }
    }

    #[test]
    fn hybrid_interpolates_between_parents() {
        let e = engine();
        let s = e.session();
        let pool = s.candidate_pool("crane quill", 10).unwrap();
        let pure_ci = s
            .rank("crane quill", &pool, Ranker::Hybrid { ci_weight: 1.0 })
            .unwrap();
        let pure_ir = s
            .rank("crane quill", &pool, Ranker::Hybrid { ci_weight: 0.0 })
            .unwrap();
        assert!(pure_ci[0].nodes.iter().any(|n| n.text.contains("famous")));
        assert!(pure_ir[0].nodes.iter().any(|n| n.text.contains("short")));
    }
}
