use std::collections::HashMap;
use std::collections::HashSet;

use ci_datagen::GroundTruth;
use ci_rank::Engine;
use ci_search::Answer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::TreeKey;

/// Parameters of the simulated user study.
#[derive(Debug, Clone, Copy)]
pub struct JudgeConfig {
    /// Panel size (the paper invited five graduate students).
    pub judges: usize,
    /// Relative noise of each judge's utility perception.
    pub noise: f64,
    /// Size penalty exponent: utility divides by `size^beta`.
    pub beta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for JudgeConfig {
    fn default() -> Self {
        JudgeConfig {
            judges: 5,
            noise: 0.08,
            beta: 2.0,
            seed: 2012,
        }
    }
}

/// The panel's decision over one candidate pool.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Canonical keys of the best answer(s) — majority vote, all winners
    /// kept on ties (the paper: "In the case of a tie, all of the answers
    /// are considered the best").
    pub best: HashSet<TreeKey>,
    /// Relevance grade in `[0, 1]` per pool answer (same order as the
    /// pool).
    pub grades: Vec<f64>,
    grade_index: HashMap<TreeKey, usize>,
}

impl Verdict {
    fn build(best: HashSet<TreeKey>, grades: Vec<f64>, keys: Vec<TreeKey>) -> Verdict {
        let grade_index = keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
        Verdict {
            best,
            grades,
            grade_index,
        }
    }

    /// Grade of a tree by canonical key (0 if not in the judged pool).
    pub fn grade_of(&self, key: &TreeKey) -> f64 {
        self.grade_index
            .get(key)
            .and_then(|&i| self.grades.get(i))
            .copied()
            .unwrap_or(0.0)
    }
}

/// Judges a candidate pool: each judge perceives the true utility of every
/// answer with multiplicative Gaussian-ish noise and votes for their
/// favourite; the majority (plurality) wins. Grades are normalized noise-
/// free utilities, penalized by missing-keyword fraction (per the paper's
/// graded relevance).
pub fn judge_pool(
    engine: &Engine,
    truth: &GroundTruth,
    keywords: &[String],
    pool: &[Answer],
    cfg: &JudgeConfig,
) -> Verdict {
    assert!(cfg.judges >= 1, "need at least one judge");
    if pool.is_empty() {
        return Verdict::build(HashSet::new(), Vec::new(), Vec::new());
    }
    let utilities: Vec<f64> = pool
        .iter()
        .map(|a| true_utility(engine, truth, keywords, a, cfg.beta))
        .collect();
    let max_u = utilities.iter().cloned().fold(0.0f64, f64::max).max(1e-300);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut votes = vec![0usize; pool.len()];
    for _ in 0..cfg.judges {
        let favourite = utilities
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                // Sum of three uniforms ≈ bell-shaped noise around 1.
                let noise = 1.0
                    + cfg.noise
                        * ((rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>()) * 2.0 / 3.0
                            - 1.0);
                (i, u * noise)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(0, |(i, _)| i);
        if let Some(v) = votes.get_mut(favourite) {
            *v += 1;
        }
    }
    let top_votes = votes.iter().copied().max().unwrap_or(0);
    let keys: Vec<TreeKey> = pool.iter().map(|a| a.tree.canonical_key()).collect();
    // Plurality winners, plus the paper's tie rule with a perception
    // tolerance: answers a human panel could not distinguish from the
    // best (within 2% of the maximal utility) all count as best.
    let best: HashSet<TreeKey> = votes
        .iter()
        .zip(&utilities)
        .zip(&keys)
        .filter(|&((&v, &u), _)| v == top_votes || u >= 0.98 * max_u)
        .map(|(_, k)| k.clone())
        .collect();
    let grades = utilities
        .iter()
        .map(|&u| (u / max_u).clamp(0.0, 1.0))
        .collect();
    Verdict::build(best, grades, keys)
}

/// The hidden utility — the role of human preference. Humans in the
/// paper's study favoured *tight* answers connected through *important*
/// nodes, and certainly did not reward sprawling trees for happening to
/// contain an unrelated celebrity (the Fig. 4 free-node-domination
/// discussion). The utility therefore compresses popularity
/// logarithmically (per-node contribution saturates) and discounts size
/// superlinearly (`beta > 1`):
///
/// ```text
/// u(T) = (Σ_v ln(1 + pop(v))) / size(T)^beta · coverage(T)
/// ```
///
/// The ranking functions never see these values.
fn true_utility(
    engine: &Engine,
    truth: &GroundTruth,
    keywords: &[String],
    answer: &Answer,
    beta: f64,
) -> f64 {
    let graph = engine.graph();
    let mut pop = 0.0;
    for &v in answer.tree.nodes() {
        let node_pop: f64 = graph.tuples(v).iter().map(|&t| truth.get(t)).sum();
        pop += (1.0 + node_pop).ln();
    }
    let size = answer.tree.size() as f64;
    let covered = keywords
        .iter()
        .filter(|kw| {
            answer
                .tree
                .nodes()
                .iter()
                .any(|&v| engine.text_index().tf(kw, v.0) > 0)
        })
        .count() as f64;
    let coverage = covered / keywords.len().max(1) as f64;
    pop / size.powf(beta) * coverage
}

// Verdict uses an internal index map; declared after use for readability.
impl Verdict {
    /// Number of judged answers.
    pub fn len(&self) -> usize {
        self.grades.len()
    }

    /// True if nothing was judged.
    pub fn is_empty(&self) -> bool {
        self.grades.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_graph::WeightConfig;
    use ci_rank::CiRankConfig;
    use ci_storage::{schemas, Value};

    fn setup() -> (Engine, GroundTruth, Vec<String>) {
        let (mut db, t) = schemas::dblp();
        let a1 = db.insert(t.author, vec![Value::text("ada crane")]).unwrap();
        let a2 = db.insert(t.author, vec![Value::text("bo quill")]).unwrap();
        let p1 = db
            .insert(
                t.paper,
                vec![Value::text("minor workshop note"), Value::int(2001)],
            )
            .unwrap();
        let p2 = db
            .insert(
                t.paper,
                vec![Value::text("landmark result"), Value::int(2002)],
            )
            .unwrap();
        for p in [p1, p2] {
            db.link(t.author_paper, a1, p).unwrap();
            db.link(t.author_paper, a2, p).unwrap();
        }
        let mut truth = GroundTruth::default();
        truth.set(a1, 2.0);
        truth.set(a2, 2.0);
        truth.set(p1, 1.0);
        truth.set(p2, 40.0);
        let engine = Engine::build(
            &db,
            CiRankConfig {
                weights: WeightConfig::dblp_default(),
                ..Default::default()
            },
        )
        .unwrap();
        (engine, truth, vec!["crane".into(), "quill".into()])
    }

    #[test]
    fn panel_picks_the_popular_connector() {
        let (engine, truth, kw) = setup();
        let pool = engine.session().candidate_pool("crane quill", 10).unwrap();
        assert_eq!(pool.len(), 2);
        let verdict = judge_pool(&engine, &truth, &kw, &pool, &JudgeConfig::default());
        assert_eq!(verdict.best.len(), 1);
        // Find which pool entry contains the landmark paper.
        let landmark_idx = pool
            .iter()
            .position(|a| {
                a.tree
                    .nodes()
                    .iter()
                    .any(|&v| engine.node_text(v).contains("landmark"))
            })
            .unwrap();
        assert!(verdict
            .best
            .contains(&pool[landmark_idx].tree.canonical_key()));
        // Grades: landmark answer gets grade 1.0, the other strictly less.
        assert_eq!(verdict.grades[landmark_idx], 1.0);
        let other = 1 - landmark_idx;
        assert!(verdict.grades[other] < 1.0 && verdict.grades[other] > 0.0);
    }

    #[test]
    fn verdict_is_deterministic_per_seed() {
        let (engine, truth, kw) = setup();
        let pool = engine.session().candidate_pool("crane quill", 10).unwrap();
        let a = judge_pool(&engine, &truth, &kw, &pool, &JudgeConfig::default());
        let b = judge_pool(&engine, &truth, &kw, &pool, &JudgeConfig::default());
        assert_eq!(a.best, b.best);
        assert_eq!(a.grades, b.grades);
    }

    #[test]
    fn empty_pool_yields_empty_verdict() {
        let (engine, truth, kw) = setup();
        let v = judge_pool(&engine, &truth, &kw, &[], &JudgeConfig::default());
        assert!(v.is_empty());
        assert!(v.best.is_empty());
    }

    #[test]
    fn extreme_noise_can_split_the_vote() {
        let (engine, truth, kw) = setup();
        let pool = engine.session().candidate_pool("crane quill", 10).unwrap();
        // With huge noise, judges sometimes pick the weak answer; the
        // verdict still returns at least one best.
        let cfg = JudgeConfig {
            noise: 50.0,
            seed: 3,
            ..Default::default()
        };
        let v = judge_pool(&engine, &truth, &kw, &pool, &cfg);
        assert!(!v.best.is_empty());
        assert!(v.best.len() <= pool.len());
    }
}
