//! Human-readable score explanation over a snapshot's metadata.
//!
//! [`crate::EngineSnapshot::explain`] pairs the numeric decomposition
//! from [`ci_search::explain_answer`] — per-source message generation,
//! hop-by-hop dampened flows (Eq. 2), the Eq. 3 per-node minimum and its
//! arg-min source, the Eq. 4 mean — with the snapshot's display metadata
//! (relation names, node text, query keywords). [`ExplainReport::render`]
//! turns that into the annotated answer tree the `cirank explain`
//! subcommand prints; a worked example lives in `docs/observability.md`.

use std::fmt::Write as _;

use ci_search::ScoreExplanation;

use crate::snapshot::AnswerNode;

/// An explained answer: the exact score decomposition plus everything
/// needed to print it for humans.
///
/// The numeric half ([`ExplainReport::explanation`]) replays the scoring
/// arithmetic bit-for-bit — `report.score()` equals the answer's ranked
/// score exactly, not approximately. The display half aligns with tree
/// positions: `nodes[pos]` describes the same node as
/// `explanation.nodes[pos]`.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The score decomposition (Eqs. 2–4) from [`ci_search::explain_answer`].
    pub explanation: ScoreExplanation,
    /// Display payload per tree position (relation, text, matcher flag).
    pub nodes: Vec<AnswerNode>,
    /// The query's keywords; bit `k` of any mask refers to `keywords[k]`.
    pub keywords: Vec<String>,
}

impl ExplainReport {
    /// The answer's score — bit-identical to the ranked score.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.explanation.score
    }

    /// Comma-joined keyword names for a match mask.
    fn keyword_names(&self, mask: u32) -> String {
        let mut s = String::new();
        for (k, kw) in self.keywords.iter().enumerate() {
            if mask & (1u32 << k) != 0 {
                if !s.is_empty() {
                    s.push(',');
                }
                s.push_str(kw);
            }
        }
        s
    }

    /// Renders the annotated answer tree.
    ///
    /// One block per tree node, drawn from the explanation's rooting
    /// (position 0 is the root): the node's relation and text (`*` marks
    /// matchers), its importance `p` and dampening rate `d` (Eq. 2), the
    /// flow each message source delivers to it, and — for matcher nodes —
    /// the generation count, the Eq. 3 minimum, and which source produced
    /// that minimum.
    #[must_use]
    pub fn render(&self) -> String {
        let ex = &self.explanation;
        let mut out = String::new();
        // `fmt::Write` into a String cannot fail; the results are ignored.
        let _ = writeln!(
            out,
            "score {:.6}  (Eq. 4: mean of {} matcher node score{})",
            ex.score,
            ex.sources.len(),
            if ex.sources.len() == 1 { "" } else { "s" },
        );

        // Children lists under the explanation's position-0 rooting.
        let n = ex.nodes.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for node in &ex.nodes {
            if node.parent != node.pos {
                if let Some(c) = children.get_mut(node.parent) {
                    c.push(node.pos);
                }
            }
        }

        // Depth-first with an explicit stack; children are pushed in
        // reverse so the lowest position prints first.
        let mut stack: Vec<(usize, String, bool)> = vec![(0, String::new(), true)];
        while let Some((pos, prefix, is_last)) = stack.pop() {
            let (branch, cont) = if pos == 0 {
                ("", String::new())
            } else if is_last {
                ("└─ ", format!("{prefix}   "))
            } else {
                ("├─ ", format!("{prefix}│  "))
            };
            self.render_node(&mut out, pos, &format!("{prefix}{branch}"), &cont);
            if let Some(kids) = children.get(pos) {
                for (i, &kid) in kids.iter().enumerate().rev() {
                    stack.push((kid, cont.clone(), i + 1 == kids.len()));
                }
            }
        }
        out
    }

    /// Writes one node's block: the headline line at `head` and detail
    /// lines indented by `cont`.
    fn render_node(&self, out: &mut String, pos: usize, head: &str, cont: &str) {
        let ex = &self.explanation;
        let Some(node) = ex.nodes.get(pos) else {
            return;
        };
        let marker = if node.mask != 0 { "*" } else { "" };
        let (relation, text) = self
            .nodes
            .get(pos)
            .map_or(("?", ""), |a| (a.relation.as_str(), a.text.as_str()));
        let _ = writeln!(
            out,
            "{head}{marker}{relation} {text:?}  p={:.6} d={:.3}",
            node.importance, node.dampening,
        );
        if let Some(src) = ex.source_at(pos) {
            let _ = write!(
                out,
                "{cont}  matches [{}]  generation r={:.6}  Eq.3 score={:.6}",
                self.keyword_names(src.mask),
                src.generation,
                src.node_score,
            );
            match src.min_source.and_then(|j| ex.sources.get(j)) {
                Some(m) => {
                    let text = self.nodes.get(m.pos).map_or("", |a| a.text.as_str());
                    let _ = writeln!(out, "  (min ← pos {} {text:?})", m.pos);
                }
                None => {
                    let _ = writeln!(out, "  (single matcher: generation count)");
                }
            }
        }
        // Incoming flows (Eq. 2, dampened hop by hop) — one entry per
        // *other* source; a single-source tree has no incoming messages.
        if ex.sources.len() > 1 {
            let mut flows = String::new();
            for (j, src) in ex.sources.iter().enumerate() {
                if src.pos == pos {
                    continue;
                }
                if let Some(f) = node.incoming.get(j) {
                    if !flows.is_empty() {
                        flows.push_str("  ");
                    }
                    let _ = write!(flows, "pos {}→{:.6}", src.pos, f);
                }
            }
            if !flows.is_empty() {
                let _ = writeln!(out, "{cont}  flow in: {flows}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{CiRankConfig, CiRankError, Engine};
    use ci_graph::WeightConfig;
    use ci_storage::{schemas, Value};

    fn coauthor_engine() -> Engine {
        let (mut db, t) = schemas::dblp();
        let yu = db
            .insert(t.author, vec![Value::text("Xiaohui Yu")])
            .unwrap();
        let shi = db.insert(t.author, vec![Value::text("Huxia Shi")]).unwrap();
        let paper = db
            .insert(
                t.paper,
                vec![Value::text("CI-Rank keyword search"), Value::int(2012)],
            )
            .unwrap();
        db.link(t.author_paper, yu, paper).unwrap();
        db.link(t.author_paper, shi, paper).unwrap();
        let cfg = CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        };
        Engine::build(&db, cfg).unwrap()
    }

    #[test]
    fn report_score_matches_ranked_score_bitwise() {
        let engine = coauthor_engine();
        let answers = engine.session().search("yu shi").unwrap();
        assert_eq!(answers.len(), 1);
        let report = engine.explain("yu shi", &answers[0].tree).unwrap();
        assert_eq!(report.score().to_bits(), answers[0].score.to_bits());
        assert_eq!(report.nodes.len(), answers[0].tree.size());
        assert_eq!(report.keywords, vec!["yu".to_string(), "shi".to_string()]);
    }

    #[test]
    fn render_annotates_every_node() {
        let engine = coauthor_engine();
        let answers = engine.session().search("yu shi").unwrap();
        let report = engine.explain("yu shi", &answers[0].tree).unwrap();
        let text = report.render();
        assert!(text.starts_with("score "), "{text}");
        assert!(text.contains("Eq. 4"), "{text}");
        assert!(text.contains("*author"), "{text}");
        assert!(text.contains("paper"), "{text}");
        assert!(text.contains("generation r="), "{text}");
        assert!(text.contains("Eq.3 score="), "{text}");
        assert!(text.contains("min ←"), "{text}");
        assert!(text.contains("flow in:"), "{text}");
        assert!(text.contains("└─ "), "{text}");
        // Two matcher blocks, one free connector between them.
        assert_eq!(text.matches("matches [").count(), 2, "{text}");
    }

    #[test]
    fn tree_without_matchers_is_rejected() {
        let engine = coauthor_engine();
        let answers = engine.session().search("yu shi").unwrap();
        // A singleton tree on the free paper node matches neither keyword.
        let free = answers[0]
            .tree
            .nodes()
            .iter()
            .zip(&answers[0].nodes)
            .find(|(_, meta)| !meta.is_matcher)
            .map(|(&v, _)| v)
            .unwrap();
        let tree = ci_rwmp::Jtt::singleton(free);
        let err = engine.explain("yu shi", &tree).unwrap_err();
        assert_eq!(err, CiRankError::NotAnAnswer);
    }

    #[test]
    fn single_matcher_report_renders_the_convention() {
        let engine = coauthor_engine();
        let answers = engine.session().search("rank").unwrap();
        assert!(!answers.is_empty());
        let report = engine.explain("rank", &answers[0].tree).unwrap();
        let text = report.render();
        assert!(text.contains("single matcher"), "{text}");
        assert!(!text.contains("flow in:"), "{text}");
    }
}
