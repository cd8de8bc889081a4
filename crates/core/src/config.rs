use ci_graph::{MergeSpec, WeightConfig};
use ci_search::{QueryBudget, SearchOptions};

/// How node importance (Eq. 1) is computed.
#[derive(Debug, Clone)]
pub enum ImportanceMethod {
    /// Power iteration (the default).
    PowerIteration,
    /// Power iteration with a personalized teleport vector (one entry per
    /// graph node) — the user-feedback biasing mechanism.
    Personalized(Vec<f64>),
}

/// Which distance/retention index backs the search (§V).
#[derive(Debug, Clone)]
pub enum IndexKind {
    /// No index — the plain "Upbound search" of Figs. 11–12.
    None,
    /// The `O(|V|²)` naive index of §V-A (use on small graphs/samples).
    Naive,
    /// Star indexing (§V-B). `None` auto-detects the star relations
    /// (Movie / Paper on the paper's schemas).
    Star {
        /// Explicit star relation tags, or auto-detection.
        relations: Option<Vec<u16>>,
    },
}

/// Full engine configuration. Defaults follow the paper: α = 0.15, g = 20,
/// c = 0.15, D = 4, k = 10, star indexing.
#[derive(Debug, Clone)]
pub struct CiRankConfig {
    /// Dampening keep-probability α of Eq. 2.
    pub alpha: f64,
    /// Dampening group size g of Eq. 2.
    pub g: f64,
    /// Teleportation constant c of Eq. 1.
    pub teleport: f64,
    /// Maximum answer-tree diameter D.
    pub diameter: u32,
    /// Answers returned per query.
    pub k: usize,
    /// Hard cap on answer-tree size.
    pub max_tree_nodes: usize,
    /// Edge weights per link kind (Table II).
    pub weights: WeightConfig,
    /// Optional person merge (§VI-A).
    pub merge: Option<MergeSpec>,
    /// Index selection.
    pub index: IndexKind,
    /// Importance computation.
    pub importance: ImportanceMethod,
    /// Branch-and-bound expansion cap (safety valve on huge graphs; `None`
    /// preserves the exactness guarantee).
    pub max_expansions: Option<usize>,
    /// Naive search: stored paths per (matcher, endpoint) pair.
    pub naive_max_paths: usize,
    /// Naive search: per-root keyword combination cap.
    pub naive_max_combinations: usize,
    /// Worker threads for the offline build (importance power iteration
    /// and the per-source index traversals). Every thread count produces
    /// bit-identical snapshots; `1` runs today's serial code path exactly.
    /// Defaults to the machine's available parallelism.
    pub build_threads: usize,
}

impl Default for CiRankConfig {
    fn default() -> Self {
        CiRankConfig {
            alpha: 0.15,
            g: 20.0,
            teleport: 0.15,
            diameter: 4,
            k: 10,
            max_tree_nodes: 8,
            weights: WeightConfig::uniform(),
            merge: None,
            index: IndexKind::Star { relations: None },
            importance: ImportanceMethod::PowerIteration,
            max_expansions: None,
            naive_max_paths: 256,
            naive_max_combinations: 100_000,
            build_threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl CiRankConfig {
    /// The search options implied by this configuration.
    pub fn search_options(&self) -> SearchOptions {
        SearchOptions {
            diameter: self.diameter,
            k: self.k,
            max_tree_nodes: self.max_tree_nodes,
            budget: self.query_budget(),
            naive_max_paths: self.naive_max_paths,
            naive_max_combinations: self.naive_max_combinations,
            ..Default::default()
        }
    }

    /// The default per-session [`QueryBudget`] implied by this
    /// configuration: [`QueryBudget::default`] (unlimited on every
    /// truncation axis, preserving the exactness guarantee, with the
    /// default oracle-cache cap) plus the branch-and-bound expansion cap
    /// when one is set. Timeouts and memory caps are per-query decisions
    /// — set them on the session via [`crate::QuerySession::with_budget`].
    pub fn query_budget(&self) -> QueryBudget {
        match self.max_expansions {
            Some(n) => QueryBudget::default().with_max_expansions(n),
            None => QueryBudget::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = CiRankConfig::default();
        assert_eq!(c.alpha, 0.15);
        assert_eq!(c.g, 20.0);
        assert_eq!(c.teleport, 0.15);
        assert_eq!(c.diameter, 4);
        assert!(matches!(c.index, IndexKind::Star { relations: None }));
        assert!(c.build_threads >= 1, "build_threads must be usable as-is");
    }

    #[test]
    fn every_engine_budget_caps_the_oracle_cache() {
        let exact = CiRankConfig::default().query_budget();
        assert!(exact.is_unlimited(), "the default engine runs exact search");
        assert_eq!(
            exact.max_cache_entries,
            Some(QueryBudget::DEFAULT_CACHE_ENTRIES)
        );
        assert_eq!(CiRankConfig::default().search_options().budget, exact);
        let capped = CiRankConfig {
            max_expansions: Some(3000),
            ..CiRankConfig::default()
        }
        .query_budget();
        assert_eq!(capped.max_expansions, Some(3000));
        assert_eq!(capped.max_cache_entries, exact.max_cache_entries);
    }

    #[test]
    fn search_options_propagate() {
        let c = CiRankConfig {
            diameter: 6,
            k: 5,
            ..Default::default()
        };
        let o = c.search_options();
        assert_eq!(o.diameter, 6);
        assert_eq!(o.k, 5);
    }

    #[test]
    fn config_maps_expansion_cap_into_the_budget() {
        let unlimited = CiRankConfig::default();
        assert!(unlimited.query_budget().is_unlimited());
        let capped = CiRankConfig {
            max_expansions: Some(500),
            ..Default::default()
        };
        let b = capped.query_budget();
        assert_eq!(b.max_expansions, Some(500));
        assert!(b.timeout.is_none());
        assert!(!b.is_unlimited());
    }
}
