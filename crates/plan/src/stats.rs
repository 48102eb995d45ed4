//! Statistics feeding the cost model.
//!
//! The pipeline consumes statistics through [`PlanStats`] so front ends
//! can plug in whatever they have: the Cypher engine samples degree
//! counts from the pinned [`CsrSnapshot`] ([`CsrStats`]), the SQL
//! engine reports table row counts, index presence and index key
//! counts, and tests plan against fixed defaults ([`NoStats`]).
//! Estimates only order work — correctness never depends on them — so
//! cheap sampled numbers are plenty.

use snb_core::{CsrSnapshot, Direction, EdgeLabel, VertexLabel};
use std::sync::Arc;

/// Rows sampled per label when estimating average degree.
pub const DEGREE_SAMPLE_CAP: usize = 256;

/// Cost-model inputs. Defaults are deliberately bland: a planner with
/// no statistics should behave like a planner with uniform data.
pub trait PlanStats {
    /// Total vertex/row population of the store.
    fn total_rows(&self) -> f64 {
        1000.0
    }
    /// Vertices carrying `label` (`None` = all vertices).
    fn label_rows(&self, _label: Option<VertexLabel>) -> f64 {
        self.total_rows()
    }
    /// Average adjacency fan-out from vertices of `label` along
    /// `dir`/`elabel`.
    fn avg_degree(&self, _label: Option<VertexLabel>, _dir: Direction, _elabel: Option<EdgeLabel>) -> f64 {
        10.0
    }
    /// Row count of a relational table.
    fn table_rows(&self, _table: &str) -> f64 {
        1000.0
    }
    /// Whether `table.col` has an equality index.
    fn table_indexed(&self, _table: &str, _col: &str) -> bool {
        false
    }
    /// Distinct values of the indexed `table.col`; `None` when unknown,
    /// which leaves an index probe estimated at `rows × selectivity`.
    fn table_distinct(&self, _table: &str, _col: &str) -> Option<f64> {
        None
    }
}

/// No statistics: every default, everywhere.
pub struct NoStats;

impl PlanStats for NoStats {}

/// Degree statistics sampled from a pinned CSR snapshot. Sampling is
/// capped at [`DEGREE_SAMPLE_CAP`] rows per query, so planning stays
/// cheap even on large snapshots; label populations are exact (the
/// snapshot already groups rows by label).
pub struct CsrStats {
    snap: Arc<CsrSnapshot>,
}

impl CsrStats {
    pub fn new(snap: Arc<CsrSnapshot>) -> Self {
        CsrStats { snap }
    }
}

impl PlanStats for CsrStats {
    fn total_rows(&self) -> f64 {
        self.snap.n_rows() as f64
    }

    fn label_rows(&self, label: Option<VertexLabel>) -> f64 {
        match label {
            Some(l) => self.snap.rows_by_label(l).len() as f64,
            None => self.snap.n_rows() as f64,
        }
    }

    fn avg_degree(&self, label: Option<VertexLabel>, dir: Direction, elabel: Option<EdgeLabel>) -> f64 {
        self.snap.sampled_avg_degree(label, dir, elabel, DEGREE_SAMPLE_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_stats_defaults_are_uniform() {
        let s = NoStats;
        assert_eq!(s.total_rows(), s.label_rows(Some(VertexLabel::Person)));
        assert!(!s.table_indexed("person", "id"));
        assert_eq!(s.table_distinct("person", "id"), None);
    }
}
