//! The TinkerPop-structure-like backend trait.
//!
//! [`GraphBackend`] is this suite's analogue of the Gremlin Structure
//! API: a common set of fine-grained vertex/edge/property operations
//! that any store can expose. The Gremlin traversal executor and the
//! bulk-loading utilities are written purely against this trait, exactly
//! as TinkerPop code runs unchanged on Neo4j, TitanDB, or Sqlg.
//!
//! Note the deliberate granularity: one call retrieves *one* vertex's
//! neighbours, one property, etc. This is the architectural property the
//! paper blames for TinkerPop's overhead — a complex graph operation is
//! translated into many small requests — and implementing the trait on
//! top of a relational store (à la Sqlg) reproduces it faithfully.

use crate::error::Result;
use crate::graph::Direction;
use crate::ids::{EdgeLabel, VertexLabel, Vid};
use crate::schema::PropKey;
use crate::value::Value;

/// One engine-neutral graph mutation — the unit of
/// [`GraphBackend::apply_batch`]. An SNB update operation expands to a
/// sequence of these (the new vertex, if any, followed by its edges).
#[derive(Debug, Clone, PartialEq)]
pub enum GraphWrite {
    /// Insert a vertex (semantics of [`GraphBackend::add_vertex`]).
    AddVertex { label: VertexLabel, local_id: u64, props: Vec<(PropKey, Value)> },
    /// Insert an edge (semantics of [`GraphBackend::add_edge`]).
    AddEdge { label: EdgeLabel, src: Vid, dst: Vid, props: Vec<(PropKey, Value)> },
}

/// Fine-grained structure API implemented by every store that can be
/// driven through the Gremlin layer.
///
/// All methods take `&self`: engines handle their own interior
/// mutability / locking, as the benchmark drives them from many threads.
pub trait GraphBackend: Send + Sync {
    /// Human-readable engine name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Insert a vertex. Fails with `Conflict` if the id already exists.
    fn add_vertex(&self, label: VertexLabel, local_id: u64, props: &[(PropKey, Value)]) -> Result<Vid>;

    /// Insert an edge between existing vertices. Fails with `NotFound`
    /// if either endpoint is missing and `Plan` if the combination is
    /// not in the SNB schema.
    fn add_edge(&self, label: EdgeLabel, src: Vid, dst: Vid, props: &[(PropKey, Value)]) -> Result<()>;

    /// True if the vertex exists.
    fn vertex_exists(&self, v: Vid) -> bool;

    /// Read one property of one vertex.
    fn vertex_prop(&self, v: Vid, key: PropKey) -> Result<Option<Value>>;

    /// Read all properties of one vertex.
    fn vertex_props(&self, v: Vid) -> Result<Vec<(PropKey, Value)>>;

    /// Set (insert or overwrite) one property of one vertex.
    fn set_vertex_prop(&self, v: Vid, key: PropKey, value: Value) -> Result<()>;

    /// Append the neighbours of `v` along `label` (any label if `None`)
    /// in direction `dir` to `out`. `Both` must not deduplicate: a
    /// vertex reachable by both an in- and an out-edge appears twice,
    /// matching Gremlin `both()` semantics.
    fn neighbors(&self, v: Vid, dir: Direction, label: Option<EdgeLabel>, out: &mut Vec<Vid>) -> Result<()>;

    /// Read one property of the edge `src -[label]-> dst`.
    fn edge_prop(&self, src: Vid, label: EdgeLabel, dst: Vid, key: PropKey) -> Result<Option<Value>>;

    /// True if the directed edge exists.
    fn edge_exists(&self, src: Vid, label: EdgeLabel, dst: Vid) -> Result<bool>;

    /// All vertices with the given label (scan; used by label-scan steps
    /// and by tests, not by indexed lookups).
    fn vertices_by_label(&self, label: VertexLabel) -> Result<Vec<Vid>>;

    /// Total vertex count.
    fn vertex_count(&self) -> usize;

    /// Total directed-edge count.
    fn edge_count(&self) -> usize;

    /// Approximate resident bytes of the store (Table 1's "database size").
    fn storage_bytes(&self) -> usize;

    /// Degree of a vertex; the default routes through [`Self::neighbors`],
    /// engines with cheaper degree bookkeeping may override.
    fn degree(&self, v: Vid, dir: Direction, label: Option<EdgeLabel>) -> Result<usize> {
        let mut buf = Vec::new();
        self.neighbors(v, dir, label, &mut buf)?;
        Ok(buf.len())
    }

    /// Pin an immutable CSR read snapshot that reflects *exactly* the
    /// writes applied so far, or `None` when no fresh snapshot is
    /// available (callers must fall back to the live read path, which
    /// preserves read-your-writes). Engines with an epoch compactor or
    /// snapshot cache override this; the default has none.
    fn pin_snapshot(&self) -> Option<std::sync::Arc<crate::snapshot::CsrSnapshot>> {
        None
    }

    /// Pin a CSR snapshot that may lag the current write sequence, for
    /// a reader that wants one consistent epoch and deliberately does not
    /// observe concurrent writes. Interactive reads must never use this
    /// (it breaks read-your-writes). The default serves only
    /// exactly-fresh snapshots, as [`Self::pin_snapshot`] does.
    fn pin_analytics_snapshot(&self) -> Option<std::sync::Arc<crate::snapshot::CsrSnapshot>> {
        self.pin_snapshot()
    }

    /// The store's write-sequence epoch for epoch-keyed result caching,
    /// or `None` when the engine has no monotone write counter (result
    /// caches must then bypass — without an epoch in the key, a cached
    /// entry could silently outlive a write). The contract: every
    /// mutation observable through this backend advances the returned
    /// value before the mutating call returns.
    fn cache_epoch(&self) -> Option<u64> {
        None
    }

    /// Apply a batch of writes in order, returning the number applied.
    ///
    /// The default is the obvious one-write-at-a-time loop; engines
    /// override it to take their write lock once per batch, pre-reserve
    /// capacity, and fold bookkeeping (checkpoint counters, WAL
    /// appends) per batch instead of per write. Overrides must preserve
    /// the in-order, stop-at-first-error semantics of this default: a
    /// failed write leaves the preceding prefix applied.
    fn apply_batch(&self, ops: &[GraphWrite]) -> Result<usize> {
        for op in ops {
            match op {
                GraphWrite::AddVertex { label, local_id, props } => {
                    self.add_vertex(*label, *local_id, props)?;
                }
                GraphWrite::AddEdge { label, src, dst, props } => {
                    self.add_edge(*label, *src, *dst, props)?;
                }
            }
        }
        Ok(ops.len())
    }
}

/// Blanket impl so `Arc<dyn GraphBackend>`/`&T` can be passed where a
/// backend is expected.
impl<T: GraphBackend + ?Sized> GraphBackend for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn add_vertex(&self, label: VertexLabel, local_id: u64, props: &[(PropKey, Value)]) -> Result<Vid> {
        (**self).add_vertex(label, local_id, props)
    }
    fn add_edge(&self, label: EdgeLabel, src: Vid, dst: Vid, props: &[(PropKey, Value)]) -> Result<()> {
        (**self).add_edge(label, src, dst, props)
    }
    fn vertex_exists(&self, v: Vid) -> bool {
        (**self).vertex_exists(v)
    }
    fn vertex_prop(&self, v: Vid, key: PropKey) -> Result<Option<Value>> {
        (**self).vertex_prop(v, key)
    }
    fn vertex_props(&self, v: Vid) -> Result<Vec<(PropKey, Value)>> {
        (**self).vertex_props(v)
    }
    fn set_vertex_prop(&self, v: Vid, key: PropKey, value: Value) -> Result<()> {
        (**self).set_vertex_prop(v, key, value)
    }
    fn neighbors(&self, v: Vid, dir: Direction, label: Option<EdgeLabel>, out: &mut Vec<Vid>) -> Result<()> {
        (**self).neighbors(v, dir, label, out)
    }
    fn edge_prop(&self, src: Vid, label: EdgeLabel, dst: Vid, key: PropKey) -> Result<Option<Value>> {
        (**self).edge_prop(src, label, dst, key)
    }
    fn edge_exists(&self, src: Vid, label: EdgeLabel, dst: Vid) -> Result<bool> {
        (**self).edge_exists(src, label, dst)
    }
    fn vertices_by_label(&self, label: VertexLabel) -> Result<Vec<Vid>> {
        (**self).vertices_by_label(label)
    }
    fn vertex_count(&self) -> usize {
        (**self).vertex_count()
    }
    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }
    fn storage_bytes(&self) -> usize {
        (**self).storage_bytes()
    }
    fn degree(&self, v: Vid, dir: Direction, label: Option<EdgeLabel>) -> Result<usize> {
        (**self).degree(v, dir, label)
    }
    fn apply_batch(&self, ops: &[GraphWrite]) -> Result<usize> {
        (**self).apply_batch(ops)
    }
    fn pin_snapshot(&self) -> Option<std::sync::Arc<crate::snapshot::CsrSnapshot>> {
        (**self).pin_snapshot()
    }
    fn pin_analytics_snapshot(&self) -> Option<std::sync::Arc<crate::snapshot::CsrSnapshot>> {
        (**self).pin_analytics_snapshot()
    }
    fn cache_epoch(&self) -> Option<u64> {
        (**self).cache_epoch()
    }
}
