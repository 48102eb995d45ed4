//! Forwarding wrappers that time calls into a layer without changing
//! the program behind it.
//!
//! Both wrappers override every trait method, defaulted ones included.
//! A missed override does not fail to compile: it silently routes the
//! call to the trait default and so measures another program. The
//! `NoSnap` backend in `crates/bench/src/bin/bench_json.rs` is the
//! example — it leaves `degree`, `cache_epoch`, `apply_batch` and
//! `pin_analytics_snapshot` on their defaults, so a traversal through it
//! takes the uncached, per-call path. The tests below check that a
//! traced run returns exactly what the untraced run returns and that the
//! defaulted hooks still reach the wrapped engine.

use snb_core::{
    CsrSnapshot, Direction, EdgeLabel, GraphBackend, GraphWrite, PropKey, Result, Value,
    VertexLabel, Vid,
};
use snb_datagen::{Dataset, UpdateOp};
use snb_driver::adapter::{OpResult, SutAdapter};
use snb_driver::ops::ReadOp;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::stats::Samples;
use crate::trace::{intern, Tracer, ROOT};
use crate::workload::{class_of, CLASSES};

/// A `SutAdapter` that records a span around every call.
pub struct TracedAdapter<'a> {
    inner: &'a dyn SutAdapter,
    tracer: &'a Tracer,
    read_names: [&'static str; 6],
    batch_name: &'static str,
    update_name: &'static str,
    load_name: &'static str,
    /// Latency of every `execute_update_batch` call.
    pub batches: Mutex<Samples>,
}

impl<'a> TracedAdapter<'a> {
    /// `prefix` names the spans, e.g. `ingest.cypher`.
    pub fn new(inner: &'a dyn SutAdapter, tracer: &'a Tracer, prefix: &str) -> Self {
        TracedAdapter {
            inner,
            tracer,
            read_names: CLASSES.map(|c| intern(&format!("{prefix}.read.{c}"))),
            batch_name: intern(&format!("{prefix}.update_batch")),
            update_name: intern(&format!("{prefix}.update")),
            load_name: intern(&format!("{prefix}.load")),
            batches: Mutex::new(Samples::default()),
        }
    }
}

impl SutAdapter for TracedAdapter<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn load(&self, snapshot: &Dataset) -> Result<()> {
        self.tracer
            .span(self.load_name, 0, || self.inner.load(snapshot))
    }

    fn execute_read(&self, op: &ReadOp) -> Result<OpResult> {
        self.tracer.span(self.read_names[class_of(op)], 0, || {
            self.inner.execute_read(op)
        })
    }

    fn execute_update(&self, op: &UpdateOp) -> Result<()> {
        self.tracer
            .span(self.update_name, 0, || self.inner.execute_update(op))
    }

    fn execute_update_batch(&self, ops: &[UpdateOp]) -> Result<usize> {
        let t0 = Instant::now();
        let out = self.inner.execute_update_batch(ops);
        let t1 = Instant::now();
        self.tracer
            .record(self.batch_name, ROOT, ops.len() as u64, t0, t1);
        self.batches
            .lock()
            .expect("batch samples poisoned")
            .push(t1 - t0);
        out
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    fn graph_backend(&self) -> Option<Arc<dyn GraphBackend>> {
        self.inner.graph_backend()
    }

    fn supports_concurrent_load(&self) -> bool {
        self.inner.supports_concurrent_load()
    }
}

/// A `GraphBackend` that records a `store.<method>` span around every
/// call, as a child of the span the caller names in [`TracedBackend::enter`].
pub struct TracedBackend<'a> {
    inner: &'a dyn GraphBackend,
    tracer: &'a Tracer,
    parent: AtomicU32,
    req: AtomicU64,
    calls: AtomicU64,
}

impl<'a> TracedBackend<'a> {
    pub fn new(inner: &'a dyn GraphBackend, tracer: &'a Tracer) -> Self {
        TracedBackend {
            inner,
            tracer,
            parent: AtomicU32::new(ROOT),
            req: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// Attribute the following calls to span `parent` of request `req`.
    pub fn enter(&self, parent: u32, req: u64) {
        self.parent.store(parent, Ordering::Relaxed);
        self.req.store(req, Ordering::Relaxed);
    }

    /// Calls forwarded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.tracer.record(
            name,
            self.parent.load(Ordering::Relaxed),
            self.req.load(Ordering::Relaxed),
            t0,
            t1,
        );
        out
    }
}

impl GraphBackend for TracedBackend<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn add_vertex(
        &self,
        label: VertexLabel,
        local_id: u64,
        props: &[(PropKey, Value)],
    ) -> Result<Vid> {
        self.timed("store.add_vertex", || {
            self.inner.add_vertex(label, local_id, props)
        })
    }
    fn add_edge(
        &self,
        label: EdgeLabel,
        src: Vid,
        dst: Vid,
        props: &[(PropKey, Value)],
    ) -> Result<()> {
        self.timed("store.add_edge", || {
            self.inner.add_edge(label, src, dst, props)
        })
    }
    fn vertex_exists(&self, v: Vid) -> bool {
        self.timed("store.vertex_exists", || self.inner.vertex_exists(v))
    }
    fn vertex_prop(&self, v: Vid, key: PropKey) -> Result<Option<Value>> {
        self.timed("store.vertex_prop", || self.inner.vertex_prop(v, key))
    }
    fn vertex_props(&self, v: Vid) -> Result<Vec<(PropKey, Value)>> {
        self.timed("store.vertex_props", || self.inner.vertex_props(v))
    }
    fn set_vertex_prop(&self, v: Vid, key: PropKey, value: Value) -> Result<()> {
        self.timed("store.set_vertex_prop", || {
            self.inner.set_vertex_prop(v, key, value)
        })
    }
    fn neighbors(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<EdgeLabel>,
        out: &mut Vec<Vid>,
    ) -> Result<()> {
        self.timed("store.neighbors", || {
            self.inner.neighbors(v, dir, label, out)
        })
    }
    fn edge_prop(
        &self,
        src: Vid,
        label: EdgeLabel,
        dst: Vid,
        key: PropKey,
    ) -> Result<Option<Value>> {
        self.timed("store.edge_prop", || {
            self.inner.edge_prop(src, label, dst, key)
        })
    }
    fn edge_exists(&self, src: Vid, label: EdgeLabel, dst: Vid) -> Result<bool> {
        self.timed("store.edge_exists", || {
            self.inner.edge_exists(src, label, dst)
        })
    }
    fn vertices_by_label(&self, label: VertexLabel) -> Result<Vec<Vid>> {
        self.timed("store.vertices_by_label", || {
            self.inner.vertices_by_label(label)
        })
    }
    fn vertex_count(&self) -> usize {
        self.timed("store.vertex_count", || self.inner.vertex_count())
    }
    fn edge_count(&self) -> usize {
        self.timed("store.edge_count", || self.inner.edge_count())
    }
    fn storage_bytes(&self) -> usize {
        self.timed("store.storage_bytes", || self.inner.storage_bytes())
    }
    fn degree(&self, v: Vid, dir: Direction, label: Option<EdgeLabel>) -> Result<usize> {
        self.timed("store.degree", || self.inner.degree(v, dir, label))
    }
    fn pin_snapshot(&self) -> Option<Arc<CsrSnapshot>> {
        self.timed("store.pin_snapshot", || self.inner.pin_snapshot())
    }
    fn pin_analytics_snapshot(&self) -> Option<Arc<CsrSnapshot>> {
        self.timed("store.pin_analytics_snapshot", || {
            self.inner.pin_analytics_snapshot()
        })
    }
    fn cache_epoch(&self) -> Option<u64> {
        self.timed("store.cache_epoch", || self.inner.cache_epoch())
    }
    fn apply_batch(&self, ops: &[GraphWrite]) -> Result<usize> {
        self.timed("store.apply_batch", || self.inner.apply_batch(ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_datagen::{generate, GeneratorConfig};
    use snb_driver::adapter::cypher::CypherAdapter;
    use snb_driver::adapter::gremlin::GremlinAdapter;
    use snb_driver::adapter::sparql::SparqlAdapter;
    use snb_driver::adapter::sql::SqlAdapter;
    use snb_gremlin::{execute_with, ExecConfig};

    use crate::workload::{gremlin_round, matrix_kinds, Inputs, ParamStream};

    fn data() -> snb_datagen::GeneratedData {
        let mut cfg = GeneratorConfig::scale(120);
        cfg.seed = 41;
        generate(&cfg)
    }

    /// Every read kind returns the same rows through the traced adapter
    /// as through the bare one, and a traced update stream leaves the
    /// same store behind as an untraced one.
    #[test]
    fn traced_adapter_returns_what_the_untraced_one_returns() {
        let data = data();
        let tracer = Tracer::new(true);
        let adapters: Vec<Box<dyn SutAdapter>> = vec![
            Box::new(CypherAdapter::new()),
            Box::new(SqlAdapter::row_store()),
            Box::new(SparqlAdapter::new()),
            Box::new(GremlinAdapter::titan_b()),
        ];
        let inputs = Inputs::new(&data);
        let mut params = ParamStream::new(&data, &inputs, 5);
        let ops: Vec<ReadOp> = matrix_kinds()
            .iter()
            .flat_map(|&k| params.draw(k, 3))
            .collect();
        for a in &adapters {
            a.load(&data.snapshot).unwrap();
            let traced = TracedAdapter::new(a.as_ref(), &tracer, "t");
            assert_eq!(
                traced.graph_backend().is_some(),
                a.graph_backend().is_some()
            );
            assert_eq!(
                traced.supports_concurrent_load(),
                a.supports_concurrent_load()
            );
            for op in &ops {
                assert_eq!(
                    traced.execute_read(op).unwrap(),
                    a.execute_read(op).unwrap(),
                    "{op:?}"
                );
            }
        }
        let plain = CypherAdapter::new();
        let inner = CypherAdapter::new();
        plain.load(&data.snapshot).unwrap();
        inner.load(&data.snapshot).unwrap();
        let traced = TracedAdapter::new(&inner, &tracer, "t");
        for chunk in data.updates.chunks(64) {
            assert_eq!(
                plain.execute_update_batch(chunk).unwrap(),
                traced.execute_update_batch(chunk).unwrap()
            );
        }
        assert_eq!(plain.store().write_seq(), inner.store().write_seq());
        assert_eq!(plain.store().vertex_count(), inner.store().vertex_count());
        assert_eq!(plain.store().edge_count(), inner.store().edge_count());
        assert_eq!(
            traced.batches.lock().unwrap().len(),
            data.updates.chunks(64).count()
        );
        assert!(!tracer.spans().is_empty());
    }

    /// The executor sees the same engine through the traced backend:
    /// same rows, and the snapshot and cache-epoch hooks are forwarded
    /// rather than left on their trait defaults.
    #[test]
    fn traced_backend_keeps_the_snapshot_and_epoch_hooks() {
        let data = data();
        let adapter = CypherAdapter::new();
        adapter.load(&data.snapshot).unwrap();
        adapter.store().compact_now();
        let store = adapter.graph_backend().unwrap();
        let tracer = Tracer::new(true);
        let traced = TracedBackend::new(&*store, &tracer);
        assert!(store.pin_snapshot().is_some());
        assert!(traced.pin_snapshot().is_some());
        assert_eq!(traced.cache_epoch(), store.cache_epoch());
        let inputs = Inputs::new(&data);
        let mut params = ParamStream::new(&data, &inputs, 9);
        let mut hot = params.zipf_persons(1.1);
        for (_, t) in gremlin_round(&mut params, &mut hot) {
            let want = execute_with(&*store, &t, ExecConfig::default()).unwrap();
            let got = execute_with(&traced, &t, ExecConfig::default()).unwrap();
            assert_eq!(got, want, "{t:?}");
        }
        assert!(traced.calls() > 0);
    }
}
