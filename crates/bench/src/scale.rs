//! The million-vertex scale run (PR 10): stream-generate a
//! `GeneratorConfig::scale` network without ever materializing it,
//! bulk-load the snapshot half into the native store while the post-cut
//! half drains through the partitioned ingest path, fold the full-graph
//! CSR, and measure what the paper's scale question actually asks:
//! resident bytes per vertex/edge and interactive read throughput
//! (two-hop plus the IC-style complex reads) at that size.
//!
//! Run by the `scale_smoke` CI binary (100K persons by default;
//! `SNB_SCALE_PERSONS` sizes it up to the million-person run).

use snb_datagen::{generate_stream, GeneratorConfig, StreamItem};
use snb_driver::adapter::cypher::CypherAdapter;
use snb_driver::{complex, run_ingest_iter, IngestConfig};
use snb_graph_native::NativeGraphStore;
use snb_core::{Direction, EdgeLabel, GraphBackend, VertexLabel, Vid};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use crate::env_u64;

/// Knobs of one scale run (all overridable from the environment in the
/// binaries; the defaults here are the CI smoke shape).
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Persons in the generated network (`SNB_SCALE_PERSONS`).
    pub persons: usize,
    /// Generator seed.
    pub seed: u64,
    /// Streaming chunk size (`SNB_SCALE_CHUNK`). Determinism is
    /// independent of this by construction; it only bounds the
    /// materialized working set per hand-off.
    pub chunk_size: usize,
    /// Parallel appliers draining the post-cut update stream.
    pub appliers: usize,
    /// Per-metric measurement budget for the read throughputs.
    pub budget: Duration,
}

impl ScaleConfig {
    /// Configuration from the environment: `SNB_SCALE_PERSONS`
    /// (default 100 000), `SNB_SCALE_CHUNK` (default 8192),
    /// `SNB_SCALE_APPLIERS` (default 2), seed shared with `SNB_SEED`.
    pub fn from_env() -> Self {
        ScaleConfig {
            persons: env_u64("SNB_SCALE_PERSONS", 100_000) as usize,
            seed: env_u64("SNB_SEED", GeneratorConfig::default().seed),
            chunk_size: env_u64("SNB_SCALE_CHUNK", 8192) as usize,
            appliers: env_u64("SNB_SCALE_APPLIERS", 2) as usize,
            budget: Duration::from_millis(env_u64("SNB_BENCH_MILLIS", 300)),
        }
    }
}

/// What one scale run measured.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    pub persons: usize,
    /// Vertices resident after snapshot load + update drain.
    pub vertices: usize,
    /// Edges resident after snapshot load + update drain.
    pub edges: usize,
    /// Post-cut operations drained through the ingest path.
    pub stream_updates: u64,
    /// Chunks the streaming generator handed over.
    pub chunks: usize,
    /// Wall-clock seconds from first generated item to fully folded
    /// CSR (generation + bulk load + ingest drain + compaction).
    pub build_seconds: f64,
    /// Throughput of the update drain alone.
    pub ingest_updates_per_sec: f64,
    /// CSR accounting: resident bytes over rows / stored edges.
    pub bytes_per_vertex: f64,
    pub bytes_per_edge: f64,
    /// Total resident CSR bytes (columns + adjacency).
    pub resident_bytes: usize,
    /// Friends-of-friends expansion over the pinned CSR.
    pub two_hop_ops_per_sec: f64,
    /// IC-style complex reads over the pinned CSR.
    pub foaf_posts_per_sec: f64,
    pub recent_messages_per_sec: f64,
    pub mutual_friends_per_sec: f64,
}

/// Closed-loop ops/sec with a small batch granularity — the complex
/// reads at a million persons are orders of magnitude slower than the
/// micro ops, so the inner batch must not overshoot the budget.
fn measured_ops(budget: Duration, mut op: impl FnMut()) -> f64 {
    for _ in 0..4 {
        op(); // warmup
    }
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..4 {
            op();
        }
        n += 4;
    }
    n as f64 / t0.elapsed().as_secs_f64()
}

/// Run the full scale pipeline and measure it. Panics (failing the
/// gate) if the ingest drain reports errors or the folded CSR loses
/// rows relative to the store.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    let gen_cfg = GeneratorConfig { seed: cfg.seed, ..GeneratorConfig::scale(cfg.persons) };
    let cut_ms = gen_cfg.cut_ms();
    let adapter = CypherAdapter::new();
    let store: &NativeGraphStore = adapter.store();

    // The pipeline: the generator thread bulk-loads snapshot items as
    // they are emitted (the stream orders them so no edge precedes its
    // endpoints) and forwards post-cut operations through a bounded
    // channel into the partitioned ingest topic. Nothing ever holds
    // more than a chunk plus the channel's backlog in memory.
    let t0 = Instant::now();
    let (tx, rx) = sync_channel::<snb_datagen::UpdateOp>(4 * cfg.chunk_size.max(1));
    let mut stats = None;
    let mut ingest = None;
    std::thread::scope(|scope| {
        let producer = scope.spawn(|| {
            let tx = tx; // move: dropping it ends the applier side
            generate_stream(&gen_cfg, cfg.chunk_size, |chunk| {
                for item in chunk {
                    match item {
                        StreamItem::Vertex(v) => {
                            store.add_vertex(v.label, v.id, &v.props).expect("scale vertex");
                        }
                        StreamItem::Edge(e) => {
                            store.add_edge(e.label, e.src, e.dst, &e.props).expect("scale edge");
                        }
                        StreamItem::Update(op) => {
                            tx.send(op).expect("ingest side hung up");
                        }
                    }
                }
            })
        });
        let report = run_ingest_iter(
            &adapter,
            rx.into_iter(),
            cut_ms,
            &IngestConfig { appliers: cfg.appliers, batch_size: 256, ..IngestConfig::default() },
        );
        stats = Some(producer.join().expect("scale generator thread"));
        ingest = Some(report);
    });
    let stats = stats.expect("generator ran");
    let ingest = ingest.expect("ingest ran");
    assert_eq!(ingest.errors, 0, "scale ingest drain must be clean");
    assert_eq!(ingest.applied, stats.updates as u64, "every streamed update applied");

    store.compact_now();
    let build_seconds = t0.elapsed().as_secs_f64();
    let snap = store.pin_snapshot().expect("CSR fresh after compact_now");
    assert_eq!(snap.n_rows(), store.vertex_count(), "folded CSR covers every vertex");

    // Person sample for the read loops: an id stride across the whole
    // range so the working set is not one hot cache line.
    let persons: Vec<Vid> = store.vertices_by_label(VertexLabel::Person).expect("persons");
    let step = (persons.len() / 1024).max(1);
    let sample: Vec<u64> = persons.iter().step_by(step).map(|v| v.local()).collect();
    let rows: Vec<u32> = sample
        .iter()
        .map(|&p| snap.row_of(Vid::new(VertexLabel::Person, p)).expect("person row"))
        .collect();

    let mut i = 0usize;
    let mut hop1: Vec<u32> = Vec::new();
    let mut hop2: Vec<u32> = Vec::new();
    let two_hop_ops_per_sec = measured_ops(cfg.budget, || {
        let r = rows[i % rows.len()];
        i = i.wrapping_add(7);
        hop1.clear();
        snap.neighbors_into(r, Direction::Both, Some(EdgeLabel::Knows), &mut hop1);
        let mut reached = hop1.len();
        for &f in &hop1 {
            hop2.clear();
            snap.neighbors_into(f, Direction::Both, Some(EdgeLabel::Knows), &mut hop2);
            reached += hop2.len();
        }
        std::hint::black_box(reached);
    });

    let min_date = cut_ms - 300 * 24 * 3600 * 1000;
    let mut i = 0usize;
    let foaf_posts_per_sec = measured_ops(cfg.budget, || {
        let p = sample[i % sample.len()];
        i = i.wrapping_add(7);
        std::hint::black_box(complex::foaf_posts(&snap, p, min_date, 20));
    });
    let mut i = 0usize;
    let recent_messages_per_sec = measured_ops(cfg.budget, || {
        let p = sample[i % sample.len()];
        i = i.wrapping_add(7);
        std::hint::black_box(complex::recent_messages(&snap, p, 20));
    });
    let mut i = 0usize;
    let mutual_friends_per_sec = measured_ops(cfg.budget, || {
        let p = sample[i % sample.len()];
        i = i.wrapping_add(7);
        std::hint::black_box(complex::mutual_friends(&snap, p, 10));
    });

    ScaleReport {
        persons: cfg.persons,
        vertices: store.vertex_count(),
        edges: store.edge_count(),
        stream_updates: stats.updates as u64,
        chunks: stats.chunks,
        build_seconds,
        ingest_updates_per_sec: ingest.updates_per_sec(),
        bytes_per_vertex: snap.bytes_per_vertex(),
        bytes_per_edge: snap.bytes_per_edge(),
        resident_bytes: snap.heap_bytes(),
        two_hop_ops_per_sec,
        foaf_posts_per_sec,
        recent_messages_per_sec,
        mutual_friends_per_sec,
    }
}
