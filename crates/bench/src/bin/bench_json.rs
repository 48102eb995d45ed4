//! Machine-readable performance gate: runs the `micro_ops` operation
//! suite (point lookup + 1-hop per engine), the structure-level
//! read-path micros, the update-apply path, and a reader-scaling sweep
//! against the native store, then writes the results as named metrics
//! to a `BENCH_<n>.json` file at the repo root. Every PR from this one
//! onward appends a snapshot, so the perf trajectory is diffable.
//!
//! Usage: `cargo run --release --bin bench_json [out.json]`
//! (`SNB_BENCH_SECS` scales the per-metric measurement budget.)

use snb_analytics::{AnalyticsConfig, JobId, JobKind, JobOutput, JobSpec, JobState, PageRankConfig};
use snb_bench::{env_f64, env_u64, Zipf};
use snb_core::metrics::LatencyStats;
use snb_core::{Direction, EdgeLabel, GraphBackend, PropKey, Result, Value, VertexLabel, Vid};
use snb_datagen::{generate, GeneratorConfig};
use snb_driver::adapter::cypher::CypherAdapter;
use snb_driver::adapter::{build_adapter, SutAdapter, SutKind, ALL_SUT_KINDS};
use snb_driver::ops::{ParamGen, ReadOp};
use snb_driver::router::ShardRouter;
use snb_driver::{run_ingest, IngestConfig};
use snb_graph_native::NativeGraphStore;
use snb_gremlin::{execute_with, wire, ExecConfig, GremlinServer, ServerConfig, Traversal};
use snb_net::{AnalyticsClient, ClientConfig, IoModel, NetPool, NetServer, NetServerConfig};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop ops/sec of one operation within a time budget.
fn ops_per_sec(budget: Duration, mut op: impl FnMut()) -> f64 {
    for _ in 0..16 {
        op(); // warmup
    }
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..64 {
            op();
        }
        n += 64;
    }
    n as f64 / t0.elapsed().as_secs_f64()
}

/// Best of `rounds` closed-loop measurements. The gate metrics use this
/// so a single descheduled window can't record a phantom regression
/// (run-to-run spread on a busy 1-core box exceeds 30%).
fn best_ops_per_sec(rounds: usize, budget: Duration, mut op: impl FnMut()) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..rounds {
        best = best.max(ops_per_sec(budget, &mut op));
    }
    best
}

/// Closed-loop throughput plus per-op latency percentiles.
fn ops_with_latency(budget: Duration, mut op: impl FnMut()) -> (f64, LatencyStats) {
    for _ in 0..16 {
        op(); // warmup
    }
    let mut stats = LatencyStats::new();
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..16 {
            let s = Instant::now();
            op();
            stats.record(s.elapsed());
        }
        n += 16;
    }
    (n as f64 / t0.elapsed().as_secs_f64(), stats)
}

/// Reader-side pacing. `SNB_READ_PACING` (µs) wins; the pre-PR-4 name
/// `SNB_PACING_MICROS` is honoured as a fallback so existing run
/// scripts keep working.
fn read_pacing() -> Duration {
    Duration::from_micros(env_u64("SNB_READ_PACING", env_u64("SNB_PACING_MICROS", 100)))
}

/// The native store with its CSR snapshot suppressed: every executor
/// read decomposes into per-call structure-API reads through the store
/// lock — the pre-snapshot behaviour, kept measurable as the baseline
/// of the `traversal` section.
struct NoSnap<'a>(&'a NativeGraphStore);

impl GraphBackend for NoSnap<'_> {
    fn name(&self) -> &'static str {
        "native-nosnap"
    }
    fn add_vertex(
        &self,
        label: VertexLabel,
        local_id: u64,
        props: &[(PropKey, Value)],
    ) -> Result<Vid> {
        self.0.add_vertex(label, local_id, props)
    }
    fn add_edge(&self, label: EdgeLabel, src: Vid, dst: Vid, props: &[(PropKey, Value)]) -> Result<()> {
        self.0.add_edge(label, src, dst, props)
    }
    fn vertex_exists(&self, v: Vid) -> bool {
        self.0.vertex_exists(v)
    }
    fn vertex_prop(&self, v: Vid, key: PropKey) -> Result<Option<Value>> {
        self.0.vertex_prop(v, key)
    }
    fn vertex_props(&self, v: Vid) -> Result<Vec<(PropKey, Value)>> {
        self.0.vertex_props(v)
    }
    fn set_vertex_prop(&self, v: Vid, key: PropKey, value: Value) -> Result<()> {
        self.0.set_vertex_prop(v, key, value)
    }
    fn neighbors(&self, v: Vid, dir: Direction, label: Option<EdgeLabel>, out: &mut Vec<Vid>) -> Result<()> {
        self.0.neighbors(v, dir, label, out)
    }
    fn edge_prop(&self, src: Vid, label: EdgeLabel, dst: Vid, key: PropKey) -> Result<Option<Value>> {
        self.0.edge_prop(src, label, dst, key)
    }
    fn edge_exists(&self, src: Vid, label: EdgeLabel, dst: Vid) -> Result<bool> {
        self.0.edge_exists(src, label, dst)
    }
    fn vertices_by_label(&self, label: VertexLabel) -> Result<Vec<Vid>> {
        self.0.vertices_by_label(label)
    }
    fn vertex_count(&self) -> usize {
        self.0.vertex_count()
    }
    fn edge_count(&self) -> usize {
        self.0.edge_count()
    }
    fn storage_bytes(&self) -> usize {
        self.0.storage_bytes()
    }
    fn pin_snapshot(&self) -> Option<Arc<snb_core::CsrSnapshot>> {
        None
    }
}

fn native_store(data: &snb_datagen::GeneratedData) -> NativeGraphStore {
    let store = NativeGraphStore::new();
    for v in &data.snapshot.vertices {
        store.add_vertex(v.label, v.id, &v.props).unwrap();
    }
    for e in &data.snapshot.edges {
        store.add_edge(e.label, e.src, e.dst, &e.props).unwrap();
    }
    store
}

/// Reads/sec with `readers` concurrent closed-loop threads issuing the
/// structure-level read mix (point property + 1-hop) against the store.
///
/// Each iteration models the client round-trip (`SNB_PACING_MICROS`,
/// default 100µs; 0 disables) the way the paper's closed-loop clients
/// pay one per request: pacing is off-CPU, so concurrent readers only
/// scale if the store lets their on-CPU read sections overlap/interleave
/// instead of serializing behind a store-wide lock. This keeps the
/// scaling signal meaningful on small containers where raw CPU-bound
/// loops saturate a single core with one reader.
fn reader_scaling(store: &NativeGraphStore, persons: &[Vid], readers: usize, secs: f64) -> f64 {
    let pacing = read_pacing();
    let total = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        for r in 0..readers {
            let total = &total;
            scope.spawn(move || {
                let mut buf = Vec::new();
                let mut n = 0u64;
                let mut i = r;
                while Instant::now() < deadline {
                    let v = persons[i % persons.len()];
                    let _ = store.vertex_prop(v, PropKey::FirstName);
                    buf.clear();
                    let _ = store.neighbors(v, Direction::Both, Some(EdgeLabel::Knows), &mut buf);
                    n += 2;
                    i = i.wrapping_add(7);
                    if !pacing.is_zero() {
                        std::thread::sleep(pacing);
                    }
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
    });
    total.load(Ordering::Relaxed) as f64 / secs
}

/// Round trips/sec over real loopback TCP with `conns` closed-loop
/// client threads, each holding its own single-connection pool to the
/// framed server — the socket-layer analogue of `reader_scaling`.
///
/// Every iteration pays the full network path the paper's clients pay:
/// encode traversal → frame → write(2) → server queue → worker → frame
/// → read(2) → decode values. Comparing these numbers with the
/// in-process `engines` section isolates the transport tax.
fn network_round_trips(addr: SocketAddr, persons: &[Vid], conns: usize, secs: f64) -> f64 {
    let total = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        for c in 0..conns {
            let total = &total;
            scope.spawn(move || {
                let pool = NetPool::connect(
                    addr,
                    ClientConfig { connections: 1, ..Default::default() },
                )
                .expect("connect bench pool");
                let mut n = 0u64;
                let mut i = c;
                while Instant::now() < deadline {
                    let v = persons[i % persons.len()];
                    // Alternate point lookup and 1-hop, like the read mix.
                    let t = if n % 2 == 0 {
                        Traversal::v(v).values(PropKey::FirstName)
                    } else {
                        Traversal::v(v).both(EdgeLabel::Knows).dedup().count()
                    };
                    pool.submit(&t).expect("bench round trip");
                    n += 1;
                    i = i.wrapping_add(7);
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
    });
    total.load(Ordering::Relaxed) as f64 / secs
}

/// Round trips/sec of the scatter-gather router's *routed* single-shard
/// path: the same alternating point/1-hop traversal shapes as
/// [`network_round_trips`], but each request first hashes its key to
/// the owner shard's pool. At 1 shard this is the reactor sweep plus
/// one hash per request; at N shards the closed-loop clients spread
/// over N independent server stacks.
fn sharded_round_trips(router: &ShardRouter, persons: &[Vid], conns: usize, secs: f64) -> f64 {
    let total = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        for c in 0..conns {
            let total = &total;
            scope.spawn(move || {
                let mut n = 0u64;
                let mut i = c;
                while Instant::now() < deadline {
                    let v = persons[i % persons.len()];
                    let t = if n % 2 == 0 {
                        Traversal::v(v).values(PropKey::FirstName)
                    } else {
                        Traversal::v(v).both(EdgeLabel::Knows).dedup().count()
                    };
                    router.pool_for(v).submit(&t).expect("sharded round trip");
                    n += 1;
                    i = i.wrapping_add(7);
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
    });
    total.load(Ordering::Relaxed) as f64 / secs
}

/// Two-hop reads/sec through the router's frontier scatter-gather path
/// (`readers` concurrent closed-loop clients). Each operation is three
/// pipelined waves — expand, expand, props — fanned out per shard, so
/// with N shards the frontier work of one query runs on N engine
/// stacks concurrently.
fn sharded_two_hop(router: &ShardRouter, persons: &[Vid], readers: usize, secs: f64) -> f64 {
    let total = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        for r in 0..readers {
            let total = &total;
            scope.spawn(move || {
                let mut n = 0u64;
                let mut i = r;
                while Instant::now() < deadline {
                    let person = persons[i % persons.len()].local();
                    router
                        .execute_read(&ReadOp::TwoHop { person })
                        .expect("sharded two-hop");
                    n += 1;
                    i = i.wrapping_add(7);
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
    });
    total.load(Ordering::Relaxed) as f64 / secs
}

/// Round trips/sec of ONE closed-loop client submitting pipelined
/// batches of `batch` point lookups over a single connection: all
/// requests in a batch leave in one syscall (`NetPool::submit_batch`)
/// and the server (reactor model) decodes the burst from one read and
/// coalesces the replies into one `writev`. The per-request syscall tax
/// amortizes across the batch, so this number should sit far above the
/// single-connection request-at-a-time figure.
fn pipelined_batch_round_trips(addr: SocketAddr, persons: &[Vid], batch: usize, secs: f64) -> f64 {
    let pool = NetPool::connect(addr, ClientConfig { connections: 1, ..Default::default() })
        .expect("connect batch bench pool");
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    let mut n = 0u64;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let traversals: Vec<Traversal> = (0..batch)
            .map(|k| Traversal::v(persons[(i + k * 7) % persons.len()]).values(PropKey::FirstName))
            .collect();
        i = i.wrapping_add(1);
        for r in pool.submit_batch(&traversals).expect("batch round trip") {
            r.expect("batched lookup");
            n += 1;
        }
    }
    n as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_1.json".to_string());
    let budget = Duration::from_millis(env_u64("SNB_BENCH_MILLIS", 300));
    let scale_secs = env_u64("SNB_BENCH_SECS", 2) as f64;

    let mut cfg = GeneratorConfig::tiny();
    cfg.persons = 150;
    let data = generate(&cfg);

    // --- Structure-level micros on the native store ------------------
    let store = native_store(&data);
    let persons: Vec<Vid> = store.vertices_by_label(VertexLabel::Person).unwrap();
    eprintln!("[bench] native store: {} vertices, {} edges", store.vertex_count(), store.edge_count());

    let mut i = 0usize;
    let vertex_lookup = ops_per_sec(budget, || {
        let v = persons[i % persons.len()];
        i = i.wrapping_add(1);
        let _ = store.vertex_prop(v, PropKey::FirstName).unwrap();
    });
    eprintln!("[bench] vertex_lookup: {vertex_lookup:.0} ops/s");

    // The locked adjacency-list walk — the read path every release
    // before PR 4 measured as `two_hop_expansion_ops_per_sec`. Kept as
    // its own metric so the snapshot speedup below stays attributable.
    let mut i = 0usize;
    let mut hop1 = Vec::new();
    let mut hop2 = Vec::new();
    let two_hop_locked = best_ops_per_sec(3, budget, || {
        let v = persons[i % persons.len()];
        i = i.wrapping_add(1);
        hop1.clear();
        store.neighbors(v, Direction::Both, Some(EdgeLabel::Knows), &mut hop1).unwrap();
        let mut reached = hop1.len();
        for &f in &hop1 {
            hop2.clear();
            store.neighbors(f, Direction::Both, Some(EdgeLabel::Knows), &mut hop2).unwrap();
            reached += hop2.len();
        }
        std::hint::black_box(reached);
    });
    eprintln!("[bench] two_hop_locked: {two_hop_locked:.0} ops/s");

    // The hot path as of PR 4: the same expansion against the pinned
    // epoch CSR — no store lock, no per-vertex hash probe on the inner
    // hop, contiguous target scans.
    store.compact_now();
    let snap = store.pin_snapshot().expect("CSR fresh after compact_now");
    let rows: Vec<u32> =
        persons.iter().map(|&v| snap.row_of(v).expect("person in snapshot")).collect();
    let mut i = 0usize;
    let mut hop1r: Vec<u32> = Vec::new();
    let mut hop2r: Vec<u32> = Vec::new();
    let two_hop = best_ops_per_sec(3, budget, || {
        let r = rows[i % rows.len()];
        i = i.wrapping_add(1);
        hop1r.clear();
        snap.neighbors_into(r, Direction::Both, Some(EdgeLabel::Knows), &mut hop1r);
        let mut reached = hop1r.len();
        for &f in &hop1r {
            hop2r.clear();
            snap.neighbors_into(f, Direction::Both, Some(EdgeLabel::Knows), &mut hop2r);
            reached += hop2r.len();
        }
        std::hint::black_box(reached);
    });
    eprintln!("[bench] two_hop_expansion (snapshot): {two_hop:.0} ops/s");

    // --- Update-apply through the interactive writer path ------------
    let adapter = build_adapter(SutKind::NativeCypher);
    adapter.load(&data.snapshot).unwrap();
    let t0 = Instant::now();
    let mut applied = 0u64;
    for op in &data.updates {
        adapter.execute_update(op).unwrap();
        applied += 1;
    }
    let update_apply = applied as f64 / t0.elapsed().as_secs_f64();
    eprintln!("[bench] update_apply: {update_apply:.0} ops/s ({applied} ops)");

    // --- Reader scaling against the native store ---------------------
    let mut readers_json = String::new();
    let mut reads_at = [0.0f64; 3];
    for (slot, &readers) in [1usize, 8, 32].iter().enumerate() {
        let rps = reader_scaling(&store, &persons, readers, scale_secs);
        reads_at[slot] = rps;
        eprintln!("[bench] readers={readers}: {rps:.0} reads/s");
        if slot > 0 {
            readers_json.push_str(", ");
        }
        let _ = write!(readers_json, "\"{readers}\": {rps:.1}");
    }

    // --- Round trips over real loopback TCP --------------------------
    // Both I/O models, same backend, same connection sweep — the
    // reactor-vs-threads comparison this file's `io_models` section
    // exists for. The 128-connection point needs headroom the defaults
    // don't give: 128 closed-loop clients keep up to 128 requests in
    // flight (queue capacity) and hold 128 sockets (connection limit).
    const NET_CONNS: [usize; 4] = [1, 8, 32, 128];
    let start_bench_server = |io: IoModel| {
        let gremlin = GremlinServer::start(
            Arc::new(native_store(&data)),
            ServerConfig { queue_capacity: 2048, ..Default::default() },
        );
        NetServer::start(
            gremlin,
            NetServerConfig { max_connections: 512, io_model: io, ..Default::default() },
        )
        .expect("bind loopback bench server")
    };
    let mut io_model_sweeps: Vec<(&str, [f64; NET_CONNS.len()])> = Vec::new();
    for (io_name, io) in [("threaded", IoModel::Threaded), ("reactor", IoModel::Reactor)] {
        let server = start_bench_server(io);
        let addr = server.local_addr();
        // Like the sharding sweep: the validator gates the 32-conn
        // point AGAINST the 8-conn point, so each point reports the
        // median of 3 interleaved rounds — ambient-load spikes hit all
        // connection counts instead of whichever one they landed on.
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); NET_CONNS.len()];
        for _round in 0..3 {
            for (slot, &conns) in NET_CONNS.iter().enumerate() {
                samples[slot].push(network_round_trips(addr, &persons, conns, scale_secs));
            }
        }
        let mut sweep = [0.0f64; NET_CONNS.len()];
        for (slot, &conns) in NET_CONNS.iter().enumerate() {
            let mut v = std::mem::take(&mut samples[slot]);
            v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let rps = v[v.len() / 2];
            eprintln!(
                "[bench] network io={io_name} connections={conns}: {rps:.0} round trips/s (median of 3)"
            );
            sweep[slot] = rps;
        }
        io_model_sweeps.push((io_name, sweep));
    }
    // Pipelined batch submission, measured against the reactor server
    // (its batched read path is what the client half was built for).
    let batch_server = start_bench_server(IoModel::Reactor);
    let batch_rt =
        pipelined_batch_round_trips(batch_server.local_addr(), &persons, 64, scale_secs);
    eprintln!("[bench] network pipelined batch (64/submit, 1 conn): {batch_rt:.0} round trips/s");
    drop(batch_server);
    // Legacy key (validated since BENCH_3): the platform-default model's
    // 1/8/32 figures — the reactor sweep on linux.
    let legacy = &io_model_sweeps.last().expect("reactor sweep ran").1;
    let network_json = format!(
        "\"1\": {:.1}, \"8\": {:.1}, \"32\": {:.1}",
        legacy[0], legacy[1], legacy[2]
    );
    let io_models_json = io_model_sweeps
        .iter()
        .map(|(name, sweep)| {
            let points = NET_CONNS
                .iter()
                .zip(sweep.iter())
                .map(|(c, rps)| format!("\"{c}\": {rps:.1}"))
                .collect::<Vec<_>>()
                .join(", ");
            format!("\"{name}\": {{{points}}}")
        })
        .collect::<Vec<_>>()
        .join(",\n      ");

    // --- Parallel ingestion: applier sweep + mixed read/write --------
    // A larger stream than the micro dataset so each drain lasts long
    // enough to measure; fresh adapter per drain (the stream can only
    // be applied once).
    let mut ingest_cfg = GeneratorConfig::tiny();
    ingest_cfg.persons = env_u64("SNB_INGEST_PERSONS", 200) as usize;
    let ingest_data = generate(&ingest_cfg);
    eprintln!("[bench] ingest dataset: {} updates", ingest_data.updates.len());
    let drain = |appliers: usize| {
        let adapter = CypherAdapter::new();
        adapter.load(&ingest_data.snapshot).unwrap();
        let report = run_ingest(
            &adapter,
            &ingest_data.updates,
            ingest_data.cut_ms,
            &IngestConfig { appliers, batch_size: 256, ..IngestConfig::default() },
        );
        assert_eq!(report.errors, 0, "ingest drain must be clean at {appliers} appliers");
        assert_eq!(report.applied, ingest_data.updates.len() as u64);
        report
    };
    let mut ingest_json = String::new();
    for (slot, &appliers) in [1usize, 2, 4, 8].iter().enumerate() {
        // Best of three drains: one drain is short, so keep the max.
        let best = (0..3).map(|_| drain(appliers).updates_per_sec()).fold(0.0, f64::max);
        eprintln!("[bench] ingest appliers={appliers}: {best:.0} updates/s");
        if slot > 0 {
            ingest_json.push_str(", ");
        }
        let _ = write!(ingest_json, "\"{appliers}\": {best:.1}");
    }

    // Mixed run: 8 paced readers on the same store while an applier
    // pool ingests at a sustained target rate — the Figure 3 question
    // ("do reads survive ingestion?"). The pool is paced the way a
    // deployment provisions ingestion (at the stream rate, here 40K
    // updates/s ≈ 3× the old sequential apply ceiling) rather than
    // bulk-draining at full speed, and uses smaller batches than the
    // sweep: a 256-op batch holds the write lock for milliseconds,
    // which is exactly what starves readers.
    let mixed_adapter = CypherAdapter::new();
    mixed_adapter.load(&ingest_data.snapshot).unwrap();
    let mixed_persons: Vec<Vid> =
        mixed_adapter.store().vertices_by_label(VertexLabel::Person).unwrap();
    let read_only = reader_scaling(mixed_adapter.store(), &mixed_persons, 8, scale_secs);
    let pacing = read_pacing();
    let mixed_reads = AtomicU64::new(0);
    let mixed_stop = std::sync::atomic::AtomicBool::new(false);
    let mut mixed_report = None;
    let mixed_t0 = Instant::now();
    std::thread::scope(|scope| {
        for r in 0..8usize {
            let store = mixed_adapter.store();
            let persons = &mixed_persons;
            let mixed_reads = &mixed_reads;
            let mixed_stop = &mixed_stop;
            scope.spawn(move || {
                let mut buf = Vec::new();
                let mut i = r;
                while !mixed_stop.load(Ordering::Relaxed) {
                    let v = persons[i % persons.len()];
                    let _ = store.vertex_prop(v, PropKey::FirstName);
                    buf.clear();
                    let _ = store.neighbors(v, Direction::Both, Some(EdgeLabel::Knows), &mut buf);
                    mixed_reads.fetch_add(2, Ordering::Relaxed);
                    i = i.wrapping_add(7);
                    if !pacing.is_zero() {
                        std::thread::sleep(pacing);
                    }
                }
            });
        }
        let report = run_ingest(
            &mixed_adapter,
            &ingest_data.updates,
            ingest_data.cut_ms,
            &IngestConfig {
                appliers: 2,
                batch_size: 64,
                target_ops_per_sec: Some(env_u64("SNB_MIXED_TARGET_UPS", 40_000) as f64),
                ..IngestConfig::default()
            },
        );
        mixed_stop.store(true, Ordering::Relaxed);
        mixed_report = Some(report);
    });
    let mixed_elapsed = mixed_t0.elapsed().as_secs_f64();
    let mixed_report = mixed_report.expect("mixed ingest ran");
    let reads_during = mixed_reads.load(Ordering::Relaxed) as f64 / mixed_elapsed.max(1e-9);
    let mixed_updates = mixed_report.updates_per_sec();
    // The Figure-3 headline as a single gated ratio: what fraction of
    // read-only throughput survives sustained ingestion.
    let read_retention = if read_only > 0.0 { reads_during / read_only } else { 0.0 };
    eprintln!(
        "[bench] mixed: {mixed_updates:.0} updates/s, {reads_during:.0} reads/s during ingest \
         (read-only baseline {read_only:.0} reads/s, retention {read_retention:.3})"
    );

    // --- Sharded scale-out: the scatter-gather router sweep ----------
    // N full engine stacks (store + workers + reactor listener) behind
    // the router; routed round trips (8 clients) and cross-shard
    // two-hops (4 clients) at 1, 2, and 4 shards.
    // The validator's no-collapse gate compares shard counts against
    // each other, so the sweep measures them PAIRED: all routers boot
    // up front, each round measures every shard count back to back, and
    // each point reports its median round. Sequential single-shot
    // measurement put minutes of ambient-load drift between the 1-shard
    // and 2-shard numbers, which on a timeslicing single core swamped
    // the ratio the gate actually cares about.
    let shard_counts = [1usize, 2, 4];
    let routers: Vec<ShardRouter> = shard_counts
        .iter()
        .map(|&shards| {
            // Frontier cache OFF for this sweep: the 70% no-collapse
            // gate was calibrated on the uncached scatter-gather path
            // (PR 6/8), and keeping it uncached attributes any movement
            // here to the wave-buffer reuse alone. The `cache` section
            // below measures caching explicitly.
            let router =
                ShardRouter::native_with_cache(shards, 0).expect("boot shard stacks");
            router.load(&data.snapshot).unwrap();
            router
        })
        .collect();
    let mut shard_rt_samples: Vec<Vec<f64>> = vec![Vec::new(); shard_counts.len()];
    let mut shard_two_samples: Vec<Vec<f64>> = vec![Vec::new(); shard_counts.len()];
    for _round in 0..3 {
        for (slot, router) in routers.iter().enumerate() {
            shard_rt_samples[slot].push(sharded_round_trips(router, &persons, 8, scale_secs));
            shard_two_samples[slot].push(sharded_two_hop(router, &persons, 4, scale_secs));
        }
    }
    drop(routers);
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        v[v.len() / 2]
    };
    let mut shard_rt_json = String::new();
    let mut shard_two_json = String::new();
    for (slot, &shards) in shard_counts.iter().enumerate() {
        let rt = median(std::mem::take(&mut shard_rt_samples[slot]));
        let two = median(std::mem::take(&mut shard_two_samples[slot]));
        eprintln!(
            "[bench] sharding shards={shards}: {rt:.0} round trips/s, {two:.0} two-hop/s (median of 3)"
        );
        if slot > 0 {
            shard_rt_json.push_str(", ");
            shard_two_json.push_str(", ");
        }
        let _ = write!(shard_rt_json, "\"{shards}\": {rt:.1}");
        let _ = write!(shard_two_json, "\"{shards}\": {two:.1}");
    }

    // --- Epoch-keyed result caches (the PR-9 tentpole) ---------------
    // Zipf-skewed reads (`SNB_READ_SKEW`, default s=1.0: social reads
    // concentrate on hot profiles) measured cached vs cache-bypassed on
    // two layers: the Cypher adapter's point-lookup cache and the
    // reactor inline path. Like the io/sharding sweeps, each arm is the
    // median of 3 interleaved rounds so ambient-load spikes hit both
    // arms instead of whichever one they landed on. The mixed-ingest
    // run replays the update stream in chunks with skewed reads between
    // chunks: every write advances the epoch the keys embed, so the
    // hit rate under ingest is the fraction of reads the cache can
    // still serve between invalidation points.
    let zipf_s = env_f64("SNB_READ_SKEW", 1.0);
    let person_ids: Vec<u64> = persons.iter().map(|v| v.local()).collect();
    let cy_cached_adapter = CypherAdapter::new();
    cy_cached_adapter.load(&data.snapshot).unwrap();
    let cy_bypass_adapter = CypherAdapter::with_result_cache(0);
    cy_bypass_adapter.load(&data.snapshot).unwrap();
    let inline_store = Arc::new(native_store(&data));
    let inline_cached_srv = GremlinServer::start(
        Arc::clone(&inline_store) as Arc<dyn GraphBackend>,
        ServerConfig::default(),
    );
    let inline_bypass_srv = GremlinServer::start(
        Arc::clone(&inline_store) as Arc<dyn GraphBackend>,
        ServerConfig { result_cache_capacity: 0, ..Default::default() },
    );
    let inline_cached_raw = inline_cached_srv.raw_submitter();
    let inline_bypass_raw = inline_bypass_srv.raw_submitter();
    let payloads: Vec<Vec<u8>> = persons
        .iter()
        .map(|&v| {
            wire::encode_traversal(&Traversal::v(v).both(EdgeLabel::Knows).dedup().count())
        })
        .collect();
    let mut cy_samples: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut inline_samples: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut zc = Zipf::new(person_ids.len(), zipf_s, 0x51);
    let mut zb = Zipf::new(person_ids.len(), zipf_s, 0x52);
    let mut zic = Zipf::new(payloads.len(), zipf_s, 0x53);
    let mut zib = Zipf::new(payloads.len(), zipf_s, 0x54);
    for _round in 0..3 {
        cy_samples[0].push(ops_per_sec(budget, || {
            let person = person_ids[zc.next()];
            cy_cached_adapter.execute_read(&ReadOp::PointLookup { person }).unwrap();
        }));
        cy_samples[1].push(ops_per_sec(budget, || {
            let person = person_ids[zb.next()];
            cy_bypass_adapter.execute_read(&ReadOp::PointLookup { person }).unwrap();
        }));
        inline_samples[0].push(ops_per_sec(budget, || {
            let p = &payloads[zic.next()];
            inline_cached_raw.try_execute_inline(p).expect("inline-eligible").unwrap();
        }));
        inline_samples[1].push(ops_per_sec(budget, || {
            let p = &payloads[zib.next()];
            inline_bypass_raw.try_execute_inline(p).expect("inline-eligible").unwrap();
        }));
    }
    let cy_cached = median(std::mem::take(&mut cy_samples[0]));
    let cy_bypass = median(std::mem::take(&mut cy_samples[1]));
    let cy_hit_rate = cy_cached_adapter.result_cache().expect("cache on").stats().hit_rate();
    let inline_cached = median(std::mem::take(&mut inline_samples[0]));
    let inline_bypass = median(std::mem::take(&mut inline_samples[1]));
    let inline_hit_rate =
        inline_cached_srv.result_cache().expect("cache on").stats().hit_rate();
    eprintln!(
        "[bench] cache zipf s={zipf_s}: cypher_adapter {cy_cached:.0} cached vs \
         {cy_bypass:.0} bypass ops/s ({:.1}x, hit rate {cy_hit_rate:.3}); \
         gremlin_inline {inline_cached:.0} cached vs {inline_bypass:.0} bypass ops/s \
         ({:.1}x, hit rate {inline_hit_rate:.3})",
        if cy_bypass > 0.0 { cy_cached / cy_bypass } else { 0.0 },
        if inline_bypass > 0.0 { inline_cached / inline_bypass } else { 0.0 },
    );
    // Mixed ingest: skewed reads between update chunks on a fresh
    // cached adapter over the larger ingest dataset.
    let mixed_cached = CypherAdapter::new();
    mixed_cached.load(&ingest_data.snapshot).unwrap();
    let mixed_ids: Vec<u64> = mixed_cached
        .store()
        .vertices_by_label(VertexLabel::Person)
        .unwrap()
        .iter()
        .map(|v| v.local())
        .collect();
    let mut zm = Zipf::new(mixed_ids.len(), zipf_s, 0x55);
    let mixed_deadline = Instant::now() + Duration::from_secs_f64(scale_secs);
    let mixed_t0 = Instant::now();
    let mut mixed_cache_reads = 0u64;
    for chunk in ingest_data.updates.chunks(16) {
        for op in chunk {
            mixed_cached.execute_update(op).unwrap();
        }
        for _ in 0..8 {
            let person = mixed_ids[zm.next()];
            mixed_cached.execute_read(&ReadOp::PointLookup { person }).unwrap();
            mixed_cache_reads += 1;
        }
        if Instant::now() >= mixed_deadline {
            break;
        }
    }
    let mixed_stats = mixed_cached.result_cache().expect("cache on").stats();
    assert_eq!(mixed_stats.stale_served, 0, "stale entry served under mixed ingest");
    let mixed_cache_rps = mixed_cache_reads as f64 / mixed_t0.elapsed().as_secs_f64();
    eprintln!(
        "[bench] cache mixed ingest: {mixed_cache_reads} reads ({mixed_cache_rps:.0}/s \
         wall), hit rate {:.3}, {} stale evicted, {} stale served",
        mixed_stats.hit_rate(),
        mixed_stats.stale_evicted,
        mixed_stats.stale_served
    );
    let cache_json = format!(
        "\"zipf_s\": {zipf_s}, \"layers\": {{\n      \"cypher_adapter\": \
         {{\"cached_ops_per_sec\": {cy_cached:.1}, \"bypass_ops_per_sec\": {cy_bypass:.1}, \
         \"hit_rate\": {cy_hit_rate:.4}}},\n      \"gremlin_inline\": \
         {{\"cached_ops_per_sec\": {inline_cached:.1}, \"bypass_ops_per_sec\": \
         {inline_bypass:.1}, \"hit_rate\": {inline_hit_rate:.4}}}\n    }}, \
         \"mixed_ingest\": {{\"mixed_reads_per_sec\": {mixed_cache_rps:.1}, \
         \"hit_rate_under_ingest\": {:.4}, \"stale_served\": {}}}",
        mixed_stats.hit_rate(),
        mixed_stats.stale_served
    );
    drop((inline_cached_srv, inline_bypass_srv));

    // --- Bulk-synchronous traversal execution (the PR-4 tentpole) ----
    // Gremlin two-hop and shortest-path throughput through the bulked
    // executor at 1/2/4 intra-query workers over the pinned CSR
    // snapshot, plus the same traversals with the snapshot suppressed
    // (`NoSnap`): per-call structure-API reads through the store lock.
    // Frontiers split into morsels above `SNB_MORSEL_MIN` traversers.
    let mut trav_cfg = GeneratorConfig::tiny();
    trav_cfg.persons = env_u64("SNB_TRAVERSAL_PERSONS", 600) as usize;
    let trav_data = generate(&trav_cfg);
    let trav_store = native_store(&trav_data);
    trav_store.compact_now();
    let trav_snap = trav_store.pin_snapshot().expect("CSR fresh after compact_now");
    let trav_persons: Vec<Vid> = trav_store.vertices_by_label(VertexLabel::Person).unwrap();
    // Shortest-path pairs with a known 2-hop witness, so the repeat/until
    // search terminates at a shallow depth instead of exhausting the
    // traverser budget on an unreachable pair.
    let sp_pairs: Vec<(Vid, Vid)> = {
        let mut pairs = Vec::new();
        let mut h1 = Vec::new();
        let mut h2 = Vec::new();
        for &v in &trav_persons {
            let r = trav_snap.row_of(v).expect("person in snapshot");
            h1.clear();
            trav_snap.neighbors_into(r, Direction::Both, Some(EdgeLabel::Knows), &mut h1);
            if let Some(&f) = h1.first() {
                h2.clear();
                trav_snap.neighbors_into(f, Direction::Both, Some(EdgeLabel::Knows), &mut h2);
                if let Some(&w) = h2.iter().find(|&&w| w != r) {
                    pairs.push((v, trav_snap.vid_of(w)));
                }
            }
        }
        pairs
    };
    let morsel_min = env_u64("SNB_MORSEL_MIN", 64) as usize;
    eprintln!(
        "[bench] traversal dataset: {} persons, {} sp pairs, morsel_min {morsel_min}",
        trav_persons.len(),
        sp_pairs.len()
    );
    let trav_measure = |backend: &dyn GraphBackend, workers: usize| -> (f64, f64) {
        let cfg = ExecConfig { workers, morsel_min, fuse: true };
        let mut i = 0usize;
        let two = ops_per_sec(budget, || {
            let v = trav_persons[i % trav_persons.len()];
            i = i.wrapping_add(1);
            let t = Traversal::v(v)
                .both(EdgeLabel::Knows)
                .both(EdgeLabel::Knows)
                .dedup()
                .count();
            std::hint::black_box(execute_with(backend, &t, cfg).unwrap());
        });
        let mut i = 0usize;
        let sp = ops_per_sec(budget, || {
            let (a, b) = sp_pairs[i % sp_pairs.len()];
            i = i.wrapping_add(1);
            let t = Traversal::v(a).repeat_both_until(EdgeLabel::Knows, b, 10).path_len();
            std::hint::black_box(execute_with(backend, &t, cfg).unwrap());
        });
        (two, sp)
    };
    let mut trav_two_json = String::new();
    let mut trav_sp_json = String::new();
    for (slot, &workers) in [1usize, 2, 4].iter().enumerate() {
        let (two, sp) = trav_measure(&trav_store, workers);
        eprintln!("[bench] traversal workers={workers}: two_hop {two:.0}/s, shortest_path {sp:.0}/s");
        if slot > 0 {
            trav_two_json.push_str(", ");
            trav_sp_json.push_str(", ");
        }
        let _ = write!(trav_two_json, "\"{workers}\": {two:.1}");
        let _ = write!(trav_sp_json, "\"{workers}\": {sp:.1}");
    }
    let (trav_two_locked, trav_sp_locked) = trav_measure(&NoSnap(&trav_store), 1);
    eprintln!(
        "[bench] traversal locked baseline: two_hop {trav_two_locked:.0}/s, \
         shortest_path {trav_sp_locked:.0}/s"
    );

    // --- Analytics tier: snapshot-pinned jobs next to live reads -----
    // A server over the traversal-scale store, 2 analytics runners so a
    // second job can be cancelled genuinely mid-run. Jobs arrive over
    // Analytics frames like any remote client's would.
    let ana_store = Arc::new(native_store(&trav_data));
    ana_store.compact_now();
    let ana_gremlin = GremlinServer::start(
        Arc::clone(&ana_store) as Arc<dyn GraphBackend>,
        ServerConfig {
            analytics: AnalyticsConfig { runners: 2, ..Default::default() },
            ..Default::default()
        },
    );
    let ana_server = NetServer::start(
        ana_gremlin,
        NetServerConfig::default().with_io_model(IoModel::Reactor),
    )
    .expect("bind analytics bench server");
    let ana_pool = NetPool::connect(ana_server.local_addr(), ClientConfig::default())
        .expect("connect analytics pool");
    let ana_client = AnalyticsClient::new(&ana_pool);
    let wait_done = |id: JobId| -> snb_analytics::JobStatus {
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            let st = ana_client.poll_job(id).expect("poll job");
            if st.state.is_terminal() {
                assert_eq!(st.state, JobState::Done, "job {id} failed: {st:?}");
                return st;
            }
            assert!(Instant::now() < deadline, "job {id} stuck: {st:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    // Full-speed PageRank: iterations/second through the whole tier
    // (submit → snapshot pin → kernel → poll), and the Done job the
    // top-k fetch below reads from.
    let pr_iters_target = 50u32;
    let pr_id = ana_client
        .submit_job(JobSpec {
            kind: JobKind::PageRank(PageRankConfig {
                damping: 0.85,
                epsilon: 0.0,
                max_iters: pr_iters_target,
            }),
            label: None,
            workers: 2,
            pacing: Duration::ZERO,
        })
        .expect("submit pagerank");
    let pr_st = wait_done(pr_id);
    let (pr_iterations, top_k) = match ana_client
        .fetch_result(pr_id, Some(5))
        .expect("fetch pagerank top-k")
    {
        JobOutput::PageRank { iterations, ranks, .. } => {
            assert!(ranks.windows(2).all(|w| w[0].1 >= w[1].1), "top-k descending");
            (iterations, ranks.len())
        }
        other => panic!("expected PageRank output, got {other:?}"),
    };
    let pagerank_iters_per_sec =
        pr_iterations as f64 / (pr_st.elapsed_ms.max(1) as f64 / 1000.0);
    // WCC wall time over the same snapshot.
    let wcc_id = ana_client.submit_job(JobSpec::wcc()).expect("submit wcc");
    let wcc_wall_ms = wait_done(wcc_id).elapsed_ms;
    eprintln!(
        "[bench] analytics: pagerank {pr_iterations} iters in {}ms \
         ({pagerank_iters_per_sec:.1} iters/s), wcc {wcc_wall_ms}ms over {} rows",
        pr_st.elapsed_ms, pr_st.n_rows
    );
    // Coexistence: 8 paced readers against the same store while a paced
    // PageRank job holds a snapshot and burns its worker budget; a
    // second job is cancelled mid-run along the way. The gate is read
    // retention vs the read-only baseline.
    let ana_persons: Vec<Vid> = ana_store.vertices_by_label(VertexLabel::Person).unwrap();
    let ana_read_only = reader_scaling(&ana_store, &ana_persons, 8, scale_secs);
    let long_job = |pacing_ms: u64| JobSpec {
        kind: JobKind::PageRank(PageRankConfig {
            damping: 0.85,
            // Runs until cancelled (or bit-exact convergence, far
            // beyond the measurement window on this graph).
            epsilon: 0.0,
            max_iters: u32::MAX,
        }),
        label: None,
        workers: 2,
        pacing: Duration::from_millis(pacing_ms),
    };
    let job_a = ana_client.submit_job(long_job(1)).expect("submit coexistence job");
    // Wait for it to actually run before measuring.
    let run_deadline = Instant::now() + Duration::from_secs(30);
    while !matches!(
        ana_client.poll_job(job_a).expect("poll").state,
        JobState::Running { .. }
    ) {
        assert!(Instant::now() < run_deadline, "coexistence job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut progress: BTreeSet<u32> = BTreeSet::new();
    let mut cancelled_mid_run = false;
    let ana_reads = AtomicU64::new(0);
    let coexist_t0 = Instant::now();
    let coexist_budget = Duration::from_secs_f64(scale_secs);
    std::thread::scope(|scope| {
        for r in 0..8usize {
            let store = &*ana_store;
            let persons = &ana_persons;
            let ana_reads = &ana_reads;
            scope.spawn(move || {
                let pacing = read_pacing();
                let mut buf = Vec::new();
                let mut i = r;
                while coexist_t0.elapsed() < coexist_budget {
                    let v = persons[i % persons.len()];
                    let _ = store.vertex_prop(v, PropKey::FirstName);
                    buf.clear();
                    let _ = store.neighbors(v, Direction::Both, Some(EdgeLabel::Knows), &mut buf);
                    ana_reads.fetch_add(2, Ordering::Relaxed);
                    i = i.wrapping_add(7);
                    if !pacing.is_zero() {
                        std::thread::sleep(pacing);
                    }
                }
            });
        }
        // Main thread: poll job A for progress, cancel job B mid-run.
        let job_b = ana_client.submit_job(long_job(2)).expect("submit victim job");
        let mut b_cancelled = false;
        while coexist_t0.elapsed() < coexist_budget {
            if let JobState::Running { iteration, .. } =
                ana_client.poll_job(job_a).expect("poll progress").state
            {
                if iteration > 0 {
                    progress.insert(iteration);
                }
            }
            if !b_cancelled
                && matches!(
                    ana_client.poll_job(job_b).expect("poll victim").state,
                    JobState::Running { .. }
                )
            {
                b_cancelled = ana_client.cancel_job(job_b).expect("cancel victim");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if !b_cancelled {
            // Window too short for B to get a runner slot: cancel from
            // the queue (still counts as live).
            b_cancelled = ana_client.cancel_job(job_b).expect("cancel queued victim");
        }
        let b_deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let st = ana_client.poll_job(job_b).expect("poll victim terminal");
            if st.state.is_terminal() {
                cancelled_mid_run = b_cancelled && st.state == JobState::Cancelled;
                break;
            }
            assert!(Instant::now() < b_deadline, "victim never terminated: {st:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    let reads_during_pr =
        ana_reads.load(Ordering::Relaxed) as f64 / coexist_t0.elapsed().as_secs_f64();
    let _ = ana_client.cancel_job(job_a).expect("cancel coexistence job");
    let analytics_retention =
        if ana_read_only > 0.0 { reads_during_pr / ana_read_only } else { 0.0 };
    eprintln!(
        "[bench] analytics coexistence: {reads_during_pr:.0} reads/s during pagerank \
         (baseline {ana_read_only:.0}, retention {analytics_retention:.3}), \
         {} progress polls, victim cancelled mid-run: {cancelled_mid_run}",
        progress.len()
    );
    drop(ana_pool);
    drop(ana_server);
    let ana_rows = pr_st.n_rows;
    let progress_polls = progress.len();

    // --- The micro_ops suite per engine ------------------------------
    let pct = |s: &LatencyStats| {
        format!(
            "{{\"p50\": {:.4}, \"p95\": {:.4}, \"p99\": {:.4}}}",
            s.percentile_ms(50.0),
            s.percentile_ms(95.0),
            s.percentile_ms(99.0)
        )
    };
    let mut engines_json = String::new();
    for (ei, &kind) in ALL_SUT_KINDS.iter().enumerate() {
        let adapter = build_adapter(kind);
        adapter.load(&data.snapshot).unwrap();
        let mut params = ParamGen::new(&data, 0xbe9c);
        let person = params.person();
        // Warm each engine's snapshot cache outside the measured
        // windows (the generic CSR build on the SQL-backed engines is a
        // full scan — it must not land inside a timed loop).
        adapter.execute_read(&ReadOp::TwoHop { person }).unwrap();
        let (sp_a, sp_b) = params.person_pair();
        let (point, point_lat) = ops_with_latency(budget, || {
            adapter.execute_read(&ReadOp::PointLookup { person }).unwrap();
        });
        let (one_hop, one_lat) = ops_with_latency(budget, || {
            adapter.execute_read(&ReadOp::OneHop { person }).unwrap();
        });
        let (two_hop_e, two_lat) = ops_with_latency(budget, || {
            adapter.execute_read(&ReadOp::TwoHop { person }).unwrap();
        });
        let (sp_e, sp_lat) = ops_with_latency(budget, || {
            adapter.execute_read(&ReadOp::ShortestPath { a: sp_a, b: sp_b }).unwrap();
        });
        eprintln!(
            "[bench] {}: point_lookup {point:.0}/s, one_hop {one_hop:.0}/s, \
             two_hop {two_hop_e:.0}/s, shortest_path {sp_e:.0}/s (p99 {:.3}ms)",
            adapter.name(),
            sp_lat.percentile_ms(99.0)
        );
        if ei > 0 {
            engines_json.push_str(",\n");
        }
        let _ = write!(
            engines_json,
            "    \"{}\": {{\"point_lookup_ops_per_sec\": {point:.1}, \"one_hop_ops_per_sec\": {one_hop:.1}, \
             \"two_hop_ops_per_sec\": {two_hop_e:.1}, \"shortest_path_ops_per_sec\": {sp_e:.1}, \
             \"point_lookup_ms\": {}, \"one_hop_ms\": {}, \"two_hop_ms\": {}, \"shortest_path_ms\": {}}}",
            adapter.name(),
            pct(&point_lat),
            pct(&one_lat),
            pct(&two_lat),
            pct(&sp_lat)
        );
    }

    // --- SQL recursive shortest path: optimizer on vs off ------------
    // The planner rewrites the reach-shaped CTE to a bidirectional BFS
    // over the Person/Knows indexes; naive semi-naive evaluation re-joins the
    // edge table against the delta once per iteration. Measured on the
    // row store (the Postgres analogue), bypassing the adapter's CSR
    // fast path so the CTE itself is what runs.
    let sql_cte = {
        const REACH: &str = "WITH RECURSIVE reach(id, depth) AS ( \
             SELECT dst, 1 FROM person_knows_person WHERE src = $1 \
             UNION SELECT src, 1 FROM person_knows_person WHERE dst = $1 \
             UNION SELECT k.dst, r.depth + 1 FROM reach r \
               JOIN person_knows_person k ON k.src = r.id WHERE r.depth < 10 \
             UNION SELECT k.src, r.depth + 1 FROM reach r \
               JOIN person_knows_person k ON k.dst = r.id WHERE r.depth < 10 \
           ) SELECT MIN(depth) FROM reach WHERE id = $2";
        let adapter = snb_driver::adapter::sql::SqlAdapter::row_store();
        adapter.load(&data.snapshot).unwrap();
        let mut params = ParamGen::new(&data, 0xbe9c);
        let (a, b) = params.person_pair();
        let cte_params = [Value::Int(a as i64), Value::Int(b as i64)];
        let db = adapter.db();
        let optimized = best_ops_per_sec(3, budget, || {
            db.sql(REACH, &cte_params).unwrap();
        });
        db.set_planner_enabled(false);
        let naive = best_ops_per_sec(3, budget, || {
            db.sql(REACH, &cte_params).unwrap();
        });
        db.set_planner_enabled(true);
        eprintln!(
            "[bench] sql_recursive_cte: optimized {optimized:.0}/s vs naive {naive:.0}/s \
             ({:.1}x)",
            if naive > 0.0 { optimized / naive } else { 0.0 }
        );
        format!(
            ",\n    \"sql_recursive_cte\": {{\"optimized_ops_per_sec\": {optimized:.1}, \
             \"naive_ops_per_sec\": {naive:.1}}}"
        )
    };
    engines_json.push_str(&sql_cte);

    // --- Million-vertex scale: streaming build + complex reads -------
    // The PR-10 tentpole end to end: stream-generate a scale-preset
    // network (never materialized whole), bulk-load the snapshot half
    // while the post-cut half drains through the partitioned ingest
    // path, fold the CSR, and measure resident bytes plus two-hop and
    // complex-read throughput at that size. `SNB_SCALE_PERSONS`
    // (default 100 000; the committed BENCH_10.json ran 1 000 000)
    // sizes the run; 0 skips the section entirely.
    let scale_json = {
        let scale_cfg = snb_bench::scale::ScaleConfig::from_env();
        if scale_cfg.persons == 0 {
            String::new()
        } else {
            eprintln!(
                "[bench] scale run: {} persons (chunk {}, {} appliers)",
                scale_cfg.persons, scale_cfg.chunk_size, scale_cfg.appliers
            );
            let rep = snb_bench::scale::run_scale(&scale_cfg);
            eprintln!(
                "[bench] scale: {} vertices / {} edges in {:.1}s; {:.2} B/vertex, \
                 {:.2} B/edge, {} MiB resident; two_hop {:.0}/s, foaf_posts {:.0}/s, \
                 recent_messages {:.0}/s, mutual_friends {:.0}/s",
                rep.vertices,
                rep.edges,
                rep.build_seconds,
                rep.bytes_per_vertex,
                rep.bytes_per_edge,
                rep.resident_bytes / (1 << 20),
                rep.two_hop_ops_per_sec,
                rep.foaf_posts_per_sec,
                rep.recent_messages_per_sec,
                rep.mutual_friends_per_sec
            );
            format!(",\n  \"scale\": {}", rep.to_json())
        }
    };

    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = format!(
        "{{\n  \"schema\": \"snb-bench/1\",\n  \"unix_time\": {unix_secs},\n  \"dataset\": {{\"persons\": {}, \"vertices\": {}, \"edges\": {}, \"updates\": {}}},\n  \"metrics\": {{\n    \"vertex_lookup_ops_per_sec\": {vertex_lookup:.1},\n    \"two_hop_expansion_ops_per_sec\": {two_hop:.1},\n    \"two_hop_locked_ops_per_sec\": {two_hop_locked:.1},\n    \"update_apply_ops_per_sec\": {update_apply:.1},\n    \"reads_per_sec_by_readers\": {{{readers_json}}}\n  }},\n  \"network\": {{\n    \"round_trips_per_sec_by_connections\": {{{network_json}}},\n    \"io_models\": {{\n      {io_models_json}\n    }},\n    \"pipelined_batch_round_trips_per_sec\": {batch_rt:.1}\n  }},\n  \"ingest\": {{\n    \"stream_updates\": {},\n    \"updates_per_sec_by_appliers\": {{{ingest_json}}},\n    \"mixed\": {{\"appliers\": 2, \"ingest_updates_per_sec\": {mixed_updates:.1}, \"reads_per_sec_during_ingest\": {reads_during:.1}, \"read_only_reads_per_sec\": {read_only:.1}, \"read_retention\": {read_retention:.4}}}\n  }},\n  \"sharding\": {{\n    \"round_trips_per_sec_by_shards\": {{{shard_rt_json}}},\n    \"two_hop_per_sec_by_shards\": {{{shard_two_json}}}\n  }},\n  \"cache\": {{\n    {cache_json}\n  }},\n  \"traversal\": {{\n    \"persons\": {},\n    \"morsel_min\": {morsel_min},\n    \"two_hop_ops_per_sec_by_workers\": {{{trav_two_json}}},\n    \"shortest_path_ops_per_sec_by_workers\": {{{trav_sp_json}}},\n    \"two_hop_locked_baseline_ops_per_sec\": {trav_two_locked:.1},\n    \"shortest_path_locked_baseline_ops_per_sec\": {trav_sp_locked:.1}\n  }},\n  \"analytics\": {{\n    \"snapshot_rows\": {ana_rows},\n    \"pagerank_iterations\": {pr_iterations},\n    \"pagerank_iterations_per_sec\": {pagerank_iters_per_sec:.1},\n    \"pagerank_top_k\": {top_k},\n    \"wcc_wall_ms\": {wcc_wall_ms},\n    \"coexistence\": {{\"read_only_reads_per_sec\": {ana_read_only:.1}, \"reads_per_sec_during_pagerank\": {reads_during_pr:.1}, \"read_retention\": {analytics_retention:.4}, \"progress_polls\": {progress_polls}, \"cancelled_mid_run\": {cancelled_mid_run}}}\n  }},\n  \"engines\": {{\n{engines_json}\n  }}{scale_json}\n}}\n",
        cfg.persons,
        store.vertex_count(),
        store.edge_count(),
        data.updates.len(),
        ingest_data.updates.len(),
        trav_persons.len(),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("{json}");
    eprintln!("[bench] wrote {out_path}");

    // Scaling sanity note (the PR's acceptance gate watches this).
    if reads_at[1] < 2.0 * reads_at[0] {
        eprintln!(
            "[bench] WARNING: 8-reader throughput {:.0} < 2x 1-reader {:.0}",
            reads_at[1], reads_at[0]
        );
    }
}
