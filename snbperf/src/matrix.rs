//! engine_matrix: the paper's Tables 2/3 comparison. All eight system
//! configurations are loaded with one shared dataset and read by one
//! closed-loop client thread over a seeded mix covering all fifteen
//! `ReadOp` kinds, with the same parameter stream for every adapter.

use snb_core::GraphBackend;
use snb_datagen::{generate, GeneratedData};
use snb_driver::adapter::cypher::CypherAdapter;
use snb_driver::adapter::gremlin::GremlinAdapter;
use snb_driver::adapter::sparql::SparqlAdapter;
use snb_driver::adapter::sql::SqlAdapter;
use snb_driver::adapter::{OpResult, SutAdapter};
use snb_driver::ops::ReadOp;
use snb_driver::{
    foaf_posts, mutual_friends, naive_foaf_posts, naive_mutual_friends, recent_messages,
};
use std::time::{Duration, Instant};

use crate::stats::{geomean, geomean_of, peak_rss_mb, Metrics, Samples};
use crate::trace::{intern, Tracer};
use crate::workload::{
    after_stream, canonical, dataset_config, matrix_kinds, settle, Inputs, ParamStream, CLASSES,
    KIND_CLASS, MATRIX_PERSONS,
};
use crate::wrap::TracedAdapter;
use crate::{Args, Outcome};

/// Metric keys of the eight configurations, in the paper's column order.
pub const SUTS: [&str; 8] = [
    "cypher",
    "native_gremlin",
    "titan_c",
    "titan_b",
    "sqlg",
    "pg_sql",
    "virt_sql",
    "virt_sparql",
];

/// Operations per round of each (adapter, kind) cell, rows in [`SUTS`]
/// order, columns in [`matrix_kinds`] order. Fixed here rather than
/// computed at run time, so every run and every commit measures the same
/// mix. Each count is about 10 ms of that cell's mean latency on a
/// 2-core x86-64 container (at least 1, at most 800), so no cell
/// dominates a round by count; the SPARQL `IcFoafPosts` cell still takes
/// ~1 s (nearly half a round) for its single op, and the cell table every
/// run writes reports each cell's share of read time.
#[rustfmt::skip]
pub const WEIGHTS: [[u32; 15]; 8] = [
    //pl   1h   2h   sp  IS1  IS2  IS3  IS4  IS5  IS6  IS7  c2h  cfm foaf  mut
    [800, 386,  82, 800, 800, 800, 392, 800, 800, 800, 800, 322, 175,  35,  36], // cypher
    [800, 397,  69, 106, 725, 375, 389, 800, 800, 800, 800, 229,  65,  10,  84], // native_gremlin
    [800, 510,  77, 122, 685, 403, 144, 800, 800, 800, 800, 260,  66,  11, 102], // titan_c
    [800, 621,  79, 112, 606, 382, 255, 800, 800, 800, 800, 245,  71,  11, 112], // titan_b
    [800, 629,  77, 104, 781, 389,  52, 800, 800, 800, 800, 247,  68,  11,  99], // sqlg
    [800, 168, 658, 505, 800, 469, 444, 800, 800, 800, 800,   1,  77,  17, 552], // pg_sql
    [800, 223, 667, 508, 800, 515, 730, 800, 800, 800, 800,   1,  82,  17, 585], // virt_sql
    [133, 242, 699, 541, 219, 358, 128, 800, 448, 331, 508,  62,  76,   1, 488], // virt_sparql
];

const WRITE_BATCH: usize = 256;

/// The eight adapters; the three with result caches are kept typed for
/// their cache statistics.
struct Engines {
    cypher: CypherAdapter,
    pg: SqlAdapter,
    virt: SqlAdapter,
    gremlin: [GremlinAdapter; 4],
    sparql: SparqlAdapter,
}

impl Engines {
    fn new() -> Self {
        Engines {
            cypher: CypherAdapter::new(),
            pg: SqlAdapter::row_store(),
            virt: SqlAdapter::column_store(),
            gremlin: [
                GremlinAdapter::native(),
                GremlinAdapter::titan_c(),
                GremlinAdapter::titan_b(),
                GremlinAdapter::sqlg(),
            ],
            sparql: SparqlAdapter::new(),
        }
    }

    /// In [`SUTS`] order.
    fn all(&self) -> [&dyn SutAdapter; 8] {
        let [ng, tc, tb, sg] = &self.gremlin;
        [
            &self.cypher,
            ng,
            tc,
            tb,
            sg,
            &self.pg,
            &self.virt,
            &self.sparql,
        ]
    }
}

/// Load every adapter, apply the whole update stream through its batch
/// write path, then warm it up and wait for a fresh snapshot. Returns the
/// engines and the seconds spent writing (timed as `update_ops_s`, not
/// set-up): each adapter's writes land in its own window of the ~30 s
/// set-up, so the write rate averages over the machine's speed swings
/// instead of sampling one moment of them.
fn setup(
    data: &GeneratedData,
    warm: &[ReadOp],
    out: &mut Outcome,
) -> Result<(Engines, f64), String> {
    let engines = Engines::new();
    let mut write_s = 0.0;
    for (key, a) in SUTS.iter().zip(engines.all()) {
        let t0 = Instant::now();
        a.load(&data.snapshot)
            .map_err(|e| format!("{key}: load: {e}"))?;
        let load_s = t0.elapsed().as_secs_f64();
        out.metrics.set(format!("adapter.{key}.load_s"), load_s);
        let t0 = Instant::now();
        for chunk in data.updates.chunks(WRITE_BATCH) {
            out.attempted += chunk.len() as u64;
            match a.execute_update_batch(chunk) {
                Ok(k) if k == chunk.len() => {}
                Ok(k) => return Err(format!("{key}: batch applied {k} of {}", chunk.len())),
                Err(e) => return Err(format!("{key}: update batch: {e}")),
            }
        }
        write_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for op in warm {
            a.execute_read(op)
                .map_err(|e| format!("{key}: warm-up {}: {e}", op.name()))?;
        }
        if let Some(b) = a.graph_backend() {
            if !settle(&*b, Duration::from_secs(60)) {
                return Err(format!("{key}: no fresh snapshot after warm-up"));
            }
        }
        let warmup_s = t0.elapsed().as_secs_f64();
        out.metrics.set(format!("adapter.{key}.warmup_s"), warmup_s);
    }
    engines.cypher.store().compact_now();
    let folds = engines.cypher.store().csr_folds_taken() as f64;
    out.metrics.set("native.setup_folds", folds);
    Ok((engines, write_s))
}

/// Per-cell samples plus the first result of each cell per round (the
/// output-check sample).
struct Cells {
    samples: Vec<Vec<Samples>>,
    kept: Vec<(ReadOp, Vec<Option<OpResult>>)>,
}

impl Default for Cells {
    fn default() -> Self {
        Cells {
            samples: vec![vec![Samples::default(); 15]; 8],
            kept: Vec::new(),
        }
    }
}

impl Cells {
    /// Adapter `a`'s samples of read class `c`.
    fn class(&self, a: usize, c: usize) -> Samples {
        let mut s = Samples::default();
        for (k, cell) in self.samples[a].iter().enumerate() {
            if KIND_CLASS[k] == c {
                s.extend(cell);
            }
        }
        s
    }

    /// Client busy time per read: the closed loop's reciprocal throughput.
    fn busy_per_op(&self) -> f64 {
        let cells = self.samples.iter().flatten();
        let ops: usize = cells.clone().map(Samples::len).sum();
        cells.map(Samples::total_s).sum::<f64>() / ops.max(1) as f64
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let tracer = Tracer::new(args.trace);
    let kinds = matrix_kinds();
    let t_setup = Instant::now();
    let cfg = dataset_config(MATRIX_PERSONS, args.seed);
    let t0 = Instant::now();
    let data = generate(&cfg);
    out.metrics
        .set("datagen.generate_s", t0.elapsed().as_secs_f64());
    // Parameter preparation is the harness's, not the program's: keep
    // it out of set-up time.
    let t_params = Instant::now();
    let full = after_stream(&data);
    let inputs = Inputs::new(&full);
    let mut params = ParamStream::new(&full, &inputs, args.seed);
    let mut warm_params = ParamStream::new(&full, &inputs, args.seed ^ 0x77);
    let warm: Vec<ReadOp> = kinds.iter().map(|k| warm_params.op(k)).collect();
    let params_s = t_params.elapsed().as_secs_f64();
    let (engines, write_s) = match setup(&data, &warm, out) {
        Ok(e) => e,
        Err(e) => return out.violation(e),
    };
    let setup_s = t_setup.elapsed().as_secs_f64() - params_s - write_s;
    out.env.push(("persons".into(), cfg.persons.to_string()));
    out.env.push((
        "snapshot_vertices".into(),
        data.snapshot.vertices.len().to_string(),
    ));
    out.env.push((
        "snapshot_edges".into(),
        data.snapshot.edges.len().to_string(),
    ));
    out.env
        .push(("stream_ops".into(), data.updates.len().to_string()));
    out.env.push((
        "threads".into(),
        "1 client (closed loop); each Gremlin adapter's server keeps its default worker pool"
            .into(),
    ));

    let suts = engines.all();
    let traced: Vec<TracedAdapter> = SUTS
        .iter()
        .zip(suts)
        .map(|(k, a)| TracedAdapter::new(a, &tracer, &format!("adapter.{k}")))
        .collect();
    let max_w: Vec<usize> = (0..15)
        .map(|k| WEIGHTS.iter().map(|r| r[k] as usize).max().unwrap_or(0))
        .collect();
    let mut plain = Cells::default();
    let mut with_trace = Cells::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut round = 0u64;
    // Whole rounds only, so every run measures the same mix; a traced
    // run alternates untraced and traced rounds.
    while round < 2 || Instant::now() < deadline {
        let is_traced = args.trace && round % 2 == 1;
        let cells = if is_traced {
            &mut with_trace
        } else {
            &mut plain
        };
        let round_ops: Vec<Vec<ReadOp>> = kinds
            .iter()
            .zip(&max_w)
            .map(|(kind, &n)| params.draw(kind, n))
            .collect();
        for (k, ops) in round_ops.iter().enumerate() {
            let mut kept = vec![None; 8];
            for (a, adapter) in suts.iter().enumerate() {
                let adapter: &dyn SutAdapter = if is_traced { &traced[a] } else { *adapter };
                for (i, op) in ops.iter().take(WEIGHTS[a][k] as usize).enumerate() {
                    let t = Instant::now();
                    let r = adapter.execute_read(op);
                    let d = t.elapsed();
                    out.attempted += 1;
                    match r {
                        Ok(rows) => {
                            cells.samples[a][k].push(d);
                            if i == 0 {
                                kept[a] = Some(rows);
                            }
                        }
                        Err(e) => {
                            out.failed += 1;
                            cells.samples[a][k].push_failed();
                            out.note(format!("{}: {}: {e}", SUTS[a], op.name()));
                        }
                    }
                }
            }
            cells.kept.push((ops[0].clone(), kept));
        }
        round += 1;
    }

    let cache_stats = [
        ("cypher", engines.cypher.result_cache().map(|c| c.stats())),
        ("pg_sql", engines.pg.result_cache().map(|c| c.stats())),
        ("virt_sql", engines.virt.result_cache().map(|c| c.stats())),
    ];
    check_outputs(&full, &plain, out);
    check_outputs(&full, &with_trace, out);
    report_cells(if args.trace { &with_trace } else { &plain }, args.trace);

    let m = &mut out.metrics;
    if args.trace {
        for (a, key) in SUTS.iter().enumerate() {
            for (c, class) in CLASSES.iter().enumerate() {
                m.set(
                    format!("adapter.{key}.{class}_mean_us"),
                    with_trace.class(a, c).mean_us(),
                );
            }
        }
        for (key, stats) in cache_stats {
            m.set(
                format!("cache.adapter.{key}.hit_rate"),
                stats.map_or(0.0, |s| s.hit_rate()),
            );
        }
        kernel_metrics(&engines.cypher, &with_trace, &tracer, m);
        m.set(
            "harness.trace_overhead_pct",
            (with_trace.busy_per_op() / plain.busy_per_op() - 1.0) * 100.0,
        );
        out.write_trace(&tracer, "engine_matrix");
    } else {
        m.set("setup_s", setup_s);
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("read_ops_s", 1.0 / plain.busy_per_op());
        let p99: Vec<f64> = (0..8)
            .map(|a| {
                let mut s = Samples::default();
                plain.samples[a].iter().for_each(|c| s.extend(c));
                s.quantile_us(0.99)
            })
            .collect();
        m.set("read_p99_us", geomean(&p99));
        for (c, class) in CLASSES.iter().enumerate() {
            let cells = plain.samples.iter().flat_map(|row| {
                row.iter()
                    .zip(&KIND_CLASS)
                    .filter(|(_, &k)| k == c)
                    .map(|(s, _)| s)
            });
            m.set(
                format!("{class}_p50_us"),
                geomean_of(cells, Samples::median_us),
            );
        }
        m.set(
            "update_ops_s",
            (data.updates.len() * SUTS.len()) as f64 / write_s,
        );
    }
}

/// Normalized rows agree across adapters on the first op of every cell
/// of every round; the two IC reads also match the brute-force oracles.
fn check_outputs(data: &GeneratedData, cells: &Cells, out: &mut Outcome) {
    for (op, results) in &cells.kept {
        let mut reference: Option<(usize, OpResult)> = None;
        for (a, r) in results.iter().enumerate() {
            let Some(rows) = r else { continue };
            let c = canonical(op, rows);
            match &reference {
                None => reference = Some((a, c)),
                Some((ra, rc)) if *rc != c => out.violation(format!(
                    "{} disagrees with {} on {op:?}",
                    SUTS[a], SUTS[*ra]
                )),
                Some(_) => {}
            }
            let oracle = match op {
                ReadOp::IcFoafPosts {
                    person,
                    min_date,
                    limit,
                } => Some(naive_foaf_posts(&data.snapshot, *person, *min_date, *limit)),
                ReadOp::IcMutualFriends { person, limit } => {
                    Some(naive_mutual_friends(&data.snapshot, *person, *limit))
                }
                _ => None,
            };
            if let Some(o) = oracle {
                if &o != rows {
                    out.violation(format!("{} diverges from the oracle on {op:?}", SUTS[a]));
                }
            }
        }
    }
}

/// The `driver::complex` operators on Cypher's pinned snapshot, with the
/// parameters the traced rounds used: the floor under the adapters'
/// complex reads.
fn kernel_metrics(cypher: &CypherAdapter, cells: &Cells, tracer: &Tracer, m: &mut Metrics) {
    let Some(snap) = cypher.store().pin_snapshot() else {
        return;
    };
    let mut foaf = Samples::default();
    let mut mutual = Samples::default();
    let mut recent = Samples::default();
    let (n_foaf, n_mutual, n_recent) = (
        intern("complex.kernel.foaf_posts"),
        intern("complex.kernel.mutual_friends"),
        intern("complex.kernel.recent_messages"),
    );
    // The kernels take microseconds and a traced run keeps only a few
    // parameters per kind, so each is repeated for a steadier mean.
    for _ in 0..20 {
        for (op, _) in &cells.kept {
            let t = Instant::now();
            match op {
                ReadOp::IcFoafPosts {
                    person,
                    min_date,
                    limit,
                } => {
                    std::hint::black_box(
                        tracer.span(n_foaf, 0, || foaf_posts(&snap, *person, *min_date, *limit)),
                    );
                    foaf.push(t.elapsed());
                }
                ReadOp::IcMutualFriends { person, limit } => {
                    std::hint::black_box(
                        tracer.span(n_mutual, 0, || mutual_friends(&snap, *person, *limit)),
                    );
                    mutual.push(t.elapsed());
                }
                ReadOp::RecentFriendMessages { person, limit } => {
                    std::hint::black_box(
                        tracer.span(n_recent, 0, || recent_messages(&snap, *person, *limit)),
                    );
                    recent.push(t.elapsed());
                }
                _ => {}
            }
        }
    }
    m.set("complex.kernel.foaf_posts_mean_us", foaf.mean_us());
    m.set("complex.kernel.mutual_friends_mean_us", mutual.mean_us());
    m.set("complex.kernel.recent_messages_mean_us", recent.mean_us());
}

/// Each cell's op count, mean latency and share of the measured read
/// time, to stderr and `cells-engine_matrix-trace<0|1>.tsv`.
fn report_cells(cells: &Cells, trace: bool) {
    let total_s: f64 = cells.samples.iter().flatten().map(Samples::total_s).sum();
    let kinds = matrix_kinds();
    let mut text = String::from("sut\tkind\tops\tmean_us\tp50_us\tshare_pct\n");
    for (a, row) in cells.samples.iter().enumerate() {
        for (k, s) in row.iter().enumerate() {
            text.push_str(&format!(
                "{}\t{}\t{}\t{:.1}\t{:.1}\t{:.2}\n",
                SUTS[a],
                kinds[k],
                s.len(),
                s.mean_us(),
                s.median_us(),
                100.0 * s.total_s() / total_s
            ));
        }
    }
    eprint!("{text}");
    let dir = std::path::Path::new(crate::OUT_DIR);
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(
        dir.join(format!("cells-engine_matrix-trace{}.tsv", trace as u8)),
        text,
    );
}
