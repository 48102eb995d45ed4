//! ingest_reads: the paper's Figure 3 question — reads served while the
//! update stream is applied. A larger dataset is loaded into Native
//! (Cypher) and Postgres (SQL); in each, the whole post-cut update
//! stream (fixed work) drains through `run_ingest` with one applier,
//! while one reader issues the interactive mix open-loop at a fixed
//! rate. Each read is timed both from its send (the end-to-end read
//! metrics) and from its scheduled send time (the traced run's
//! `harness.sched_*` metrics); NOTES.md says why.

use snb_cache::CacheStats;
use snb_core::ids::VERTEX_LABELS;
use snb_core::schema::EDGE_DEFS;
use snb_core::GraphBackend;
use snb_datagen::{generate, GeneratedData, GeneratorConfig};
use snb_driver::adapter::cypher::CypherAdapter;
use snb_driver::adapter::sql::SqlAdapter;
use snb_driver::adapter::SutAdapter;
use snb_driver::{run_ingest, IngestConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{geomean_of, median, peak_rss_mb, Samples};
use crate::trace::Tracer;
use crate::workload::{
    dataset_config, kind_of, matrix_kinds, mix, settle, Inputs, ParamStream, CLASSES,
    INGEST_PERSONS, KIND_CLASS,
};
use crate::wrap::TracedAdapter;
use crate::{Args, Outcome};

/// Reads per second the open-loop reader issues; sustainable by the
/// slower adapter (Postgres SQL, ~40% busy: its complex reads and
/// shortest paths fall back to SQL while writes keep its snapshot stale).
pub const READ_RATE: f64 = 100.0;
/// Snapshot cut as a fraction of the simulated window: half, so the
/// stream is long enough to read against (at the default 90% cut it
/// drains in under half a second).
const INGEST_CUT: f64 = 0.5;
const BATCH: usize = 256;
/// Drain seconds one cycle (both adapters) takes on a 2-core x86-64
/// container; sets the cycle count from `--seconds`.
const SECONDS_PER_CYCLE: u64 = 3;
/// How long before a read's due time the reader stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(400);

const SUTS: [&str; 2] = ["cypher", "pg_sql"];

/// One adapter's share of a run.
#[derive(Default)]
struct Side {
    /// Latency from the scheduled send time, per read kind.
    sched: Vec<Samples>,
    /// Service time (send to completion), per read kind.
    service: Vec<Samples>,
    late: Samples,
    reads: usize,
    reader_s: f64,
    applied: u64,
    drain_s: f64,
    errors: u64,
    batches: Samples,
    cache: CacheStats,
}

impl Side {
    /// Service-time samples of every kind in read class `c`.
    fn class_service(&self, c: usize) -> Samples {
        let mut s = Samples::default();
        for (x, _) in self.service.iter().zip(KIND_CLASS).filter(|(_, k)| *k == c) {
            s.extend(x);
        }
        s
    }
}

/// The open-loop reader: op `i` is due at `start + i / READ_RATE`; it is
/// sent when due or, if the previous read overran, as soon as possible.
fn reader(
    adapter: &dyn SutAdapter,
    params: &mut ParamStream,
    stop: &AtomicBool,
    side: &mut Side,
    failed: &mut u64,
) {
    let start = Instant::now();
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = start + Duration::from_secs_f64(i as f64 / READ_RATE);
        // Sleep to just short of the due time and spin the rest: a bare
        // sleep wakes ~0.1 ms late on a busy two-core box, which would
        // land in every read's latency as generator lateness.
        let now = Instant::now();
        if due > now + SPIN {
            std::thread::sleep(due - now - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let op = params.interactive(i);
        let k = kind_of(&op);
        let sent = Instant::now();
        side.late.push(sent - due);
        match adapter.execute_read(&op) {
            Ok(_) => {
                let done = Instant::now();
                side.sched[k].push(done - due);
                side.service[k].push(done - sent);
            }
            Err(_) => {
                *failed += 1;
                side.sched[k].push_failed();
                side.service[k].push_failed();
            }
        }
        side.reads += 1;
        i += 1;
    }
    side.reader_s += start.elapsed().as_secs_f64();
}

fn row_counts(pg: &SqlAdapter) -> (usize, usize) {
    let db = pg.db();
    let v = VERTEX_LABELS
        .iter()
        .map(|l| db.row_count(l.as_str()).unwrap_or(0))
        .sum();
    let e = EDGE_DEFS
        .iter()
        .map(|d| db.row_count(&d.table_name()).unwrap_or(0))
        .sum();
    (v, e)
}

pub fn run(args: &Args, out: &mut Outcome) {
    let tracer = Tracer::new(args.trace);
    let mut sides: [[Side; 2]; 2] = Default::default(); // [traced?][sut]
    for t in sides.iter_mut().flatten() {
        t.sched = vec![Samples::default(); KIND_CLASS.len()];
        t.service = vec![Samples::default(); KIND_CLASS.len()];
    }
    let mut setup_times = Vec::new();
    let mut native_delta = [0u64; 3];
    let mut cycle = 0u64;
    // A fixed number of whole cycles (set-up, then both drains), about
    // `--seconds` of drain time; a traced run alternates untraced and
    // traced cycles.
    let cycles = (args.seconds / SECONDS_PER_CYCLE).max(2);
    while cycle < cycles {
        let traced = args.trace && cycle % 2 == 1;
        let t_setup = Instant::now();
        let t0 = Instant::now();
        let data: GeneratedData = generate(&GeneratorConfig {
            snapshot_fraction: INGEST_CUT,
            ..dataset_config(INGEST_PERSONS, args.seed)
        });
        let gen_s = t0.elapsed().as_secs_f64();
        let t_params = Instant::now();
        let inputs = Inputs::new(&data);
        let mut warm_params = ParamStream::new(&data, &inputs, args.seed ^ 0x77);
        let warm: Vec<_> = matrix_kinds().iter().map(|k| warm_params.op(k)).collect();
        let params_s = t_params.elapsed().as_secs_f64();
        let cypher = CypherAdapter::new();
        let pg = SqlAdapter::row_store();
        let adapters: [&dyn SutAdapter; 2] = [&cypher, &pg];
        for (key, a) in SUTS.iter().zip(adapters) {
            let t0 = Instant::now();
            if let Err(e) = a.load(&data.snapshot) {
                return out.violation(format!("{key}: load: {e}"));
            }
            out.metrics
                .set(format!("adapter.{key}.load_s"), t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            for op in &warm {
                if let Err(e) = a.execute_read(op) {
                    return out.violation(format!("{key}: warm-up {}: {e}", op.name()));
                }
            }
            if let Some(b) = a.graph_backend() {
                if !settle(&*b, Duration::from_secs(60)) {
                    return out.violation(format!("{key}: no fresh snapshot after warm-up"));
                }
            }
            out.metrics.set(
                format!("adapter.{key}.warmup_s"),
                t0.elapsed().as_secs_f64(),
            );
        }
        cypher.store().compact_now();
        out.metrics.set(
            "native.setup_folds",
            cypher.store().csr_folds_taken() as f64,
        );
        out.metrics.set("datagen.generate_s", gen_s);
        setup_times.push(t_setup.elapsed().as_secs_f64() - params_s);
        if cycle == 0 {
            out.env.push(("persons".into(), INGEST_PERSONS.to_string()));
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
            out.env
                .push(("read_rate_per_s".into(), READ_RATE.to_string()));
            out.env.push((
                "threads".into(),
                "1 applier + 1 open-loop reader (run_ingest adds its producer)".into(),
            ));
        }

        let caches = [cypher.result_cache(), pg.result_cache()];
        for (s, key) in SUTS.iter().enumerate() {
            let side = &mut sides[traced as usize][s];
            let wrapper = TracedAdapter::new(adapters[s], &tracer, &format!("ingest.{key}"));
            let sut: &dyn SutAdapter = if traced { &wrapper } else { adapters[s] };
            let before = caches[s].map(|c| c.stats()).unwrap_or_default();
            let native0 = [
                cypher.store().csr_folds_taken(),
                cypher.store().fold_lock_sessions(),
                cypher.store().write_seq(),
            ];
            let mut params =
                ParamStream::new(&data, &inputs, mix(args.seed, 100 + cycle * 2 + s as u64));
            let stop = AtomicBool::new(false);
            let mut failed = 0u64;
            let report = std::thread::scope(|scope| {
                let reads = scope.spawn(|| {
                    reader(sut, &mut params, &stop, side, &mut failed);
                });
                let report = run_ingest(
                    sut,
                    &data.updates,
                    data.cut_ms,
                    &IngestConfig {
                        appliers: 1,
                        batch_size: BATCH,
                        ..IngestConfig::default()
                    },
                );
                stop.store(true, Ordering::Relaxed);
                let joined = reads.join();
                (report, joined.is_ok())
            });
            let (report, reader_ok) = report;
            if !reader_ok {
                return out.violation(format!("{key}: reader thread panicked"));
            }
            out.failed += failed + report.errors;
            out.attempted += side.reads as u64 + data.updates.len() as u64;
            side.applied += report.applied;
            side.drain_s += report.elapsed.as_secs_f64();
            side.errors += report.errors;
            side.batches
                .extend(&wrapper.batches.lock().expect("batch samples poisoned"));
            let after = caches[s].map(|c| c.stats()).unwrap_or_default();
            side.cache.hits += after.hits - before.hits;
            side.cache.misses += after.misses - before.misses;
            side.cache.stale_evicted += after.stale_evicted - before.stale_evicted;
            side.cache.stale_served += after.stale_served - before.stale_served;
            if s == 0 && traced {
                let store = cypher.store();
                let now = [
                    store.csr_folds_taken(),
                    store.fold_lock_sessions(),
                    store.write_seq(),
                ];
                for i in 0..3 {
                    native_delta[i] += now[i] - native0[i];
                }
            }
            if report.errors != 0 {
                out.violation(format!("{key}: {} ingest errors", report.errors));
            }
        }
        // Output checks: the whole stream landed in both engines, and
        // neither result cache served a stale entry.
        let (cv, ce) = (cypher.store().vertex_count(), cypher.store().edge_count());
        let (pv, pe) = row_counts(&pg);
        for (key, v, e) in [("cypher", cv, ce), ("pg_sql", pv, pe)] {
            if v != data.total_vertices() || e != data.total_edges() {
                out.violation(format!(
                    "{key}: {v} vertices / {e} edges after the stream, expected {} / {}",
                    data.total_vertices(),
                    data.total_edges()
                ));
            }
        }
        for side in &sides[traced as usize] {
            if side.cache.stale_served != 0 {
                out.violation(format!(
                    "a result cache served {} stale entries",
                    side.cache.stale_served
                ));
            }
        }
        cycle += 1;
    }

    let m = &mut out.metrics;
    if args.trace {
        let plain = &sides[0];
        let traced = &sides[1];
        for (s, key) in SUTS.iter().enumerate() {
            let t = &traced[s];
            m.set(
                format!("ingest.{key}.batch_apply_mean_us"),
                t.batches.mean_us(),
            );
            m.set(
                format!("ingest.{key}.batch_apply_p99_us"),
                t.batches.quantile_us(0.99),
            );
            m.set(format!("ingest.{key}.batches"), t.batches.len() as f64);
            m.set(format!("ingest.{key}.errors"), t.errors as f64);
            m.set(format!("ingest.{key}.drain_s"), t.drain_s);
            m.set(
                format!("ingest.{key}.short_read_mean_us"),
                t.class_service(4).mean_us(),
            );
            m.set(
                format!("ingest.{key}.complex_read_mean_us"),
                t.class_service(5).mean_us(),
            );
            let c = &t.cache;
            let lookups = (c.hits + c.misses).max(1);
            m.set(
                format!("cache.adapter.{key}.hit_rate"),
                c.hits as f64 / lookups as f64,
            );
            m.set(
                format!("cache.adapter.{key}.stale_evicted"),
                c.stale_evicted as f64,
            );
        }
        m.set("native.drain_csr_folds", native_delta[0] as f64);
        m.set("native.drain_fold_lock_sessions", native_delta[1] as f64);
        m.set("native.drain_write_seq", native_delta[2] as f64);
        let (mut late, mut sched) = (Samples::default(), Samples::default());
        for s in traced.iter().chain(plain.iter()) {
            late.extend(&s.late);
            s.sched.iter().for_each(|c| sched.extend(c));
        }
        m.set("harness.sched_late_p99_us", late.quantile_us(0.99));
        m.set("harness.sched_read_p99_us", sched.quantile_us(0.99));
        let rate = |sides: &[Side; 2]| {
            sides.iter().map(|s| s.applied as f64).sum::<f64>()
                / sides.iter().map(|s| s.drain_s).sum::<f64>()
        };
        m.set(
            "harness.trace_overhead_pct",
            (rate(plain) / rate(traced) - 1.0) * 100.0,
        );
        out.write_trace(&tracer, "ingest_reads");
    } else {
        let plain = &sides[0];
        let mut text =
            String::from("sut\tkind\treads\tservice_p50_us\tsched_p50_us\tsched_p99_us\n");
        for (s, key) in SUTS.iter().enumerate() {
            for (k, kind) in matrix_kinds().iter().enumerate() {
                let (sv, sc) = (&plain[s].service[k], &plain[s].sched[k]);
                if sc.len() == 0 {
                    continue;
                }
                text.push_str(&format!(
                    "{key}\t{kind}\t{}\t{:.1}\t{:.1}\t{:.1}\n",
                    sc.len(),
                    sv.median_us(),
                    sc.median_us(),
                    sc.quantile_us(0.99)
                ));
            }
        }
        eprint!("{text}");
        m.set("setup_s", median(&setup_times));
        m.set("peak_rss_mb", peak_rss_mb());
        let reads: usize = plain.iter().map(|s| s.reads).sum();
        m.set(
            "read_ops_s",
            reads as f64 / plain.iter().map(|s| s.reader_s).sum::<f64>(),
        );
        let mut service = Samples::default();
        plain
            .iter()
            .flat_map(|s| &s.service)
            .for_each(|c| service.extend(c));
        m.set("read_p99_us", service.quantile_us(0.99));
        for (c, class) in CLASSES.iter().enumerate() {
            let cells = plain.iter().flat_map(|s| {
                s.service
                    .iter()
                    .zip(KIND_CLASS)
                    .filter(move |(_, k)| *k == c)
                    .map(|(x, _)| x)
            });
            m.set(
                format!("{class}_p50_us"),
                geomean_of(cells, Samples::median_us),
            );
        }
        let applied: u64 = plain.iter().map(|s| s.applied).sum();
        m.set(
            "update_ops_s",
            applied as f64 / plain.iter().map(|s| s.drain_s).sum::<f64>(),
        );
    }
}
