//! gremlin_tcp_hot: the paper's §4.4 Gremlin Server deployment. The
//! engine_matrix dataset sits in one native store behind a
//! `GremlinServer` and an epoll-reactor `NetServer`; one client thread
//! with one pooled connection submits Gremlin traversals with
//! Zipf-skewed start vertices, so the hot set fits the 4096-entry
//! reactor result cache.

use snb_core::{GraphBackend, Value};
use snb_datagen::{generate, GeneratedData};
use snb_driver::adapter::cypher::CypherAdapter;
use snb_driver::adapter::SutAdapter;
use snb_gremlin::{
    execute_with, ExecConfig, GremlinClient, GremlinServer, ServerConfig, Traversal,
};
use snb_net::{ClientConfig, NetPool, NetServer, NetServerConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::{geomean_of, median, peak_rss_mb, Samples};
use crate::trace::{intern, Tracer, ROOT};
use crate::workload::{
    after_stream, dataset_config, gremlin_round, Inputs, ParamStream, CLASSES, GREMLIN_KINDS,
    MATRIX_PERSONS, ZIPF_S,
};
use crate::wrap::TracedBackend;
use crate::{Args, Outcome};

/// Full set-ups per run; set-up time is their median.
const SETUPS: usize = 5;
const WRITE_BATCH: usize = 256;
/// Every 16th timed traversal is re-executed in-process for the check.
const CHECK_EVERY: u64 = 16;

struct Deployment {
    /// Snapshot + stream: what the served store holds.
    full: GeneratedData,
    stream_ops: usize,
    backend: Arc<dyn GraphBackend>,
    client: GremlinClient,
    cache: Option<Arc<snb_cache::ResultCache<Vec<u8>>>>,
    server: NetServer,
    pool: NetPool,
}

/// One full set-up: generate, load, apply the whole update stream through
/// the store's batch write path in process (writes over TCP are
/// excluded), fold, start the servers, connect, warm up. Returns the
/// deployment, its set-up seconds and its write seconds (timed as
/// `update_ops_s`, not set-up).
fn setup(args: &Args, out: &mut Outcome) -> Result<(Deployment, f64, f64), String> {
    let t_setup = Instant::now();
    let t0 = Instant::now();
    let data = generate(&dataset_config(MATRIX_PERSONS, args.seed));
    out.metrics
        .set("datagen.generate_s", t0.elapsed().as_secs_f64());
    // Parameter preparation is the harness's, not the program's: keep it
    // out of set-up time, and before the load, so no background fold runs
    // meanwhile. The warm-up runs one traversal of each class, from a
    // stream the timed loop never draws from.
    let t_params = Instant::now();
    let full = after_stream(&data);
    let inputs = Inputs::new(&full);
    let mut warm = ParamStream::new(&full, &inputs, args.seed ^ 0x77);
    let mut hot = warm.zipf_persons(ZIPF_S);
    let warm_round = gremlin_round(&mut warm, &mut hot);
    let params_s = t_params.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let adapter = CypherAdapter::new();
    adapter
        .load(&data.snapshot)
        .map_err(|e| format!("load: {e}"))?;
    out.metrics
        .set("adapter.cypher.load_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    for chunk in data.updates.chunks(WRITE_BATCH) {
        out.attempted += chunk.len() as u64;
        adapter
            .execute_update_batch(chunk)
            .map_err(|e| format!("update batch: {e}"))?;
    }
    let write_s = t0.elapsed().as_secs_f64();
    let store = adapter.store();
    if store.vertex_count() != data.total_vertices() || store.edge_count() != data.total_edges() {
        out.violation(format!(
            "after the stream the store holds {} vertices / {} edges, expected {} / {}",
            store.vertex_count(),
            store.edge_count(),
            data.total_vertices(),
            data.total_edges()
        ));
    }
    let t0 = Instant::now();
    let backend = adapter
        .graph_backend()
        .ok_or("the native store has a structure API")?;
    store.compact_now();
    let folds = store.csr_folds_taken() as f64;
    out.metrics.set("native.setup_folds", folds);
    let gremlin = GremlinServer::start(Arc::clone(&backend), ServerConfig::default());
    let client = gremlin.client();
    let cache = gremlin.result_cache().cloned();
    let server = NetServer::start(gremlin, NetServerConfig::default())
        .map_err(|e| format!("server: {e}"))?;
    let pool = NetPool::connect(
        server.local_addr(),
        ClientConfig {
            connections: 1,
            ..ClientConfig::default()
        },
    )
    .map_err(|e| format!("connect: {e}"))?;
    let mut seen = [false; GREMLIN_KINDS.len()];
    for (kind, t) in warm_round {
        if !std::mem::replace(&mut seen[kind], true) {
            pool.submit(&t)
                .map_err(|e| format!("warm-up {}: {e}", GREMLIN_KINDS[kind].0))?;
        }
    }
    out.metrics
        .set("adapter.cypher.warmup_s", t0.elapsed().as_secs_f64());
    let setup_s = t_setup.elapsed().as_secs_f64() - write_s - params_s;
    let dep = Deployment {
        full,
        stream_ops: data.updates.len(),
        backend,
        client,
        cache,
        server,
        pool,
    };
    Ok((dep, setup_s, write_s))
}

/// Pin the calling thread to the lowest CPU it may run on; threads it
/// starts afterwards inherit the mask. Returns the CPU, or `None` when
/// the affinity calls fail (the run then proceeds unpinned).
///
/// gremlin_tcp_hot pins itself before any server thread starts. On a
/// two-vCPU virtual machine each cross-CPU wake-up costs ~25 µs, so with
/// client and server threads spread over both CPUs the TCP round trip
/// measured the hypervisor's wake-up latency, and its tail doubled in two
/// or three of ten runs of identical code. On one CPU the round trip
/// measures the software path: framing, reactor, cache and executor.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    // glibc's 1024-bit `cpu_set_t`, as 64-bit words.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte size
    // passed, laid out as glibc's `cpu_set_t` (an array of 64-bit words
    // on 64-bit Linux); pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the call only reads the buffer.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

pub fn run(args: &Args, out: &mut Outcome) {
    let pinned = pin_to_one_cpu();
    out.env.push((
        "pinned_cpu".into(),
        pinned.map_or("none".into(), |c| c.to_string()),
    ));
    let mut setup_times = Vec::new();
    let mut write_s = 0.0;
    let mut dep: Option<Deployment> = None;
    for _ in 0..SETUPS {
        // Tear the previous deployment down first so set-ups do not
        // overlap in memory or threads.
        if let Some(mut d) = dep.take() {
            d.server.shutdown();
        }
        match setup(args, out) {
            Ok((d, s, w)) => {
                setup_times.push(s);
                write_s += w;
                dep = Some(d);
            }
            Err(e) => return out.violation(e),
        }
    }
    let mut dep = dep.expect("at least one set-up");
    let inputs = Inputs::new(&dep.full);
    let mut params = ParamStream::new(&dep.full, &inputs, args.seed);
    let mut hot = params.zipf_persons(ZIPF_S);
    out.env.push(("persons".into(), MATRIX_PERSONS.to_string()));
    out.env.push((
        "snapshot_vertices".into(),
        dep.full.snapshot.vertices.len().to_string(),
    ));
    out.env.push((
        "snapshot_edges".into(),
        dep.full.snapshot.edges.len().to_string(),
    ));
    out.env.push(("zipf_s".into(), ZIPF_S.to_string()));
    out.env.push((
        "threads".into(),
        format!(
            "1 client, 1 connection; server: {} reactor loops, {} workers",
            snb_net::default_reactor_threads(),
            snb_gremlin::default_workers()
        ),
    ));

    let tracer = Tracer::new(args.trace);
    let traced_store = TracedBackend::new(&*dep.backend, &tracer);
    let rung_names: Vec<[&'static str; 4]> = CLASSES
        .iter()
        .map(|c| ["tcp", "server", "exec", "store"].map(|r| intern(&format!("ladder.{c}.{r}"))))
        .collect();
    // Per traversal kind: TCP latency of untraced rounds.
    let mut lat: Vec<Samples> = vec![Samples::default(); GREMLIN_KINDS.len()];
    // Per class: tcp, server and exec rung latencies of traced rounds.
    let mut ladder: Vec<[Samples; 3]> = vec![Default::default(); 6];
    let mut store_spans: Vec<(u32, usize, u64)> = Vec::new(); // (exec span, class, calls)
    let mut kept: Vec<(Traversal, Vec<Value>)> = Vec::new();
    let (mut plain_s, mut plain_ops) = (0.0, 0usize);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut round = 0usize;
    let mut req = 0u64;
    while round < 2 || Instant::now() < deadline {
        let is_traced = args.trace && round % 2 == 1;
        let batch = gremlin_round(&mut params, &mut hot);
        let t_round = Instant::now();
        for (kind, t) in &batch {
            let class = &GREMLIN_KINDS[*kind].1;
            req += 1;
            out.attempted += 1;
            let t0 = Instant::now();
            let r = dep.pool.submit(t);
            let t1 = Instant::now();
            let rows = match r {
                Ok(rows) => rows,
                Err(e) => {
                    out.failed += 1;
                    lat[*kind].push_failed();
                    out.note(format!("{}: {e}", GREMLIN_KINDS[*kind].0));
                    continue;
                }
            };
            if !is_traced {
                lat[*kind].push(t1 - t0);
                if req.is_multiple_of(CHECK_EVERY) {
                    kept.push((t.clone(), rows));
                }
                continue;
            }
            let names = rung_names[*class];
            tracer.record(names[0], ROOT, req, t0, t1);
            ladder[*class][0].push(t1 - t0);
            let t0 = Instant::now();
            let server = dep.client.submit(t);
            let t1 = Instant::now();
            tracer.record(names[1], ROOT, req, t0, t1);
            ladder[*class][1].push(t1 - t0);
            let t0 = Instant::now();
            let exec = execute_with(&*dep.backend, t, ExecConfig::default());
            let t1 = Instant::now();
            tracer.record(names[2], ROOT, req, t0, t1);
            ladder[*class][2].push(t1 - t0);
            let id = tracer.reserve();
            traced_store.enter(id, req);
            let calls0 = traced_store.calls();
            let t0 = Instant::now();
            let wrapped = execute_with(&traced_store, t, ExecConfig::default());
            tracer.record_as(id, names[3], ROOT, req, t0, Instant::now());
            store_spans.push((id, *class, traced_store.calls() - calls0));
            for (rung, r) in [("server", server), ("exec", exec), ("traced exec", wrapped)] {
                match r {
                    Ok(v) if v == rows => {}
                    Ok(_) => out.violation(format!("{rung} rows differ from TCP rows for {t:?}")),
                    Err(e) => out.violation(format!("{rung} failed on {t:?}: {e}")),
                }
            }
        }
        if !is_traced {
            plain_s += t_round.elapsed().as_secs_f64();
            plain_ops += batch.len();
        }
        round += 1;
    }

    // Output checks: TCP rows equal in-process execution on the same
    // store; the reactor cache never served a stale entry.
    for (t, rows) in &kept {
        match execute_with(&*dep.backend, t, ExecConfig::default()) {
            Ok(v) if &v == rows => {}
            Ok(_) => out.violation(format!("TCP rows differ from execute_with for {t:?}")),
            Err(e) => out.violation(format!("execute_with failed on {t:?}: {e}")),
        }
    }
    let cache = dep.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    if cache.stale_served != 0 {
        out.violation(format!(
            "reactor cache served {} stale entries",
            cache.stale_served
        ));
    }

    dep.server.shutdown();

    let m = &mut out.metrics;
    if args.trace {
        let store_ns: BTreeMap<u32, u64> = tracer.spans().iter().filter(|s| s.parent != ROOT).fold(
            BTreeMap::new(),
            |mut acc, s| {
                *acc.entry(s.parent).or_default() += s.dur_ns();
                acc
            },
        );
        let mut store_us = vec![Samples::default(); 6];
        let mut calls = [(0u64, 0u64); 6];
        for (id, class, n) in &store_spans {
            store_us[*class].push(Duration::from_nanos(store_ns.get(id).copied().unwrap_or(0)));
            calls[*class].0 += n;
            calls[*class].1 += 1;
        }
        for (c, class) in CLASSES.iter().enumerate() {
            m.set(format!("ladder.{class}.tcp_us"), ladder[c][0].mean_us());
            m.set(format!("ladder.{class}.server_us"), ladder[c][1].mean_us());
            m.set(format!("ladder.{class}.exec_us"), ladder[c][2].mean_us());
            m.set(format!("ladder.{class}.store_us"), store_us[c].mean_us());
            m.set(
                format!("ladder.{class}.store_calls_per_op"),
                calls[c].0 as f64 / calls[c].1.max(1) as f64,
            );
        }
        m.set("cache.reactor.hit_rate", cache.hit_rate());
        m.set("cache.reactor.bypass", cache.bypass as f64);
        m.set("cache.reactor.stale_served", cache.stale_served as f64);
        let (mut traced_tcp, mut plain_tcp) = (Samples::default(), Samples::default());
        ladder.iter().for_each(|l| traced_tcp.extend(&l[0]));
        lat.iter().for_each(|s| plain_tcp.extend(s));
        m.set(
            "harness.trace_overhead_pct",
            (traced_tcp.mean_us() / plain_tcp.mean_us() - 1.0) * 100.0,
        );
        out.write_trace(&tracer, "gremlin_tcp_hot");
    } else {
        let mut text = String::from("kind\treads\tp50_us\tp99_us\n");
        for (s, (kind, _)) in lat.iter().zip(GREMLIN_KINDS) {
            let (p50, p99) = (s.median_us(), s.quantile_us(0.99));
            text.push_str(&format!("{kind}\t{}\t{p50:.1}\t{p99:.1}\n", s.len()));
        }
        eprint!("{text}");
        m.set("setup_s", median(&setup_times));
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("read_ops_s", plain_ops as f64 / plain_s);
        let p99 = geomean_of(&lat, |s| s.quantile_us(0.99));
        m.set("read_p99_us", p99);
        for (c, class) in CLASSES.iter().enumerate() {
            let of_class = lat.iter().zip(GREMLIN_KINDS).filter(|(_, k)| k.1 == c);
            let p50 = geomean_of(of_class.map(|(s, _)| s), Samples::median_us);
            m.set(format!("{class}_p50_us"), p50);
        }
        m.set("update_ops_s", (SETUPS * dep.stream_ops) as f64 / write_s);
    }
}
