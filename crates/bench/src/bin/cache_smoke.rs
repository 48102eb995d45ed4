//! Epoch-keyed result-cache smoke check for CI: Zipf-skewed reads
//! under live ingest against both cached layers — the reactor inline
//! path and the declarative adapters — each verified read-for-read
//! against a cache-bypassed twin at the same point in the update
//! stream. Exits 0 only if
//!
//! * every cached read equals the bypassed execution (a served stale
//!   entry would diverge immediately after the write that outdated it),
//! * every layer's hit rate is nonzero under the skewed mix,
//! * the stale-serve tripwire counter is exactly 0 everywhere, and
//! * counter accounting is clean: hits + misses == lookups and every
//!   stale eviction was counted as a miss.
//!
//! Usage: `cargo run --release --bin cache_smoke`
//! (`SNB_READ_SKEW` sets the Zipf exponent, default 1.0.)

use snb_bench::{env_f64, Zipf};
use snb_cache::CacheStats;
use snb_core::{EdgeLabel, GraphBackend, PropKey, Value, VertexLabel, Vid};
use snb_datagen::{generate, GeneratorConfig};
use snb_driver::adapter::cypher::CypherAdapter;
use snb_driver::adapter::SutAdapter;
use snb_driver::ops::ReadOp;
use snb_gremlin::{wire, GremlinServer, ServerConfig, Traversal};
use std::sync::Arc;

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// The invariants every layer must hold after its mixed run.
fn check(stats: CacheStats, layer: &str) {
    assert!(stats.hits > 0, "{layer}: zero hits under skewed reads: {stats:?}");
    assert_eq!(stats.stale_served, 0, "{layer}: stale entry served: {stats:?}");
    assert_eq!(
        stats.hits + stats.misses,
        stats.lookups(),
        "{layer}: hits + misses != lookups: {stats:?}"
    );
    assert!(
        stats.stale_evicted <= stats.misses,
        "{layer}: stale evictions exceed misses: {stats:?}"
    );
    eprintln!(
        "[cache_smoke] {layer}: hit rate {:.3} ({} hits / {} lookups), \
         {} stale evicted, 0 stale served",
        stats.hit_rate(),
        stats.hits,
        stats.lookups(),
        stats.stale_evicted
    );
}

fn main() {
    let skew = env_f64("SNB_READ_SKEW", 1.0);
    let mut cfg = GeneratorConfig::tiny();
    cfg.persons = 200;
    let data = generate(&cfg);
    let persons: Vec<u64> =
        data.snapshot.vertices_of(VertexLabel::Person).map(|v| v.id).collect();
    assert!(!data.updates.is_empty(), "generator produced an update stream");
    let mut verified = 0usize;

    // --- Layer 2: adapter result caches under live ingest ------------
    // Cached and capacity-0 Cypher adapters replay the same stream in
    // chunks; between chunks a burst of Zipf-skewed point/one-hop reads
    // must agree pairwise.
    let cached = CypherAdapter::new();
    let bypass = CypherAdapter::with_result_cache(0);
    cached.load(&data.snapshot).unwrap();
    bypass.load(&data.snapshot).unwrap();
    let mut zipf = Zipf::new(persons.len(), skew, 0xcafe);
    for chunk in data.updates.chunks(8).take(120) {
        for op in chunk {
            cached.execute_update(op).unwrap();
            bypass.execute_update(op).unwrap();
        }
        for _ in 0..24 {
            let person = persons[zipf.next()];
            for op in [ReadOp::PointLookup { person }, ReadOp::OneHop { person }] {
                assert_eq!(
                    sorted(cached.execute_read(&op).unwrap()),
                    sorted(bypass.execute_read(&op).unwrap()),
                    "adapter {op:?} diverged from the bypassed twin"
                );
                verified += 1;
            }
        }
    }
    check(cached.result_cache().expect("default adapter cache on").stats(), "adapter:cypher");

    // --- Layer 1: reactor inline cache under live writes -------------
    // Two submitters over the SAME store — one caching, one capacity-0
    // — while snapshot-shaped writes land directly on the store (every
    // one advances the epoch the cache keys embed).
    let store = Arc::new(snb_graph_native::NativeGraphStore::new());
    for v in &data.snapshot.vertices {
        store.add_vertex(v.label, v.id, &v.props).unwrap();
    }
    for e in &data.snapshot.edges {
        store.add_edge(e.label, e.src, e.dst, &e.props).unwrap();
    }
    let cached_srv =
        GremlinServer::start(store.clone() as Arc<dyn GraphBackend>, ServerConfig::default());
    let bypass_srv = GremlinServer::start(
        store.clone() as Arc<dyn GraphBackend>,
        ServerConfig { result_cache_capacity: 0, ..Default::default() },
    );
    let cached_raw = cached_srv.raw_submitter();
    let bypass_raw = bypass_srv.raw_submitter();
    let mut zipf = Zipf::new(persons.len(), skew, 0xbeef);
    for chunk in data.updates.chunks(8).take(120) {
        for op in chunk {
            if let Some(v) = &op.new_vertex {
                store.add_vertex(v.label, v.id, &v.props).unwrap();
            }
            for e in &op.new_edges {
                store.add_edge(e.label, e.src, e.dst, &e.props).unwrap();
            }
        }
        for _ in 0..24 {
            let v = Vid::new(VertexLabel::Person, persons[zipf.next()]);
            for t in [
                Traversal::v(v).both(EdgeLabel::Knows).dedup().count(),
                Traversal::v(v).values(PropKey::FirstName),
            ] {
                let payload = wire::encode_traversal(&t);
                let got = cached_raw.try_execute_inline(&payload).expect("inline").unwrap();
                let want = bypass_raw.try_execute_inline(&payload).expect("inline").unwrap();
                assert_eq!(
                    wire::decode_values(&got).unwrap(),
                    wire::decode_values(&want).unwrap(),
                    "inline read diverged from the bypassed twin"
                );
                verified += 1;
            }
        }
    }
    check(cached_srv.result_cache().expect("inline cache on").stats(), "inline:gremlin");

    println!(
        "cache_smoke OK: {verified} cached reads verified against bypassed twins \
         under live ingest (zipf s={skew}), nonzero hit rate on both layers, \
         0 stale serves, counter accounting clean"
    );
}
