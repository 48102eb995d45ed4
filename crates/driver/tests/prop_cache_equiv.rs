//! Property tests for the epoch-keyed result caches (PR 9): for
//! arbitrary interleavings of reads and writes, every cached layer must
//! return exactly what a cache-bypassed execution returns at the same
//! point in the stream, and the stale-serve tripwire must never fire.
//!
//! Two layers, two properties:
//! * adapter caches — `CypherAdapter` and `SqlAdapter` with the default
//!   cache vs capacity-0 twins fed the identical op stream,
//! * the reactor inline cache — two `RawSubmitter`s over the SAME store,
//!   one caching and one with capacity 0, with writes landing directly
//!   on the shared store between reads.

use proptest::prelude::*;
use snb_core::{EdgeLabel, GraphBackend, PropKey, Value, VertexLabel, Vid};
use snb_datagen::{EdgeRec, UpdateKind, UpdateOp, VertexRec};
use snb_driver::adapter::cypher::CypherAdapter;
use snb_driver::adapter::sql::SqlAdapter;
use snb_driver::adapter::SutAdapter;
use snb_driver::ops::ReadOp;
use snb_gremlin::{wire, GremlinServer, ServerConfig, Traversal};
use snb_relational::Layout;
use std::collections::HashSet;

/// One step of an interleaved stream: either a write (vertex or edge)
/// or a read against a person created so far.
enum Step {
    Write(UpdateOp),
    Read { person: u64 },
}

/// Turn specs into a well-formed interleaving: vertices exist before
/// edges or reads reference them, timestamps strictly increase, and
/// reads re-visit a bounded id space so repeat hits actually occur.
fn build_steps(specs: &[(u8, usize, usize)]) -> Vec<Step> {
    let mut created: Vec<(Vid, i64)> = Vec::new();
    let mut seen: HashSet<(Vid, Vid)> = HashSet::new();
    let mut steps = Vec::new();
    let mut ts = 10i64;
    for &(action, a, b) in specs {
        match action % 4 {
            // Writes are rarer than reads (one action in four) so the
            // caches get windows of stable epochs to serve hits in.
            0 if created.len() < 2 || a % 3 == 0 => {
                let id = 50_000 + created.len() as u64;
                let v = VertexRec {
                    label: VertexLabel::Person,
                    id,
                    props: vec![(PropKey::CreationDate, Value::Date(ts))],
                    creation_ms: ts,
                };
                created.push((v.vid(), ts));
                steps.push(Step::Write(UpdateOp {
                    kind: UpdateKind::AddPerson,
                    ts_ms: ts,
                    dependency_ms: 0,
                    new_vertex: Some(v),
                    new_edges: vec![],
                }));
            }
            0 => {
                let ai = a % created.len();
                let mut bi = b % created.len();
                if bi == ai {
                    bi = (bi + 1) % created.len();
                }
                let (src, src_ts) = created[ai];
                let (dst, dst_ts) = created[bi];
                if !seen.insert((src, dst)) {
                    continue;
                }
                steps.push(Step::Write(UpdateOp {
                    kind: UpdateKind::AddFriendship,
                    ts_ms: ts,
                    dependency_ms: src_ts.max(dst_ts),
                    new_vertex: None,
                    new_edges: vec![EdgeRec {
                        label: EdgeLabel::Knows,
                        src,
                        dst,
                        props: vec![(PropKey::CreationDate, Value::Date(ts))],
                        creation_ms: ts,
                    }],
                }));
            }
            _ if created.is_empty() => continue,
            _ => {
                let (v, _) = created[a % created.len()];
                steps.push(Step::Read { person: v.local() });
            }
        }
        ts += 10;
    }
    steps
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Counter-accounting invariants every cache must keep, plus the
/// correctness tripwire: a hit whose epochs do not match the probe must
/// never be served, so `stale_served` is exactly 0 by construction.
fn assert_clean(stats: snb_cache::CacheStats, layer: &str) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(stats.stale_served, 0, "{}: stale entry served", layer);
    prop_assert_eq!(
        stats.hits + stats.misses,
        stats.lookups(),
        "{}: hits + misses must equal lookups ({:?})",
        layer,
        stats
    );
    prop_assert!(
        stats.stale_evicted <= stats.misses,
        "{}: every stale eviction is a miss ({:?})",
        layer,
        stats
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    // Layer 2: the adapter result caches. Cached and capacity-0 twins
    // of both declarative adapters replay the identical interleaving;
    // every read must agree, at every point in the stream.
    #[test]
    fn adapter_caches_match_bypassed_execution(
        specs in proptest::collection::vec(
            (any::<u8>(), 0usize..1000, 0usize..1000),
            4..120,
        ),
    ) {
        let steps = build_steps(&specs);
        let cy_cached = CypherAdapter::new();
        let cy_bypass = CypherAdapter::with_result_cache(0);
        let sql_cached = SqlAdapter::row_store();
        let sql_bypass = SqlAdapter::with_result_cache(Layout::Row, 0);
        prop_assert!(cy_cached.result_cache().is_some());
        prop_assert!(cy_bypass.result_cache().is_none());

        for step in &steps {
            match step {
                Step::Write(op) => {
                    cy_cached.execute_update(op).unwrap();
                    cy_bypass.execute_update(op).unwrap();
                    sql_cached.execute_update(op).unwrap();
                    sql_bypass.execute_update(op).unwrap();
                }
                Step::Read { person } => {
                    for op in [
                        ReadOp::PointLookup { person: *person },
                        ReadOp::OneHop { person: *person },
                    ] {
                        prop_assert_eq!(
                            sorted(cy_cached.execute_read(&op).unwrap()),
                            sorted(cy_bypass.execute_read(&op).unwrap()),
                            "cypher {:?} diverged", &op
                        );
                        prop_assert_eq!(
                            sorted(sql_cached.execute_read(&op).unwrap()),
                            sorted(sql_bypass.execute_read(&op).unwrap()),
                            "sql {:?} diverged", &op
                        );
                    }
                }
            }
        }
        assert_clean(cy_cached.result_cache().unwrap().stats(), "cypher")?;
        assert_clean(sql_cached.result_cache().unwrap().stats(), "sql")?;
    }

    // Layer 1: the reactor inline cache. Both submitters execute over
    // the SAME store, so any stale entry the cached one served would
    // diverge from the bypass twin immediately after a write.
    #[test]
    fn inline_cache_matches_bypassed_execution(
        specs in proptest::collection::vec(
            (any::<u8>(), 0usize..1000, 0usize..1000),
            4..120,
        ),
    ) {
        let steps = build_steps(&specs);
        let store = std::sync::Arc::new(snb_graph_native::NativeGraphStore::new());
        let cached = GremlinServer::start(
            store.clone() as std::sync::Arc<dyn GraphBackend>,
            ServerConfig::default(),
        );
        let bypass = GremlinServer::start(
            store.clone() as std::sync::Arc<dyn GraphBackend>,
            ServerConfig { result_cache_capacity: 0, ..Default::default() },
        );
        let cached_raw = cached.raw_submitter();
        let bypass_raw = bypass.raw_submitter();

        for step in &steps {
            match step {
                Step::Write(op) => {
                    // Writes land directly on the shared store — the
                    // epoch advances underneath both submitters.
                    if let Some(v) = &op.new_vertex {
                        store.add_vertex(v.label, v.id, &v.props).unwrap();
                    }
                    for e in &op.new_edges {
                        store.add_edge(e.label, e.src, e.dst, &e.props).unwrap();
                    }
                }
                Step::Read { person } => {
                    let v = Vid::new(VertexLabel::Person, *person);
                    for t in [
                        Traversal::v(v).both(EdgeLabel::Knows).dedup().count(),
                        Traversal::v(v).values(PropKey::CreationDate),
                    ] {
                        let payload = wire::encode_traversal(&t);
                        let got = cached_raw
                            .try_execute_inline(&payload)
                            .expect("read is inline-eligible")
                            .unwrap();
                        let want = bypass_raw
                            .try_execute_inline(&payload)
                            .expect("read is inline-eligible")
                            .unwrap();
                        prop_assert_eq!(
                            wire::decode_values(&got).unwrap(),
                            wire::decode_values(&want).unwrap(),
                            "inline read diverged for person {}", person
                        );
                    }
                }
            }
        }
        assert_clean(cached.result_cache().unwrap().stats(), "inline")?;
        prop_assert!(bypass.result_cache().is_none());
    }
}
