//! Property test for the parallel ingestion pipeline: for arbitrary
//! dependency-correct update streams, N concurrent appliers draining a
//! key-partitioned topic must leave the store in exactly the state
//! sequential application produces — same counts, same adjacency — with
//! zero dependency violations.

use proptest::prelude::*;
use snb_core::{Direction, GraphBackend, PropKey, Value, Vid};
use snb_core::{EdgeLabel, VertexLabel};
use snb_datagen::{EdgeRec, UpdateKind, UpdateOp, VertexRec};
use snb_driver::adapter::cypher::CypherAdapter;
use snb_driver::adapter::SutAdapter;
use snb_driver::{run_ingest, IngestConfig};
use std::collections::HashSet;

/// Turn a spec list into a well-formed stream: strictly increasing
/// timestamps, vertices created before any edge references them, and
/// `dependency_ms` = the latest referenced creation time (always < the
/// op's own timestamp, as the real generator guarantees).
fn build_stream(specs: &[(bool, usize, usize)]) -> Vec<UpdateOp> {
    let mut created: Vec<(Vid, i64)> = Vec::new();
    let mut seen: HashSet<(Vid, Vid)> = HashSet::new();
    let mut ops = Vec::new();
    let mut ts = 10i64;
    for &(is_vertex, a, b) in specs {
        if is_vertex || created.len() < 2 {
            let id = 50_000 + created.len() as u64;
            let v = VertexRec {
                label: VertexLabel::Person,
                id,
                props: vec![(PropKey::CreationDate, Value::Date(ts))],
                creation_ms: ts,
            };
            created.push((v.vid(), ts));
            ops.push(UpdateOp {
                kind: UpdateKind::AddPerson,
                ts_ms: ts,
                dependency_ms: 0,
                new_vertex: Some(v),
                new_edges: vec![],
            });
        } else {
            let ai = a % created.len();
            let mut bi = b % created.len();
            if bi == ai {
                bi = (bi + 1) % created.len();
            }
            let (src, src_ts) = created[ai];
            let (dst, dst_ts) = created[bi];
            if !seen.insert((src, dst)) {
                continue; // a duplicate edge would make both runs error-dependent
            }
            ops.push(UpdateOp {
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
            });
        }
        ts += 10;
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_appliers_match_sequential_application(
        specs in proptest::collection::vec(
            (any::<bool>(), 0usize..1000, 0usize..1000),
            1..120,
        ),
        appliers in 1usize..6,
        batch_size in 1usize..32,
    ) {
        let ops = build_stream(&specs);

        let sequential = CypherAdapter::new();
        for op in &ops {
            sequential.execute_update(op).unwrap();
        }

        let parallel = CypherAdapter::new();
        let report = run_ingest(
            &parallel,
            &ops,
            0,
            &IngestConfig { appliers, batch_size, ..IngestConfig::default() },
        );

        prop_assert_eq!(report.applied, ops.len() as u64, "every op applied exactly once");
        prop_assert_eq!(report.errors, 0, "no dependency violations or failed writes");
        prop_assert_eq!(parallel.store().vertex_count(), sequential.store().vertex_count());
        prop_assert_eq!(parallel.store().edge_count(), sequential.store().edge_count());

        // Per-vertex adjacency must match in both directions: the
        // partitioned, batched path may reorder independent ops but
        // never change what the graph looks like.
        for op in &ops {
            let Some(v) = &op.new_vertex else { continue };
            for dir in [Direction::Out, Direction::In] {
                let mut a = Vec::new();
                let mut b = Vec::new();
                sequential.store().neighbors(v.vid(), dir, None, &mut a).unwrap();
                parallel.store().neighbors(v.vid(), dir, None, &mut b).unwrap();
                a.sort_by_key(|x| x.raw());
                b.sort_by_key(|x| x.raw());
                prop_assert_eq!(a, b, "adjacency of {:?} diverged", v.vid());
            }
        }
    }
}
