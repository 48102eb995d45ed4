//! Oracle property tests for the reach-CTE BFS rewrite: over random
//! graphs, the planned `sql()` (a bidirectional BFS over the edge
//! indexes) must return exactly what `sql_naive()` (semi-naive
//! iteration of the recursive CTE) returns, for directed and undirected
//! reach with depth bounds 1, 2 and 4. Each graph carries a fixed chain
//! so a target at exactly depth N and at N+1 always exists, rows with
//! `NULL` endpoints, and probes for start = target (a closed walk),
//! unreachable and dangling ids. `TRANSITIVE` shares the BFS and is
//! cross-checked against the CTE of the same direction.

use proptest::prelude::*;
use snb_core::Value;
use snb_relational::{Database, Layout};

/// First id of the chain `CHAIN, CHAIN+1, ..., CHAIN+CHAIN_LEN`.
const CHAIN: i64 = 100;
const CHAIN_LEN: i64 = 5;

fn reach_cte(max_depth: u32, undirected: bool) -> String {
    let mirror_base = if undirected { "UNION SELECT src, 1 FROM person_knows_person WHERE dst = $1 " } else { "" };
    let mirror_rec = if undirected {
        format!(
            "UNION SELECT k.src, r.depth + 1 FROM reach r \
             JOIN person_knows_person k ON k.dst = r.id WHERE r.depth < {max_depth} "
        )
    } else {
        String::new()
    };
    format!(
        "WITH RECURSIVE reach(id, depth) AS ( \
           SELECT dst, 1 FROM person_knows_person WHERE src = $1 {mirror_base}\
           UNION SELECT k.dst, r.depth + 1 FROM reach r \
                 JOIN person_knows_person k ON k.src = r.id WHERE r.depth < {max_depth} {mirror_rec}\
         ) SELECT MIN(depth) FROM reach WHERE id = $2"
    )
}

/// Edge table of the given `(src, dst)` rows (`None` stores `NULL`)
/// plus the fixed chain.
fn build(layout: Layout, edges: &[(Option<i64>, Option<i64>)]) -> Database {
    let db = Database::new_snb(layout);
    let arity = db.table_def("person_knows_person").unwrap().arity();
    let chain = (CHAIN..CHAIN + CHAIN_LEN).map(|i| (Some(i), Some(i + 1)));
    for (a, b) in edges.iter().copied().chain(chain) {
        let mut row = vec![Value::Null; arity];
        row[0] = a.map_or(Value::Null, Value::Int);
        row[1] = b.map_or(Value::Null, Value::Int);
        db.insert_row("person_knows_person", row).unwrap();
    }
    db
}

/// Endpoint over ids `0..n` from a random byte; one in eight is `NULL`.
fn endpoint(x: u8, n: i64) -> Option<i64> {
    (x % 8 != 7).then_some(x as i64 % n)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn reach_bfs_matches_semi_naive(
        n in 1..16i64,
        raw in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
        picks in proptest::collection::vec((0..16i64, 0..16i64), 3..4),
    ) {
        let edges: Vec<_> = raw.iter().map(|&(a, b)| (endpoint(a, n), endpoint(b, n))).collect();
        let mut pairs: Vec<(i64, i64)> = picks.iter().map(|&(a, b)| (a % n, b % n)).collect();
        pairs.push((picks[0].0 % n, picks[0].0 % n)); // closed walk
        pairs.push((CHAIN, CHAIN)); // closed walk on an acyclic path
        pairs.push((0, n + 50)); // dangling target
        pairs.push((n + 50, 0)); // dangling start
        pairs.push((n + 50, n + 50)); // dangling both
        pairs.push((0, CHAIN + 2)); // unreachable across components
        for layout in [Layout::Row, Layout::Column] {
            let db = build(layout, &edges);
            for max_depth in [1u32, 2, 4] {
                let mut probes = pairs.clone();
                let exact = CHAIN + max_depth as i64;
                probes.push((CHAIN, exact));
                probes.push((CHAIN, exact + 1));
                for undirected in [false, true] {
                    let q = reach_cte(max_depth, undirected);
                    for &(a, b) in &probes {
                        let params = [Value::Int(a), Value::Int(b)];
                        let planned = db.sql(&q, &params).unwrap();
                        let naive = db.sql_naive(&q, &params).unwrap();
                        prop_assert_eq!(
                            &planned, &naive,
                            "N={} undirected={} {}->{} {:?}", max_depth, undirected, a, b, layout
                        );
                    }
                    let at = |b: i64| db.sql(&q, &[Value::Int(CHAIN), Value::Int(b)]).unwrap().rows;
                    prop_assert_eq!(at(exact), vec![vec![Value::Int(max_depth as i64)]]);
                    prop_assert_eq!(at(exact + 1), vec![vec![Value::Null]]);

                    if layout != Layout::Column {
                        continue;
                    }
                    let directed = if undirected { "" } else { ", DIRECTED" };
                    let tq = format!("SELECT TRANSITIVE(person_knows_person, $1, $2, {max_depth}{directed})");
                    for &(a, b) in &probes {
                        let params = [Value::Int(a), Value::Int(b)];
                        let t = db.sql(&tq, &params).unwrap().rows;
                        let expect = if a == b {
                            vec![vec![Value::Int(0)]]
                        } else {
                            match db.sql(&q, &params).unwrap().rows.remove(0).remove(0) {
                                Value::Null => vec![],
                                d => vec![vec![d]],
                            }
                        };
                        prop_assert_eq!(t, expect, "TRANSITIVE N={} {}->{}{}", max_depth, a, b, directed);
                    }
                }
            }
        }
    }
}

#[test]
fn null_endpoints_never_join() {
    // 1 -> NULL -> 2: were NULL a vertex, 2 would sit at depth 2.
    let edges = [(Some(1), None), (None, Some(2)), (None, None)];
    for layout in [Layout::Row, Layout::Column] {
        let db = build(layout, &edges);
        for undirected in [false, true] {
            let q = reach_cte(4, undirected);
            let params = [Value::Int(1), Value::Int(2)];
            assert_eq!(db.sql(&q, &params).unwrap().rows, vec![vec![Value::Null]]);
            assert_eq!(db.sql_naive(&q, &params).unwrap().rows, vec![vec![Value::Null]]);
        }
    }
}
