//! EXPLAIN snapshot tests for the SQL front end of the shared
//! optimizer: golden-file renderings of the chosen plans for the
//! interactive workload's SQL query shapes. A planner regression —
//! lost index strategy, bad join order, an undetected reach CTE —
//! shows up as a readable text diff instead of a silent slowdown.
//!
//! Regenerate with `BLESS=1 cargo test -p snb-relational --test
//! explain_golden` after an intentional planner change.

use snb_core::Value;
use snb_relational::{Database, Layout};
use std::path::PathBuf;

/// Small fixed database: 5 persons in a chain-ish knows topology.
/// Deterministic, so cost estimates in the goldens are stable.
fn fixture() -> Database {
    let db = Database::new_snb(Layout::Row);
    for (i, name) in ["alice", "bob", "carol", "dave", "eve"].iter().enumerate() {
        let def = db.table_def("person").unwrap();
        let mut row = vec![Value::Null; def.arity()];
        row[0] = Value::Int(i as i64);
        row[def.col("firstName").unwrap()] = Value::str(name);
        db.insert_row("person", row).unwrap();
    }
    for (a, b) in [(0i64, 1i64), (0, 2), (1, 2), (2, 3), (3, 4)] {
        let def = db.table_def("person_knows_person").unwrap();
        let mut row = vec![Value::Null; def.arity()];
        row[0] = Value::Int(a);
        row[1] = Value::Int(b);
        db.insert_row("person_knows_person", row).unwrap();
    }
    db
}

/// 200 persons sharing 8 first names, each knowing the next person and
/// the one seven ahead (degree 4 both ways): large enough that a plan
/// seeding from an unindexed `firstName` filter reads every person.
fn ring_fixture() -> Database {
    let db = Database::new_snb(Layout::Row);
    let def = db.table_def("person").unwrap();
    let names = ["ana", "ben", "cy", "dot", "ed", "flo", "gus", "hal"];
    for i in 0..200i64 {
        let mut row = vec![Value::Null; def.arity()];
        row[0] = Value::Int(i);
        row[def.col("firstName").unwrap()] = Value::str(names[i as usize % names.len()]);
        db.insert_row("person", row).unwrap();
    }
    let kdef = db.table_def("person_knows_person").unwrap();
    for i in 0..200i64 {
        for step in [1, 7] {
            let mut row = vec![Value::Null; kdef.arity()];
            row[0] = Value::Int(i);
            row[1] = Value::Int((i + step) % 200);
            db.insert_row("person_knows_person", row).unwrap();
        }
    }
    db
}

fn check(db: &Database, name: &str, query: &str) {
    let result = db.sql_explain(query).unwrap();
    assert_eq!(result.columns, vec!["plan".to_string()]);
    let mut actual = String::new();
    for row in &result.rows {
        match &row[0] {
            Value::Str(s) => {
                actual.push_str(s);
                actual.push('\n');
            }
            other => panic!("non-text plan row: {other:?}"),
        }
    }
    let path: PathBuf =
        [env!("CARGO_MANIFEST_DIR"), "tests", "golden", &format!("{name}.txt")].iter().collect();
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with BLESS=1)", path.display()));
    assert_eq!(actual, expected, "EXPLAIN drift for `{name}`;\n--- actual ---\n{actual}");
}

#[test]
fn explain_matches_goldens() {
    let db = fixture();
    // Point lookup: scan_strategy resolves the anchored scan to the
    // primary-key index.
    check(&db, "sql_point_lookup", "SELECT firstName FROM person WHERE id = $1");
    // One-hop: join_order seeds from the anchored edge scan, then the
    // person table joins through its id index.
    check(
        &db,
        "sql_one_hop",
        "SELECT p.id, p.firstName FROM person_knows_person k \
         JOIN person p ON p.id = k.dst WHERE k.src = $1",
    );
    // Two-hop self-join: three sources ordered by estimated
    // cardinality, both hops through the src index.
    check(
        &db,
        "sql_two_hop",
        "SELECT DISTINCT k2.dst FROM person_knows_person k1 \
         JOIN person_knows_person k2 ON k2.src = k1.dst WHERE k1.src = $1",
    );
    // Written person-first, but the anchored edge scan is cheaper:
    // join_order re-seeds the join from the edge table.
    check(
        &db,
        "sql_join_reorder",
        "SELECT p.firstName FROM person p \
         JOIN person_knows_person k ON k.src = p.id WHERE k.dst = $1",
    );
    // Undirected one-hop as a UNION: each arm planned independently.
    check(
        &db,
        "sql_one_hop_union",
        "SELECT p.id FROM person_knows_person k JOIN person p ON p.id = k.dst WHERE k.src = $1 \
         UNION \
         SELECT p.id FROM person_knows_person k JOIN person p ON p.id = k.src WHERE k.dst = $1",
    );
    // Shortest path: the reach-shaped recursive CTE is rewritten to a
    // bidirectional BFS over the edge indexes.
    check(
        &db,
        "sql_shortest_path",
        "WITH RECURSIVE reach(id, depth) AS ( \
           SELECT dst, 1 FROM person_knows_person WHERE src = $1 \
           UNION SELECT src, 1 FROM person_knows_person WHERE dst = $1 \
           UNION SELECT k.dst, r.depth + 1 FROM reach r \
                 JOIN person_knows_person k ON k.src = r.id WHERE r.depth < 10 \
           UNION SELECT k.src, r.depth + 1 FROM reach r \
                 JOIN person_knows_person k ON k.dst = r.id WHERE r.depth < 10 \
         ) SELECT MIN(depth) FROM reach WHERE id = $2",
    );
    // One firstName-filtered two-hop arm of Complex2Hop. The person
    // filter reads all 200 rows however few it keeps, while the k1
    // probe reads ~2: join_order seeds from k1 and joins person last
    // through its id index.
    check(
        &ring_fixture(),
        "sql_complex_two_hop",
        "SELECT p.id, p.lastName, p.birthday FROM person_knows_person k1 \
         JOIN person_knows_person k2 ON k2.src = k1.dst \
         JOIN person p ON p.id = k2.dst \
         WHERE k1.src = $1 AND k2.dst <> $1 AND p.firstName = $2",
    );
}

#[test]
fn explain_prefix_dispatches() {
    let db = fixture();
    let r = db.sql("EXPLAIN SELECT firstName FROM person WHERE id = $1", &[]).unwrap();
    assert_eq!(r.columns, vec!["plan".to_string()]);
    assert!(!r.rows.is_empty());
    // Case-insensitive, leading whitespace tolerated.
    let r2 = db.sql("  explain SELECT firstName FROM person WHERE id = $1", &[]).unwrap();
    assert_eq!(r.rows, r2.rows);
}
