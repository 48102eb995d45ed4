//! End-to-end SQL tests on both layouts, using LDBC-shaped queries.

use snb_core::Value;
use snb_relational::{Database, Layout};

/// Friendship chain 1-2-3-4-5 plus 1-3, as in the graph-native tests.
fn fixture(layout: Layout) -> Database {
    let db = Database::new_snb(layout);
    for (id, name) in [(1, "Ada"), (2, "Bob"), (3, "Cai"), (4, "Dee"), (5, "Eli"), (9, "Zoe")] {
        db.sql(
            "INSERT INTO person (id, firstName, lastName, creationDate) VALUES ($1, $2, $3, $4)",
            &[Value::Int(id), Value::str(name), Value::str("X"), Value::Int(id * 100)],
        )
        .unwrap();
    }
    for (a, b, d) in [(1, 2, 10), (2, 3, 20), (3, 4, 30), (4, 5, 40), (1, 3, 50)] {
        db.sql(
            "INSERT INTO person_knows_person VALUES ($1, $2, $3)",
            &[Value::Int(a), Value::Int(b), Value::Int(d)],
        )
        .unwrap();
    }
    db
}

fn both() -> [Database; 2] {
    [fixture(Layout::Row), fixture(Layout::Column)]
}

#[test]
fn point_lookup() {
    for db in both() {
        let r = db
            .sql("SELECT firstName, creationDate FROM person WHERE id = $1", &[Value::Int(3)])
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("Cai"), Value::Date(300)]]);
        let miss = db.sql("SELECT firstName FROM person WHERE id = $1", &[Value::Int(77)]).unwrap();
        assert!(miss.is_empty());
    }
}

#[test]
fn one_hop_undirected_union() {
    for db in both() {
        let r = db
            .sql(
                "SELECT p.id FROM person_knows_person k JOIN person p ON p.id = k.dst WHERE k.src = $1 \
                 UNION \
                 SELECT p.id FROM person_knows_person k JOIN person p ON p.id = k.src WHERE k.dst = $1 \
                 ORDER BY 1",
                &[Value::Int(3)],
            )
            .unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![1, 2, 4], "layout {:?}", db.layout());
    }
}

#[test]
fn two_hop_via_self_join() {
    for db in both() {
        // Out-out two-hop from person 1 (1->2->3, 1->3->4).
        let r = db
            .sql(
                "SELECT DISTINCT k2.dst FROM person_knows_person k1 \
                 JOIN person_knows_person k2 ON k2.src = k1.dst \
                 WHERE k1.src = $1 AND k2.dst <> $1 ORDER BY 1",
                &[Value::Int(1)],
            )
            .unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![3, 4]);
    }
}

#[test]
fn recursive_cte_shortest_path() {
    for db in both() {
        let q = "WITH RECURSIVE reach(id, depth) AS ( \
                   SELECT dst, 1 FROM person_knows_person WHERE src = $1 \
                   UNION \
                   SELECT src, 1 FROM person_knows_person WHERE dst = $1 \
                   UNION \
                   SELECT k.dst, r.depth + 1 FROM reach r JOIN person_knows_person k ON k.src = r.id WHERE r.depth < 8 \
                   UNION \
                   SELECT k.src, r.depth + 1 FROM reach r JOIN person_knows_person k ON k.dst = r.id WHERE r.depth < 8 \
                 ) SELECT MIN(depth) FROM reach WHERE id = $2";
        let r = db.sql(q, &[Value::Int(1), Value::Int(5)]).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)), "1-3-4-5 in {:?}", db.layout());
        let unreachable = db.sql(q, &[Value::Int(1), Value::Int(9)]).unwrap();
        assert_eq!(unreachable.scalar(), Some(&Value::Null));
    }
}

#[test]
fn transitive_operator_column_store_only() {
    let col = fixture(Layout::Column);
    let r = col
        .sql("SELECT TRANSITIVE(person_knows_person, $1, $2, 16)", &[Value::Int(1), Value::Int(5)])
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(3)));
    assert_eq!(r.columns, vec!["depth"]);
    // Same endpoint: depth 0. Unreachable: empty.
    let zero = col
        .sql("SELECT TRANSITIVE(person_knows_person, $1, $2)", &[Value::Int(2), Value::Int(2)])
        .unwrap();
    assert_eq!(zero.scalar(), Some(&Value::Int(0)));
    let none = col
        .sql("SELECT TRANSITIVE(person_knows_person, $1, $2)", &[Value::Int(1), Value::Int(9)])
        .unwrap();
    assert!(none.is_empty());
    // Row store rejects the extension, as Postgres would.
    let row = fixture(Layout::Row);
    assert!(row
        .sql("SELECT TRANSITIVE(person_knows_person, $1, $2)", &[Value::Int(1), Value::Int(5)])
        .is_err());
}

#[test]
fn transitive_directed_mode() {
    let col = fixture(Layout::Column);
    // Directed: 5 cannot reach 1 following edge direction.
    let r = col
        .sql(
            "SELECT TRANSITIVE(person_knows_person, $1, $2, 16, DIRECTED)",
            &[Value::Int(5), Value::Int(1)],
        )
        .unwrap();
    assert!(r.is_empty());
    let fwd = col
        .sql(
            "SELECT TRANSITIVE(person_knows_person, $1, $2, 16, DIRECTED)",
            &[Value::Int(1), Value::Int(5)],
        )
        .unwrap();
    assert_eq!(fwd.scalar(), Some(&Value::Int(3)));
}

#[test]
fn aggregates() {
    for db in both() {
        let r = db.sql("SELECT COUNT(*) FROM person_knows_person", &[]).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(5)));
        let r = db
            .sql("SELECT COUNT(DISTINCT src), MIN(creationDate), MAX(creationDate) FROM person_knows_person", &[])
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(4), Value::Date(10), Value::Date(50)]);
        let r = db.sql("SELECT COUNT(*) FROM person WHERE id > $1", &[Value::Int(100)]).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)), "count over empty set is 0");
    }
}

#[test]
fn grouped_aggregate() {
    for db in both() {
        let r = db
            .sql(
                "SELECT src, COUNT(*) FROM person_knows_person WHERE src < $1 ORDER BY 1",
                &[Value::Int(99)],
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::Int(1)],
                vec![Value::Int(3), Value::Int(1)],
                vec![Value::Int(4), Value::Int(1)],
            ]
        );
    }
}

#[test]
fn update_statement() {
    for db in both() {
        db.sql("UPDATE person SET firstName = $2 WHERE id = $1", &[Value::Int(1), Value::str("Renamed")])
            .unwrap();
        let r = db.sql("SELECT firstName FROM person WHERE id = $1", &[Value::Int(1)]).unwrap();
        assert_eq!(r.scalar(), Some(&Value::str("Renamed")));
    }
}

#[test]
fn duplicate_pk_rejected() {
    for db in both() {
        let err = db.sql(
            "INSERT INTO person (id, firstName) VALUES ($1, $2)",
            &[Value::Int(1), Value::str("dup")],
        );
        assert!(err.is_err());
    }
}

#[test]
fn order_by_name_and_desc() {
    for db in both() {
        let r = db
            .sql("SELECT id, firstName FROM person ORDER BY id DESC LIMIT 2", &[])
            .unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![9, 5]);
        let r = db.sql("SELECT id FROM person ORDER BY firstName", &[]);
        assert!(r.is_err(), "ORDER BY column must be projected");
    }
}

#[test]
fn select_star_projects_all_columns() {
    for db in both() {
        let r = db.sql("SELECT * FROM person_knows_person WHERE src = $1", &[Value::Int(1)]).unwrap();
        assert_eq!(r.columns, vec!["src", "dst", "creationDate"]);
        assert_eq!(r.len(), 2);
    }
}

#[test]
fn inner_join_never_matches_null_keys() {
    for db in both() {
        // 7 -> NULL and NULL -> 8: were NULL = NULL true, 7 would reach 8.
        for (a, b) in [(Value::Int(7), Value::Null), (Value::Null, Value::Int(8))] {
            db.sql("INSERT INTO person_knows_person (src, dst) VALUES ($1, $2)", &[a, b]).unwrap();
        }
        // Person 20 has NULL firstName and lastName (neither indexed).
        db.sql("INSERT INTO person (id) VALUES ($1)", &[Value::Int(20)]).unwrap();
        let indexed = "SELECT k1.dst, k2.src FROM person_knows_person k1 \
                       JOIN person_knows_person k2 ON k2.src = k1.dst";
        let hashed = "SELECT a.firstName, b.lastName FROM person a JOIN person b ON b.lastName = a.firstName";
        for (query, expect) in [(indexed, 4), (hashed, 0)] {
            for r in [db.sql(query, &[]).unwrap(), db.sql_naive(query, &[]).unwrap()] {
                assert_eq!(r.len(), expect, "`{query}` on {:?}: {:?}", db.layout(), r.rows);
                assert!(r.rows.iter().flatten().all(|v| !v.is_null()), "NULL key joined: {:?}", r.rows);
            }
        }
    }
}

#[test]
fn union_all_keeps_duplicates() {
    for db in both() {
        let r = db
            .sql(
                "SELECT id FROM person WHERE id = $1 UNION ALL SELECT id FROM person WHERE id = $1",
                &[Value::Int(1)],
            )
            .unwrap();
        assert_eq!(r.len(), 2);
        let r = db
            .sql(
                "SELECT id FROM person WHERE id = $1 UNION SELECT id FROM person WHERE id = $1",
                &[Value::Int(1)],
            )
            .unwrap();
        assert_eq!(r.len(), 1);
    }
}

#[test]
fn recursive_cte_terminates_on_cycles() {
    // 1-2-3-1 cycle: set semantics must converge, not loop forever.
    let db = fixture(Layout::Row);
    db.sql("INSERT INTO person_knows_person VALUES ($1, $2, $3)", &[Value::Int(5), Value::Int(1), Value::Int(0)])
        .unwrap();
    let q = "WITH RECURSIVE reach(id, depth) AS ( \
               SELECT dst, 1 FROM person_knows_person WHERE src = $1 \
               UNION SELECT k.dst, r.depth + 1 FROM reach r \
                 JOIN person_knows_person k ON k.src = r.id WHERE r.depth < 50 \
             ) SELECT COUNT(DISTINCT id) FROM reach";
    let r = db.sql(q, &[Value::Int(1)]).unwrap();
    assert!(r.scalar().and_then(Value::as_int).unwrap() >= 4);
}

#[test]
fn recursive_cte_requires_base_case_and_limits_are_rejected() {
    let db = fixture(Layout::Row);
    // No non-recursive arm.
    assert!(db
        .sql(
            "WITH RECURSIVE r(id) AS (SELECT k.dst FROM r JOIN person_knows_person k ON k.src = r.id) \
             SELECT COUNT(*) FROM r",
            &[],
        )
        .is_err());
    // ORDER BY inside the recursive body.
    assert!(db
        .sql(
            "WITH RECURSIVE r(id) AS (SELECT dst FROM person_knows_person WHERE src = $1 ORDER BY 1) \
             SELECT COUNT(*) FROM r",
            &[Value::Int(1)],
        )
        .is_err());
}

#[test]
fn errors_surface_cleanly() {
    let db = fixture(Layout::Row);
    assert!(db.sql("SELECT nope FROM person", &[]).is_err());
    assert!(db.sql("SELECT id FROM nonexistent", &[]).is_err());
    assert!(db.sql("SELECT p.id FROM person p JOIN person p ON p.id = p.id", &[]).is_err());
    assert!(db.sql("SELECT id FROM person WHERE id = $1", &[]).is_err(), "missing param");
}
