//! Plan-equivalence property tests for the SQL front end: every query
//! template the shared optimizer schedules must return the same rows
//! as the executor's built-in heuristics, over random databases and
//! random (valid and dangling) parameters. Join order legitimately
//! changes row order, so rows are compared as sorted multisets; the
//! recursive shortest-path template additionally pits the BFS rewrite
//! against full semi-naive iteration.

use proptest::prelude::*;
use snb_core::Value;
use snb_relational::{Database, Layout};

/// What a template binds to `$2`.
#[derive(Clone, Copy)]
enum Second {
    /// A person id (valid or dangling).
    Id,
    /// Each of [`NAMES`] in turn.
    Name,
}

/// First names matching no person, exactly one, and several (for
/// seven or more persons; see [`build`]).
const NAMES: [&str; 3] = ["zz", "solo", "nb"];

/// Templates covering the optimizer's SQL surface: index scan
/// selection (`scan_strategy`), cost-based source ordering
/// (`join_order`), filter placement (`predicate_pushdown`), projection
/// pruning, union arms, aggregates, the firstName-filtered two-hop arm
/// of Complex2Hop, and the reach-CTE BFS rewrite.
const TEMPLATES: &[(&str, Second)] = &[
    ("SELECT firstName FROM person WHERE id = $1", Second::Id),
    (
        "SELECT p.id, p.firstName FROM person_knows_person k \
         JOIN person p ON p.id = k.dst WHERE k.src = $1",
        Second::Id,
    ),
    (
        "SELECT p.firstName FROM person p \
         JOIN person_knows_person k ON k.src = p.id WHERE k.dst = $1",
        Second::Id,
    ),
    (
        "SELECT DISTINCT k2.dst FROM person_knows_person k1 \
         JOIN person_knows_person k2 ON k2.src = k1.dst WHERE k1.src = $1",
        Second::Id,
    ),
    (
        "SELECT p.id FROM person_knows_person k JOIN person p ON p.id = k.dst WHERE k.src = $1 \
         UNION \
         SELECT p.id FROM person_knows_person k JOIN person p ON p.id = k.src WHERE k.dst = $1",
        Second::Id,
    ),
    ("SELECT COUNT(*), MIN(dst), MAX(dst) FROM person_knows_person WHERE src = $1", Second::Id),
    (
        "SELECT p.id, p.lastName, p.birthday FROM person_knows_person k1 \
         JOIN person_knows_person k2 ON k2.src = k1.dst \
         JOIN person p ON p.id = k2.dst \
         WHERE k1.src = $1 AND k2.dst <> $1 AND p.firstName = $2",
        Second::Name,
    ),
    (
        "WITH RECURSIVE reach(id, depth) AS ( \
           SELECT dst, 1 FROM person_knows_person WHERE src = $1 \
           UNION SELECT src, 1 FROM person_knows_person WHERE dst = $1 \
           UNION SELECT k.dst, r.depth + 1 FROM reach r \
                 JOIN person_knows_person k ON k.src = r.id WHERE r.depth < 4 \
           UNION SELECT k.src, r.depth + 1 FROM reach r \
                 JOIN person_knows_person k ON k.dst = r.id WHERE r.depth < 4 \
         ) SELECT MIN(depth) FROM reach WHERE id = $2",
        Second::Id,
    ),
];

fn build(layout: Layout, persons: u8, edges: &[(u8, u8)]) -> Database {
    let db = Database::new_snb(layout);
    let pdef = db.table_def("person").unwrap();
    let name_ix = pdef.col("firstName").unwrap();
    for i in 0..persons {
        let mut row = vec![Value::Null; pdef.arity()];
        row[0] = Value::Int(i as i64);
        let name = if i == 0 { "solo".to_string() } else { format!("n{}", (b'a' + i % 5) as char) };
        row[name_ix] = Value::str(&name);
        db.insert_row("person", row).unwrap();
    }
    let kdef = db.table_def("person_knows_person").unwrap();
    for &(a, b) in edges {
        let mut row = vec![Value::Null; kdef.arity()];
        row[0] = Value::Int((a % persons.max(1)) as i64);
        row[1] = Value::Int((b % persons.max(1)) as i64);
        db.insert_row("person_knows_person", row).unwrap();
    }
    db
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    rows
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Scheduled execution must produce the same result multiset as the
    /// heuristic executor, on both physical layouts.
    #[test]
    fn planned_execution_matches_naive(
        persons in 1..24u8,
        edges in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..60),
        id_seeds in proptest::collection::vec(any::<u8>(), 4..5),
    ) {
        for layout in [Layout::Row, Layout::Column] {
            let db = build(layout, persons, &edges);
            // A mix of valid ids and one deliberately dangling id.
            let ids: Vec<i64> = id_seeds
                .iter()
                .enumerate()
                .map(|(i, &s)| if i == 3 { persons as i64 + 7 } else { (s % persons) as i64 })
                .collect();
            for &(template, second) in TEMPLATES {
                let seconds: Vec<Value> = match second {
                    Second::Id => vec![Value::Int(ids[0])],
                    Second::Name => NAMES.iter().map(|n| Value::str(n)).collect(),
                };
                for &id in &ids {
                    for p2 in &seconds {
                        let params = [Value::Int(id), p2.clone()];
                        let optimized = db.sql(template, &params).unwrap();
                        let naive = db.sql_naive(template, &params).unwrap();
                        prop_assert_eq!(
                            &optimized.columns, &naive.columns,
                            "columns diverge for `{}`", template
                        );
                        prop_assert_eq!(
                            sorted(optimized.rows), sorted(naive.rows),
                            "rows diverge for `{}` (params={:?}, layout={:?})", template, params, layout
                        );
                    }
                }
            }
        }
    }
}
