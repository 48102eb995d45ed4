//! Relational adapters with native SQL text: "Postgres (SQL)" (row
//! store, recursive CTE for shortest path) and "Virtuoso (SQL)" (column
//! store, native TRANSITIVE operator).

use snb_cache::ResultCache;
use snb_core::schema::{edge_def, vertex_props};
use snb_core::{Result, SnapshotCache, Value};
use snb_datagen::{Dataset, UpdateOp};
use snb_relational::{Database, Layout};
use std::fmt::Write as _;

use crate::adapter::cypher::ADAPTER_RESULT_CACHE_CAPACITY;
use crate::adapter::{
    csr_shortest_path, csr_two_hop, normalize_rows, person_knows_csr, OpResult, SutAdapter,
};
use crate::ops::ReadOp;

/// Adapter: the relational engine with SQL text queries.
pub struct SqlAdapter {
    db: Database,
    name: &'static str,
    /// Epoch-pinned Person/Knows CSR for the multi-hop reads: two bulk
    /// table scans replace the six-branch UNION / recursive CTE once,
    /// then every traversal is a range scan until a write invalidates it.
    snaps: SnapshotCache,
    /// Epoch-keyed result cache for point lookups and one-hop rings,
    /// keyed on query text + params + the snapshot-cache write counter
    /// (the same counter that invalidates the pinned CSR above, so the
    /// two caches share one notion of "a write happened").
    cache: Option<ResultCache<OpResult>>,
}

impl SqlAdapter {
    /// Postgres analogue.
    pub fn row_store() -> Self {
        Self::with_result_cache(Layout::Row, ADAPTER_RESULT_CACHE_CAPACITY)
    }

    /// Virtuoso analogue.
    pub fn column_store() -> Self {
        Self::with_result_cache(Layout::Column, ADAPTER_RESULT_CACHE_CAPACITY)
    }

    /// Either layout with an explicit result-cache capacity
    /// (`0` = bypass everything — the uncached comparison arm).
    pub fn with_result_cache(layout: Layout, capacity: usize) -> Self {
        SqlAdapter {
            db: Database::new_snb(layout),
            name: match layout {
                Layout::Row => "Postgres (SQL)",
                Layout::Column => "Virtuoso (SQL)",
            },
            snaps: SnapshotCache::new(),
            cache: (capacity > 0).then(|| ResultCache::new("sql", capacity)),
        }
    }

    /// Access the database (for tests/benches).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The adapter result cache, when enabled (stats hook).
    pub fn result_cache(&self) -> Option<&ResultCache<OpResult>> {
        self.cache.as_ref()
    }

    fn run(&self, query: &str, params: &[Value]) -> Result<OpResult> {
        Ok(normalize_rows(self.db.sql(query, params)?.rows))
    }

    /// Cacheable read path for the point-shaped ops: key = query text +
    /// the person parameter, epoch = the adapter's write counter. The
    /// result is only stored if no write landed during execution.
    fn run_cached(&self, query: &str, params: &[Value], person: u64) -> Result<OpResult> {
        let cache = match &self.cache {
            Some(c) => c,
            None => return self.run(query, params),
        };
        let epoch = self.snaps.write_seq();
        let mut key = Vec::with_capacity(query.len() + 9);
        key.extend_from_slice(query.as_bytes());
        key.push(0);
        key.extend_from_slice(&person.to_le_bytes());
        if let Some(rows) = cache.get(&key, epoch) {
            return Ok(rows);
        }
        let rows = self.run(query, params)?;
        if self.snaps.write_seq() == epoch {
            cache.insert(&key, epoch, rows.clone());
        }
        Ok(rows)
    }

    /// Pin a fresh Person/Knows CSR, building one from two full-table
    /// scans when the cache is invalid and the hysteresis allows it.
    fn pin_knows(&self) -> Option<std::sync::Arc<snb_core::CsrSnapshot>> {
        self.snaps.pin_with(|epoch| {
            let persons: Vec<(u64, Value)> = self
                .db
                .sql("SELECT id, firstName FROM person", &[])?
                .rows
                .into_iter()
                .map(|mut r| {
                    let name = r.swap_remove(1);
                    (r[0].as_int().unwrap_or(0) as u64, name)
                })
                .collect();
            let knows: Vec<(u64, u64)> = self
                .db
                .sql("SELECT src, dst FROM person_knows_person", &[])?
                .rows
                .into_iter()
                .map(|r| {
                    (r[0].as_int().unwrap_or(0) as u64, r[1].as_int().unwrap_or(0) as u64)
                })
                .collect();
            person_knows_csr(epoch, &persons, &knows)
        })
    }
}

/// 2-hop UNION over directed `person_knows_person` (all four direction
/// combinations), plus the two 1-hop branches: the LDBC SQL idiom for an
/// undirected 1..2-hop neighbourhood. `select_cols` must reference `p`.
fn two_hop_union(select_cols: &str, extra_pred: &str) -> String {
    let one = [
        ("k1.dst", "k1.src = $1"),
        ("k1.src", "k1.dst = $1"),
    ];
    let two = [
        ("k2.dst", "k1.src = $1 AND k2.src = k1.dst"),
        ("k2.src", "k1.src = $1 AND k2.dst = k1.dst"),
        ("k2.dst", "k1.dst = $1 AND k2.src = k1.src"),
        ("k2.src", "k1.dst = $1 AND k2.dst = k1.src"),
    ];
    let mut q = String::new();
    for (end, cond) in one {
        if !q.is_empty() {
            q.push_str(" UNION ");
        }
        let _ = write!(
            q,
            "SELECT {select_cols} FROM person_knows_person k1 JOIN person p ON p.id = {end} \
             WHERE {cond} AND {end} <> $1{extra_pred}"
        );
    }
    for (end, cond) in two {
        let _ = write!(
            q,
            " UNION SELECT {select_cols} FROM person_knows_person k1 \
             JOIN person_knows_person k2 ON {} \
             JOIN person p ON p.id = {end} WHERE {} AND {end} <> $1{extra_pred}",
            cond.split(" AND ").nth(1).expect("two-part condition"),
            cond.split(" AND ").next().expect("two-part condition"),
        );
    }
    q
}

/// The FoF-posts complex read as one SQL statement: the six undirected
/// ring branches of [`two_hop_union`], each joined through
/// `post_has_creator_person` to `post` with the date predicate pushed
/// into every branch. Plain `UNION` dedups a post reached through
/// several ring paths; `$1` = person, `$2` = min creation date.
fn foaf_posts_union(limit: usize) -> String {
    let one = [("k1.dst", "k1.src = $1"), ("k1.src", "k1.dst = $1")];
    let two = [
        ("k2.dst", "k1.src = $1", "k2.src = k1.dst"),
        ("k2.src", "k1.src = $1", "k2.dst = k1.dst"),
        ("k2.dst", "k1.dst = $1", "k2.src = k1.src"),
        ("k2.src", "k1.dst = $1", "k2.dst = k1.src"),
    ];
    let mut q = String::new();
    for (end, cond) in one {
        if !q.is_empty() {
            q.push_str(" UNION ");
        }
        let _ = write!(
            q,
            "SELECT m.id, c.dst, m.creationDate FROM person_knows_person k1 \
             JOIN post_has_creator_person c ON c.dst = {end} \
             JOIN post m ON m.id = c.src \
             WHERE {cond} AND {end} <> $1 AND m.creationDate >= $2"
        );
    }
    for (end, cond, join) in two {
        let _ = write!(
            q,
            " UNION SELECT m.id, c.dst, m.creationDate FROM person_knows_person k1 \
             JOIN person_knows_person k2 ON {join} \
             JOIN post_has_creator_person c ON c.dst = {end} \
             JOIN post m ON m.id = c.src \
             WHERE {cond} AND {end} <> $1 AND m.creationDate >= $2"
        );
    }
    let _ = write!(q, " ORDER BY 3 DESC, 1 LIMIT {limit}");
    q
}

impl SutAdapter for SqlAdapter {
    fn name(&self) -> &'static str {
        self.name
    }

    fn load(&self, snapshot: &Dataset) -> Result<()> {
        // Bracket the bulk load with invalidations: a CSR pinned before
        // or during the load must never be served afterwards.
        self.snaps.note_writes(1);
        // Vendor bulk loading: straight into the storage engine.
        for v in &snapshot.vertices {
            let def = self.db.table_def(v.label.as_str())?;
            let mut row = vec![Value::Null; def.arity()];
            row[0] = Value::Int(v.id as i64);
            for (k, val) in &v.props {
                row[def.col(k.as_str())?] = val.clone();
            }
            self.db.insert_row(v.label.as_str(), row)?;
        }
        for e in &snapshot.edges {
            let def = edge_def(e.src.label(), e.label, e.dst.label())?;
            let tdef = self.db.table_def(&def.table_name())?;
            let mut row = vec![Value::Null; tdef.arity()];
            row[0] = Value::Int(e.src.local() as i64);
            row[1] = Value::Int(e.dst.local() as i64);
            for (k, val) in &e.props {
                row[tdef.col(k.as_str())?] = val.clone();
            }
            self.db.insert_row(&def.table_name(), row)?;
        }
        self.snaps.note_writes(1);
        Ok(())
    }

    fn execute_read(&self, op: &ReadOp) -> Result<OpResult> {
        match op {
            ReadOp::PointLookup { person } => self.run_cached(
                "SELECT firstName, lastName, gender, birthday, creationDate, locationIP, \
                 browserUsed FROM person WHERE id = $1",
                &[Value::Int(*person as i64)],
                *person,
            ),
            ReadOp::OneHop { person } => self.run_cached(
                "SELECT p.id, p.firstName FROM person_knows_person k \
                 JOIN person p ON p.id = k.dst WHERE k.src = $1 \
                 UNION \
                 SELECT p.id, p.firstName FROM person_knows_person k \
                 JOIN person p ON p.id = k.src WHERE k.dst = $1",
                &[Value::Int(*person as i64)],
                *person,
            ),
            ReadOp::TwoHop { person } => {
                if let Some(s) = self.pin_knows() {
                    return Ok(csr_two_hop(&s, *person, false));
                }
                self.run(&two_hop_union("p.id, p.firstName", ""), &[Value::Int(*person as i64)])
            }
            ReadOp::ShortestPath { a, b } => {
                if a == b {
                    return Ok(vec![vec![Value::Int(0)]]);
                }
                if let Some(s) = self.pin_knows() {
                    let cap = if self.db.layout() == Layout::Column { 12 } else { 10 };
                    return Ok(csr_shortest_path(&s, *a, *b, cap));
                }
                let params = [Value::Int(*a as i64), Value::Int(*b as i64)];
                if self.db.layout() == Layout::Column {
                    // Virtuoso's graph-aware transitivity extension.
                    self.run("SELECT TRANSITIVE(person_knows_person, $1, $2, 12)", &params)
                } else {
                    // Postgres: recursive CTE with set semantics.
                    let r = self.run(
                        "WITH RECURSIVE reach(id, depth) AS ( \
                           SELECT dst, 1 FROM person_knows_person WHERE src = $1 \
                           UNION SELECT src, 1 FROM person_knows_person WHERE dst = $1 \
                           UNION SELECT k.dst, r.depth + 1 FROM reach r \
                             JOIN person_knows_person k ON k.src = r.id WHERE r.depth < 10 \
                           UNION SELECT k.src, r.depth + 1 FROM reach r \
                             JOIN person_knows_person k ON k.dst = r.id WHERE r.depth < 10 \
                         ) SELECT MIN(depth) FROM reach WHERE id = $2",
                        &params,
                    )?;
                    // MIN over an empty set is NULL: unreachable.
                    Ok(r.into_iter().filter(|row| !row[0].is_null()).collect())
                }
            }
            ReadOp::Is1Profile { person } => self.run(
                "SELECT p.firstName, p.lastName, p.gender, p.birthday, p.creationDate, \
                 p.locationIP, p.browserUsed, l.dst \
                 FROM person p JOIN person_is_located_in_place l ON l.src = p.id WHERE p.id = $1",
                &[Value::Int(*person as i64)],
            ),
            ReadOp::Is2RecentMessages { person, limit } => self.run(
                &format!(
                    "SELECT m.content, m.creationDate FROM post m \
                     JOIN post_has_creator_person c ON c.src = m.id WHERE c.dst = $1 \
                     UNION ALL \
                     SELECT m.content, m.creationDate FROM comment m \
                     JOIN comment_has_creator_person c ON c.src = m.id WHERE c.dst = $1 \
                     ORDER BY 2 DESC LIMIT {limit}"
                ),
                &[Value::Int(*person as i64)],
            ),
            ReadOp::Is3Friends { person } => self.run(
                "SELECT k.dst, k.creationDate FROM person_knows_person k WHERE k.src = $1 \
                 UNION SELECT k.src, k.creationDate FROM person_knows_person k WHERE k.dst = $1 \
                 ORDER BY 2 DESC",
                &[Value::Int(*person as i64)],
            ),
            ReadOp::Is4MessageContent { message } => self.run(
                &format!("SELECT creationDate, content FROM {} WHERE id = $1", message.label()),
                &[Value::Int(message.local() as i64)],
            ),
            ReadOp::Is5MessageCreator { message } => self.run(
                &format!(
                    "SELECT p.id, p.firstName, p.lastName FROM {}_has_creator_person c \
                     JOIN person p ON p.id = c.dst WHERE c.src = $1",
                    message.label()
                ),
                &[Value::Int(message.local() as i64)],
            ),
            ReadOp::Is6MessageForum { post } => self.run(
                "SELECT f.id, f.title, m.dst FROM forum_container_of_post c \
                 JOIN forum f ON f.id = c.src \
                 JOIN forum_has_moderator_person m ON m.src = f.id WHERE c.dst = $1",
                &[Value::Int(*post as i64)],
            ),
            ReadOp::Is7MessageReplies { message } => self.run(
                &format!(
                    "SELECT r.src, c.creationDate, h.dst FROM comment_reply_of_{} r \
                     JOIN comment c ON c.id = r.src \
                     JOIN comment_has_creator_person h ON h.src = r.src \
                     WHERE r.dst = $1 ORDER BY 2 DESC",
                    message.label()
                ),
                &[Value::Int(message.local() as i64)],
            ),
            ReadOp::Complex2Hop { person, first_name, limit } => {
                let q = format!(
                    "{} ORDER BY 2, 1 LIMIT {limit}",
                    two_hop_union("p.id, p.lastName, p.birthday", " AND p.firstName = $2")
                );
                self.run(&q, &[Value::Int(*person as i64), Value::str(first_name)])
            }
            ReadOp::RecentFriendMessages { person, limit } => {
                // Friends in both knows directions × both message kinds.
                let mut q = String::new();
                for (friend, cond) in [("k.dst", "k.src = $1"), ("k.src", "k.dst = $1")] {
                    for table in ["post", "comment"] {
                        if !q.is_empty() {
                            q.push_str(" UNION ALL ");
                        }
                        let _ = write!(
                            q,
                            "SELECT m.content, m.creationDate FROM person_knows_person k \
                             JOIN {table}_has_creator_person c ON c.dst = {friend} \
                             JOIN {table} m ON m.id = c.src WHERE {cond}"
                        );
                    }
                }
                let _ = write!(q, " ORDER BY 2 DESC LIMIT {limit}");
                self.run(&q, &[Value::Int(*person as i64)])
            }
            ReadOp::IcFoafPosts { person, min_date, limit } => self.run(
                &foaf_posts_union(*limit),
                &[Value::Int(*person as i64), Value::Int(*min_date)],
            ),
            ReadOp::IcMutualFriends { person, limit } => {
                // No GROUP BY in the dialect: serve from the pinned
                // Person/Knows CSR when fresh, else enumerate the
                // two-hop paths with UNION ALL (one row per connecting
                // friend) and tally client-side.
                if let Some(s) = self.pin_knows() {
                    return Ok(crate::complex::mutual_friends(&s, *person, *limit));
                }
                let friends = self.run(
                    "SELECT k.dst FROM person_knows_person k WHERE k.src = $1 \
                     UNION SELECT k.src FROM person_knows_person k WHERE k.dst = $1",
                    &[Value::Int(*person as i64)],
                )?;
                let two = [
                    ("k2.dst", "k1.src = $1", "k2.src = k1.dst"),
                    ("k2.src", "k1.src = $1", "k2.dst = k1.dst"),
                    ("k2.dst", "k1.dst = $1", "k2.src = k1.src"),
                    ("k2.src", "k1.dst = $1", "k2.dst = k1.src"),
                ];
                let mut q = String::new();
                for (end, cond, join) in two {
                    if !q.is_empty() {
                        q.push_str(" UNION ALL ");
                    }
                    let _ = write!(
                        q,
                        "SELECT {end} FROM person_knows_person k1 \
                         JOIN person_knows_person k2 ON {join} \
                         WHERE {cond} AND {end} <> $1"
                    );
                }
                let paths = self.run(&q, &[Value::Int(*person as i64)])?;
                let friend_ids: std::collections::HashSet<&Value> =
                    friends.iter().map(|r| &r[0]).collect();
                let mut counts: std::collections::HashMap<Value, i64> =
                    std::collections::HashMap::new();
                for row in &paths {
                    if !friend_ids.contains(&row[0]) {
                        *counts.entry(row[0].clone()).or_insert(0) += 1;
                    }
                }
                let rows: OpResult =
                    counts.into_iter().map(|(c, n)| vec![c, Value::Int(n)]).collect();
                Ok(snb_core::top_k_by(rows, *limit, crate::complex::cmp_mutual))
            }
        }
    }

    fn execute_update(&self, op: &UpdateOp) -> Result<()> {
        // Invalidate the CSR up front so a partially applied op can
        // never be hidden behind a snapshot that still looks fresh.
        self.snaps.note_writes(1);
        if let Some(v) = &op.new_vertex {
            let mut cols = String::from("id");
            let mut placeholders = String::from("$1");
            let mut params = vec![Value::Int(v.id as i64)];
            for (k, val) in &v.props {
                if !vertex_props(v.label).contains(k) {
                    continue;
                }
                let _ = write!(cols, ", {k}");
                let _ = write!(placeholders, ", ${}", params.len() + 1);
                params.push(val.clone());
            }
            self.db.sql(
                &format!("INSERT INTO {} ({cols}) VALUES ({placeholders})", v.label),
                &params,
            )?;
        }
        for e in &op.new_edges {
            let def = edge_def(e.src.label(), e.label, e.dst.label())?;
            let mut cols = String::from("src, dst");
            let mut placeholders = String::from("$1, $2");
            let mut params =
                vec![Value::Int(e.src.local() as i64), Value::Int(e.dst.local() as i64)];
            for (k, val) in &e.props {
                let _ = write!(cols, ", {k}");
                let _ = write!(placeholders, ", ${}", params.len() + 1);
                params.push(val.clone());
            }
            self.db.sql(
                &format!("INSERT INTO {} ({cols}) VALUES ({placeholders})", def.table_name()),
                &params,
            )?;
        }
        Ok(())
    }

    fn execute_update_batch(&self, ops: &[UpdateOp]) -> Result<usize> {
        self.snaps.note_writes(ops.len() as u64);
        // The multi-row INSERT path: stage full-arity rows per target
        // table, then flush each table under a single write-lock
        // acquisition instead of one statement per element.
        let mut staged: Vec<(String, Vec<Vec<Value>>)> = Vec::new();
        let mut slot: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        let mut defs: std::collections::HashMap<String, snb_relational::TableDef> =
            std::collections::HashMap::new();
        let mut stage = |staged: &mut Vec<(String, Vec<Vec<Value>>)>, table: String, row| {
            let ix = *slot.entry(table.clone()).or_insert_with(|| {
                staged.push((table, Vec::new()));
                staged.len() - 1
            });
            staged[ix].1.push(row);
        };
        for op in ops {
            if let Some(v) = &op.new_vertex {
                let table = v.label.as_str();
                if !defs.contains_key(table) {
                    defs.insert(table.to_string(), self.db.table_def(table)?);
                }
                let def = &defs[table];
                let mut row = vec![Value::Null; def.arity()];
                row[0] = Value::Int(v.id as i64);
                for (k, val) in &v.props {
                    if let Ok(c) = def.col(k.as_str()) {
                        row[c] = val.clone();
                    }
                }
                stage(&mut staged, table.to_string(), row);
            }
            for e in &op.new_edges {
                let table = edge_def(e.src.label(), e.label, e.dst.label())?.table_name();
                if !defs.contains_key(&table) {
                    defs.insert(table.clone(), self.db.table_def(&table)?);
                }
                let def = &defs[&table];
                let mut row = vec![Value::Null; def.arity()];
                row[0] = Value::Int(e.src.local() as i64);
                row[1] = Value::Int(e.dst.local() as i64);
                for (k, val) in &e.props {
                    if let Ok(c) = def.col(k.as_str()) {
                        row[c] = val.clone();
                    }
                }
                stage(&mut staged, table, row);
            }
        }
        for (table, rows) in staged {
            self.db.insert_rows(&table, rows)?;
        }
        Ok(ops.len())
    }

    fn storage_bytes(&self) -> usize {
        self.db.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::VertexLabel;

    #[test]
    fn two_hop_union_has_six_branches() {
        let q = two_hop_union("p.id", "");
        assert_eq!(q.matches("SELECT").count(), 6);
        assert_eq!(q.matches("UNION").count(), 5);
    }

    #[test]
    fn smoke_load_and_read_both_layouts() {
        let data = snb_datagen::generate(&snb_datagen::GeneratorConfig::tiny());
        for adapter in [SqlAdapter::row_store(), SqlAdapter::column_store()] {
            adapter.load(&data.snapshot).unwrap();
            let person = data
                .snapshot
                .vertices_of(VertexLabel::Person)
                .next()
                .unwrap();
            let rows = adapter.execute_read(&ReadOp::PointLookup { person: person.id }).unwrap();
            assert_eq!(rows.len(), 1, "{}", adapter.name());
            let hop = adapter.execute_read(&ReadOp::OneHop { person: person.id }).unwrap();
            let two = adapter.execute_read(&ReadOp::TwoHop { person: person.id }).unwrap();
            assert!(two.len() >= hop.len());
        }
    }
}
