//! Native store driven through its declarative Cypher-like language
//! (the paper's "Neo4j (Cypher)" column).

use snb_cache::ResultCache;
use snb_core::{GraphBackend, Result, Value};
use snb_datagen::{Dataset, UpdateOp};
use snb_graph_native::{NativeGraphStore, Params};
use std::fmt::Write as _;

use crate::adapter::{normalize_rows, update_writes, OpResult, SutAdapter};
use crate::ops::ReadOp;

/// Entry capacity of the adapter-level result caches (Cypher and SQL):
/// point lookups and one-hop rings keyed on query text + params +
/// `write_seq`, riding beside the store's plan cache. `0` disables.
pub const ADAPTER_RESULT_CACHE_CAPACITY: usize = 4096;

/// Adapter: one embedded native store, queried with Cypher text.
pub struct CypherAdapter {
    store: std::sync::Arc<NativeGraphStore>,
    /// Epoch-keyed result cache for the hot skewed reads. The plan
    /// cache (PR 8) already removes parse/plan cost for repeated query
    /// *text*; this removes execution cost for repeated query + params
    /// at an unchanged epoch.
    cache: Option<ResultCache<OpResult>>,
}

impl CypherAdapter {
    /// Fresh empty store with the default result cache.
    pub fn new() -> Self {
        Self::with_result_cache(ADAPTER_RESULT_CACHE_CAPACITY)
    }

    /// Fresh empty store with an explicit result-cache capacity
    /// (`0` = bypass everything — the uncached comparison arm).
    pub fn with_result_cache(capacity: usize) -> Self {
        CypherAdapter {
            store: std::sync::Arc::new(NativeGraphStore::new()),
            cache: (capacity > 0).then(|| ResultCache::new("cypher", capacity)),
        }
    }

    /// Access the store (for tests/benches).
    pub fn store(&self) -> &NativeGraphStore {
        &self.store
    }

    /// The adapter result cache, when enabled (stats hook).
    pub fn result_cache(&self) -> Option<&ResultCache<OpResult>> {
        self.cache.as_ref()
    }

    fn run(&self, query: &str, params: Params) -> Result<OpResult> {
        Ok(normalize_rows(self.store.cypher(query, &params)?.rows))
    }

    /// Cacheable read path for the point-shaped ops: key = query text +
    /// the person parameter, epoch = the store's write sequence. The
    /// result is only stored if no write landed during execution, so an
    /// entry computed astride an epoch flip can never be keyed wrong.
    fn run_cached(&self, query: &str, params: Params, person: u64) -> Result<OpResult> {
        let cache = match &self.cache {
            Some(c) => c,
            None => return self.run(query, params),
        };
        let epoch = self.store.write_seq();
        let mut key = Vec::with_capacity(query.len() + 9);
        key.extend_from_slice(query.as_bytes());
        key.push(0);
        key.extend_from_slice(&person.to_le_bytes());
        if let Some(rows) = cache.get(&key, epoch) {
            return Ok(rows);
        }
        let rows = self.run(query, params)?;
        if self.store.write_seq() == epoch {
            cache.insert(&key, epoch, rows.clone());
        }
        Ok(rows)
    }
}

impl Default for CypherAdapter {
    fn default() -> Self {
        Self::new()
    }
}

fn p(pairs: &[(&str, Value)]) -> Params {
    pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
}

impl SutAdapter for CypherAdapter {
    fn name(&self) -> &'static str {
        "Native (Cypher)"
    }

    fn load(&self, snapshot: &Dataset) -> Result<()> {
        // Vendor bulk path: direct record inserts, like neo4j-import.
        for v in &snapshot.vertices {
            self.store.add_vertex(v.label, v.id, &v.props)?;
        }
        for e in &snapshot.edges {
            self.store.add_edge(e.label, e.src, e.dst, &e.props)?;
        }
        Ok(())
    }

    fn execute_read(&self, op: &ReadOp) -> Result<OpResult> {
        match op {
            ReadOp::PointLookup { person } => self.run_cached(
                "MATCH (p:person {id:$id}) RETURN p.firstName, p.lastName, p.gender, \
                 p.birthday, p.creationDate, p.locationIP, p.browserUsed",
                p(&[("id", Value::Int(*person as i64))]),
                *person,
            ),
            ReadOp::OneHop { person } => self.run_cached(
                "MATCH (p:person {id:$id})-[:knows]-(f) RETURN DISTINCT f.id, f.firstName",
                p(&[("id", Value::Int(*person as i64))]),
                *person,
            ),
            ReadOp::TwoHop { person } => self.run(
                "MATCH (p:person {id:$id})-[:knows*1..2]-(f) WHERE f.id <> $id \
                 RETURN DISTINCT f.id, f.firstName",
                p(&[("id", Value::Int(*person as i64))]),
            ),
            ReadOp::ShortestPath { a, b } => self.run(
                "MATCH sp = shortestPath((a:person {id:$a})-[:knows*]-(b:person {id:$b})) \
                 RETURN length(sp)",
                p(&[("a", Value::Int(*a as i64)), ("b", Value::Int(*b as i64))]),
            ),
            ReadOp::Is1Profile { person } => self.run(
                "MATCH (p:person {id:$id})-[:is_located_in]->(c) \
                 RETURN p.firstName, p.lastName, p.gender, p.birthday, p.creationDate, \
                 p.locationIP, p.browserUsed, c.id",
                p(&[("id", Value::Int(*person as i64))]),
            ),
            ReadOp::Is2RecentMessages { person, limit } => self.run(
                &format!(
                    "MATCH (m)-[:has_creator]->(p:person {{id:$id}}) \
                     RETURN m.content, m.creationDate ORDER BY m.creationDate DESC LIMIT {limit}"
                ),
                p(&[("id", Value::Int(*person as i64))]),
            ),
            ReadOp::Is3Friends { person } => self.run(
                "MATCH (p:person {id:$id})-[k:knows]-(f) \
                 RETURN f.id, k.creationDate ORDER BY k.creationDate DESC",
                p(&[("id", Value::Int(*person as i64))]),
            ),
            ReadOp::Is4MessageContent { message } => self.run(
                &format!(
                    "MATCH (m:{} {{id:$id}}) RETURN m.creationDate, m.content",
                    message.label()
                ),
                p(&[("id", Value::Int(message.local() as i64))]),
            ),
            ReadOp::Is5MessageCreator { message } => self.run(
                &format!(
                    "MATCH (m:{} {{id:$id}})-[:has_creator]->(a) \
                     RETURN a.id, a.firstName, a.lastName",
                    message.label()
                ),
                p(&[("id", Value::Int(message.local() as i64))]),
            ),
            ReadOp::Is6MessageForum { post } => self.run(
                "MATCH (f:forum)-[:container_of]->(m:post {id:$id}), (f)-[:has_moderator]->(mod) \
                 RETURN f.id, f.title, mod.id",
                p(&[("id", Value::Int(*post as i64))]),
            ),
            ReadOp::Is7MessageReplies { message } => self.run(
                &format!(
                    "MATCH (c:comment)-[:reply_of]->(m:{} {{id:$id}}), (c)-[:has_creator]->(a) \
                     RETURN c.id, c.creationDate, a.id ORDER BY c.creationDate DESC",
                    message.label()
                ),
                p(&[("id", Value::Int(message.local() as i64))]),
            ),
            ReadOp::Complex2Hop { person, first_name, limit } => self.run(
                &format!(
                    "MATCH (p:person {{id:$id}})-[:knows*1..2]-(f:person) \
                     WHERE f.id <> $id AND f.firstName = $name \
                     RETURN f.id, f.lastName, f.birthday ORDER BY f.lastName, f.id LIMIT {limit}"
                ),
                p(&[
                    ("id", Value::Int(*person as i64)),
                    ("name", Value::str(first_name)),
                ]),
            ),
            ReadOp::RecentFriendMessages { person, limit } => self.run(
                &format!(
                    "MATCH (p:person {{id:$id}})-[:knows]-(f)<-[:has_creator]-(m) \
                     RETURN m.content, m.creationDate ORDER BY m.creationDate DESC LIMIT {limit}"
                ),
                p(&[("id", Value::Int(*person as i64))]),
            ),
            ReadOp::IcFoafPosts { person, min_date, limit } => self.run(
                &format!(
                    "MATCH (p:person {{id:$id}})-[:knows*1..2]-(f)<-[:has_creator]-(m:post) \
                     WHERE f.id <> $id AND m.creationDate >= $d \
                     RETURN DISTINCT m.id, f.id, m.creationDate \
                     ORDER BY m.creationDate DESC, m.id LIMIT {limit}"
                ),
                p(&[
                    ("id", Value::Int(*person as i64)),
                    ("d", Value::Int(*min_date)),
                ]),
            ),
            ReadOp::IcMutualFriends { person, limit } => {
                // The dialect has implicit-group aggregation but no
                // pattern predicates in WHERE, so the non-friend
                // exclusion is client-side: one aggregated two-hop
                // query (count of connecting friends per candidate) and
                // one friends query, joined here.
                let paths = self.run(
                    "MATCH (p:person {id:$id})-[:knows]-(f)-[:knows]-(c) \
                     WHERE c.id <> $id RETURN c.id, count(*)",
                    p(&[("id", Value::Int(*person as i64))]),
                )?;
                let friends = self.run(
                    "MATCH (p:person {id:$id})-[:knows]-(f) RETURN DISTINCT f.id",
                    p(&[("id", Value::Int(*person as i64))]),
                )?;
                let friend_ids: std::collections::HashSet<&Value> =
                    friends.iter().map(|r| &r[0]).collect();
                let rows: OpResult = paths
                    .into_iter()
                    .filter(|r| !friend_ids.contains(&r[0]))
                    .collect();
                Ok(snb_core::top_k_by(rows, *limit, crate::complex::cmp_mutual))
            }
        }
    }

    fn execute_update(&self, op: &UpdateOp) -> Result<()> {
        if let Some(v) = &op.new_vertex {
            let mut props = String::new();
            let mut params = Params::new();
            let _ = write!(props, "id:$id");
            params.insert("id".into(), Value::Int(v.id as i64));
            for (i, (k, val)) in v.props.iter().enumerate() {
                let name = format!("p{i}");
                let _ = write!(props, ", {k}:${name}");
                params.insert(name, val.clone());
            }
            self.store.cypher(&format!("CREATE (v:{} {{{props}}})", v.label), &params)?;
        }
        for e in &op.new_edges {
            let mut props = String::new();
            let mut params = Params::new();
            params.insert("a".into(), Value::Int(e.src.local() as i64));
            params.insert("b".into(), Value::Int(e.dst.local() as i64));
            for (i, (k, val)) in e.props.iter().enumerate() {
                let name = format!("p{i}");
                if !props.is_empty() {
                    props.push_str(", ");
                }
                let _ = write!(props, "{k}:${name}");
                params.insert(name, val.clone());
            }
            let props = if props.is_empty() { String::new() } else { format!(" {{{props}}}") };
            self.store.cypher(
                &format!(
                    "MATCH (a:{} {{id:$a}}), (b:{} {{id:$b}}) CREATE (a)-[:{}{props}]->(b)",
                    e.src.label(),
                    e.dst.label(),
                    e.label
                ),
                &params,
            )?;
        }
        Ok(())
    }

    fn execute_update_batch(&self, ops: &[snb_datagen::UpdateOp]) -> Result<usize> {
        // Neo4j's batched-write path: skip per-statement Cypher parsing
        // and apply the whole batch through the store's bulk insert,
        // which takes the write lock once.
        let mut writes = Vec::new();
        update_writes(ops, &mut writes);
        self.store.apply_batch(&writes)?;
        Ok(ops.len())
    }

    fn storage_bytes(&self) -> usize {
        self.store.storage_bytes()
    }

    fn graph_backend(&self) -> Option<std::sync::Arc<dyn GraphBackend>> {
        Some(self.store.clone())
    }

    fn supports_concurrent_load(&self) -> bool {
        // The paper's Neo4j Gremlin loader is single-threaded.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snb_core::{PropKey, VertexLabel};

    #[test]
    fn smoke_point_lookup_after_load() {
        let a = CypherAdapter::new();
        let data = snb_datagen::generate(&snb_datagen::GeneratorConfig::tiny());
        a.load(&data.snapshot).unwrap();
        let person = data
            .snapshot
            .vertices_of(VertexLabel::Person)
            .next()
            .expect("tiny data has persons");
        let rows = a.execute_read(&ReadOp::PointLookup { person: person.id }).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 7);
        assert_eq!(
            Some(&rows[0][0]),
            person.prop(PropKey::FirstName),
            "firstName survives load+query"
        );
        assert!(a.storage_bytes() > 0);
    }
}
