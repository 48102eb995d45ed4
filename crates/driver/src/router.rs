//! Sharded scale-out: N independent engine shards behind the reactor,
//! fronted by a driver-side scatter-gather query router.
//!
//! Each shard is a full engine stack — its own [`NativeGraphStore`]
//! (or any `GraphBackend`), worker pool, CSR compactor, and reactor
//! listener — so shards share nothing and scale with cores. The router
//! partitions the vertex space with the same FNV-1a hash the
//! message-queue partitioner uses ([`ShardMap`]), which is what makes
//! ingest *shard-local*: with the topic's partition count a multiple of
//! the shard count, every partition maps to exactly one shard
//! (`ShardMap::aligned_partitions`), and an applier never crosses a
//! shard boundary for the vertex it owns.
//!
//! Placement rules:
//!
//! * A vertex lives on `ShardMap::shard_of(vid)` — its **owner**.
//! * An edge is stored on **both** endpoint owners' shards, so every
//!   vertex's full adjacency (out and in) is local to its owner and a
//!   one-hop expansion is always a single-shard operation.
//! * The non-owned endpoint of a cross-shard edge is materialized as a
//!   **ghost**: a bare vertex (no properties) that exists only to
//!   anchor adjacency. A ghost only ever exists on a shard that is
//!   *not* the vertex's owner, so the ownership filter cleanly
//!   separates real vertices from ghosts when enumerating merged state.
//!
//! Reads: point lookups route to the owner and run the unmodified
//! `read_via` path. Multi-hop reads decompose into frontier *waves*
//! ([`FrontierRequest`]): the router groups the current frontier by
//! owner, fans one Frontier frame out per shard (scatter), merges and
//! de-duplicates the boundary vertices that come back (gather), and
//! repeats. Per-shard responses are merged in shard order, so row
//! *order* within a ring may differ from the single-store walk order;
//! the row *set* is identical.
//!
//! Caveat (documented in DESIGN.md §5f): because ghosts are created on
//! demand, a cross-shard `addE` whose endpoint was never created
//! materializes a ghost instead of failing `NotFound`. Under the
//! dependency-ordered update stream the ingest pipeline guarantees
//! (addV confirmed before dependent addE), the distinction is
//! unobservable.
//!
//! [`NativeGraphStore`]: snb_graph_native::NativeGraphStore
//! [`FrontierRequest`]: snb_gremlin::FrontierRequest

use parking_lot::Mutex;
use snb_cache::ResultCache;
use snb_core::ids::{EDGE_LABELS, VERTEX_LABELS};
use snb_core::{
    Direction, EdgeLabel, FastSet, GraphBackend, PropKey, Result, ShardMap, SnbError, Value,
    VertexLabel, Vid,
};
use snb_datagen::{Dataset, UpdateOp};
use snb_gremlin::{
    encode_frontier, wire, FrontierRequest, GremlinServer, ServerConfig, Traversal,
};
use snb_net::{ClientConfig, NetPool, NetServer, NetServerConfig, PendingReply};
use std::net::SocketAddr;
use std::sync::Arc;

use crate::adapter::gremlin::read_via;
use crate::adapter::{normalize, OpResult, SutAdapter};
use crate::ops::ReadOp;

/// One shard: a complete engine stack behind its own reactor listener.
struct Shard {
    backend: Arc<dyn GraphBackend>,
    server: NetServer,
    pool: NetPool,
}

/// Entry capacity of the router's hot-frontier cache.
pub const FRONTIER_CACHE_CAPACITY: usize = 2048;

/// Largest frontier (in vertices) worth caching: beyond this the key
/// material and value both get big and the repeat probability small, so
/// the wave bypasses the cache instead.
const FRONTIER_KEY_CAP: usize = 4096;

/// Reusable scatter buffers for one in-flight wave. Every hop of every
/// multi-hop read used to allocate a fresh `Vec` per shard (plus the
/// pending-reply vector); a small pool of scratch sets keeps those
/// allocations alive across waves and across queries.
#[derive(Default)]
struct WaveScratch {
    /// Frontier slice per shard (expand + props waves).
    per_shard: Vec<Vec<Vid>>,
    /// Input-order index per shard (props waves only).
    idx: Vec<Vec<usize>>,
    /// In-flight replies, paired with the owning shard's slot.
    pending: Vec<PendingReply>,
}

impl WaveScratch {
    /// Size the per-shard buffers, keeping their capacity.
    fn reset(&mut self, shards: usize) {
        self.per_shard.resize_with(shards, Vec::new);
        self.idx.resize_with(shards, Vec::new);
        for v in &mut self.per_shard {
            v.clear();
        }
        for v in &mut self.idx {
            v.clear();
        }
        self.pending.clear();
    }
}

/// Bound on pooled scratch sets (one per concurrently-routing thread is
/// plenty; extras are simply dropped).
const SCRATCH_POOL_CAP: usize = 8;

/// The scatter-gather router over N engine shards.
pub struct ShardRouter {
    shards: Vec<Shard>,
    map: ShardMap,
    /// Traversals per pipelined wave per shard — same bounded-queue
    /// derivation as the remote adapter (see
    /// [`RemoteGremlinAdapter::over`](crate::adapter::remote::RemoteGremlinAdapter)).
    batch_chunk: usize,
    name: &'static str,
    /// Hot-frontier cache: merged expand-wave results keyed on
    /// (direction, label, frontier) at the *per-shard epoch vector* —
    /// any shard's write stops every affected entry from matching, so
    /// cross-shard round trips for hub expansions are skipped only when
    /// provably current.
    frontier_cache: Option<ResultCache<Vec<Vid>>>,
    scratch: Mutex<Vec<WaveScratch>>,
}

impl ShardRouter {
    /// `shards` native stores, each behind its own server + pool.
    pub fn native(shards: usize) -> Result<Self> {
        Self::native_with_cache(shards, FRONTIER_CACHE_CAPACITY)
    }

    /// As [`ShardRouter::native`] with an explicit hot-frontier cache
    /// capacity (`0` disables — the uncached comparison arm).
    pub fn native_with_cache(shards: usize, cache_capacity: usize) -> Result<Self> {
        let backends: Vec<Arc<dyn GraphBackend>> = (0..shards.max(1))
            .map(|_| Arc::new(snb_graph_native::NativeGraphStore::new()) as Arc<dyn GraphBackend>)
            .collect();
        Self::over_with_cache(backends, "Sharded (Gremlin/TCP)", cache_capacity)
    }

    /// Host each backend behind a loopback server and connect a pool.
    pub fn over(backends: Vec<Arc<dyn GraphBackend>>, name: &'static str) -> Result<Self> {
        Self::over_with_cache(backends, name, FRONTIER_CACHE_CAPACITY)
    }

    /// As [`ShardRouter::over`] with an explicit hot-frontier cache
    /// capacity. The cache only engages when *every* shard backend
    /// exposes a [`GraphBackend::cache_epoch`]; a single epoch-less
    /// shard makes every wave bypass.
    pub fn over_with_cache(
        backends: Vec<Arc<dyn GraphBackend>>,
        name: &'static str,
        cache_capacity: usize,
    ) -> Result<Self> {
        assert!(!backends.is_empty(), "at least one shard");
        let server_cfg = ServerConfig::default();
        let batch_chunk = (server_cfg.queue_capacity / 4).max(1);
        let epochs_available = backends.iter().all(|b| b.cache_epoch().is_some());
        let mut shards = Vec::with_capacity(backends.len());
        for backend in backends {
            let gremlin = GremlinServer::start(Arc::clone(&backend), server_cfg.clone());
            let server = NetServer::start(gremlin, NetServerConfig::default())?;
            let pool = NetPool::connect(server.local_addr(), ClientConfig::default())?;
            shards.push(Shard { backend, server, pool });
        }
        let map = ShardMap::new(shards.len());
        let frontier_cache = (cache_capacity > 0 && epochs_available)
            .then(|| ResultCache::new("frontier", cache_capacity));
        Ok(ShardRouter {
            shards,
            map,
            batch_chunk,
            name,
            frontier_cache,
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// The hot-frontier cache, when enabled (stats hook).
    pub fn frontier_cache(&self) -> Option<&ResultCache<Vec<Vid>>> {
        self.frontier_cache.as_ref()
    }

    fn take_scratch(&self) -> WaveScratch {
        let mut scratch = self.scratch.lock().pop().unwrap_or_default();
        scratch.reset(self.shards.len());
        scratch
    }

    fn put_scratch(&self, scratch: WaveScratch) {
        let mut pool = self.scratch.lock();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    }

    /// The per-shard epoch vector, or `None` when any shard lacks one.
    fn shard_epochs(&self) -> Option<Vec<u64>> {
        self.shards.iter().map(|s| s.backend.cache_epoch()).collect()
    }

    /// Cache key material for an expand wave: direction, label, and the
    /// frontier in caller order (the merged result is order-sensitive).
    fn frontier_key(frontier: &[Vid], dir: Direction, label: Option<EdgeLabel>) -> Vec<u8> {
        let mut key = Vec::with_capacity(2 + frontier.len() * 8);
        key.push(dir as u8);
        key.push(label.map(|l| l as u8 + 1).unwrap_or(0));
        for v in frontier {
            key.extend_from_slice(&v.raw().to_le_bytes());
        }
        key
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The vertex→shard placement function (shared with ingest).
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Each shard's loopback address, in shard order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(|s| s.server.local_addr()).collect()
    }

    /// Each shard's backend, in shard order — the hook the sharded
    /// analytics merge layer ([`crate::analytics`]) uses to pin one
    /// snapshot per shard.
    pub(crate) fn shard_backends(&self) -> Vec<&Arc<dyn GraphBackend>> {
        self.shards.iter().map(|s| &s.backend).collect()
    }

    fn owner(&self, v: Vid) -> usize {
        self.map.shard_of(v)
    }

    /// The shards an edge is stored on: owner of `src`, plus owner of
    /// `dst` when different.
    fn edge_targets(&self, src: Vid, dst: Vid) -> [Option<usize>; 2] {
        let a = self.owner(src);
        let b = self.owner(dst);
        [Some(a), (b != a).then_some(b)]
    }

    /// One expansion wave: group the frontier by owner, fan a Frontier
    /// frame out per shard, gather the concatenated neighbours. Merge
    /// order is shard order (see module docs); duplicates are preserved
    /// for the caller to de-duplicate.
    fn expand_wave(
        &self,
        frontier: &[Vid],
        dir: Direction,
        label: Option<EdgeLabel>,
    ) -> Result<Vec<Vid>> {
        // Hot-frontier cache probe: a hub's ring — and, on repeat
        // two-hops, the hub's ring *as the next frontier* — answers
        // without any cross-shard round trip. Keyed at the per-shard
        // epoch vector, so the entry stops matching the moment any
        // shard takes a write.
        let probe = match &self.frontier_cache {
            Some(cache) => {
                if frontier.len() > FRONTIER_KEY_CAP {
                    cache.note_bypass();
                    None
                } else {
                    match self.shard_epochs() {
                        Some(epochs) => {
                            let key = Self::frontier_key(frontier, dir, label);
                            if let Some(hit) = cache.get(&key, &epochs) {
                                return Ok(hit);
                            }
                            Some((key, epochs))
                        }
                        None => {
                            cache.note_bypass();
                            None
                        }
                    }
                }
            }
            None => None,
        };
        let mut scratch = self.take_scratch();
        let result = self.expand_wave_scatter(frontier, dir, label, &mut scratch);
        self.put_scratch(scratch);
        let out = result?;
        if let (Some(cache), Some((key, epochs))) = (&self.frontier_cache, probe) {
            // Store only when no shard took a write while the wave was
            // in flight: epochs are monotone, so an unchanged re-read
            // proves the merged result belongs to this epoch vector.
            if self.shard_epochs().as_deref() == Some(&epochs[..]) {
                cache.insert(&key, &epochs, out.clone());
            }
        }
        Ok(out)
    }

    /// The scatter-gather body of [`ShardRouter::expand_wave`], using
    /// pooled buffers instead of per-wave allocations.
    fn expand_wave_scatter(
        &self,
        frontier: &[Vid],
        dir: Direction,
        label: Option<EdgeLabel>,
        scratch: &mut WaveScratch,
    ) -> Result<Vec<Vid>> {
        for &v in frontier {
            scratch.per_shard[self.owner(v)].push(v);
        }
        for s in 0..self.shards.len() {
            if scratch.per_shard[s].is_empty() {
                continue;
            }
            // Lend the pooled buffer to the request for encoding, then
            // take it back so its capacity survives into the next wave.
            let vids = std::mem::take(&mut scratch.per_shard[s]);
            let req = FrontierRequest::Expand { dir, label, vids };
            let payload = encode_frontier(&req);
            if let FrontierRequest::Expand { vids, .. } = req {
                scratch.per_shard[s] = vids;
            }
            scratch.pending.push(self.shards[s].pool.start_frontier(&payload)?);
        }
        let mut out = Vec::new();
        for reply in scratch.pending.drain(..) {
            for v in wire::decode_values(&reply.wait()?)? {
                match v {
                    Value::Vertex(vid) => out.push(vid),
                    other => {
                        return Err(SnbError::Codec(format!(
                            "frontier expansion returned non-vertex {other}"
                        )))
                    }
                }
            }
        }
        Ok(out)
    }

    /// One property wave: fetch `keys` of every vertex from its owner,
    /// returning rows aligned with the input order.
    fn props_wave(&self, vids: &[Vid], keys: &[PropKey]) -> Result<Vec<Vec<Value>>> {
        let mut scratch = self.take_scratch();
        let result = self.props_wave_scatter(vids, keys, &mut scratch);
        self.put_scratch(scratch);
        result
    }

    /// The scatter-gather body of [`ShardRouter::props_wave`], using
    /// pooled buffers instead of per-wave allocations. Replies are
    /// gathered in shard order (the order they were started), so the
    /// index slices in `scratch.idx` line up with `scratch.pending`.
    fn props_wave_scatter(
        &self,
        vids: &[Vid],
        keys: &[PropKey],
        scratch: &mut WaveScratch,
    ) -> Result<Vec<Vec<Value>>> {
        for (i, &v) in vids.iter().enumerate() {
            let s = self.owner(v);
            scratch.idx[s].push(i);
            scratch.per_shard[s].push(v);
        }
        let mut started: Vec<usize> = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            if scratch.per_shard[s].is_empty() {
                continue;
            }
            let svids = std::mem::take(&mut scratch.per_shard[s]);
            let req = FrontierRequest::Props { keys: keys.to_vec(), vids: svids };
            let payload = encode_frontier(&req);
            if let FrontierRequest::Props { vids, .. } = req {
                scratch.per_shard[s] = vids;
            }
            scratch.pending.push(self.shards[s].pool.start_frontier(&payload)?);
            started.push(s);
        }
        let mut rows: Vec<Vec<Value>> = vec![Vec::new(); vids.len()];
        for (s, reply) in started.into_iter().zip(scratch.pending.drain(..)) {
            let idx = &scratch.idx[s];
            let vals = wire::decode_values(&reply.wait()?)?;
            if vals.len() != idx.len() {
                return Err(SnbError::Codec(format!(
                    "props wave returned {} rows for {} vertices",
                    vals.len(),
                    idx.len()
                )));
            }
            for (&i, v) in idx.iter().zip(vals) {
                rows[i] = match v {
                    Value::List(row) => row,
                    other => {
                        return Err(SnbError::Codec(format!(
                            "props wave returned non-list {other}"
                        )))
                    }
                };
            }
        }
        Ok(rows)
    }

    /// `[id, firstName]` rows for a merged ring, in ring order.
    fn rows_for(&self, ring: &[Vid]) -> Result<OpResult> {
        let props = self.props_wave(ring, &[PropKey::Id, PropKey::FirstName])?;
        Ok(props
            .into_iter()
            .map(|row| row.iter().map(normalize).collect())
            .collect())
    }

    fn one_hop(&self, person: u64) -> Result<OpResult> {
        let start = Vid::new(VertexLabel::Person, person);
        let mut seen: FastSet<Vid> = FastSet::default();
        seen.insert(start);
        let ring: Vec<Vid> = self
            .expand_wave(&[start], Direction::Both, Some(EdgeLabel::Knows))?
            .into_iter()
            .filter(|&v| seen.insert(v))
            .collect();
        self.rows_for(&ring)
    }

    fn two_hop(&self, person: u64) -> Result<OpResult> {
        let start = Vid::new(VertexLabel::Person, person);
        let mut seen: FastSet<Vid> = FastSet::default();
        seen.insert(start);
        let mut ring1 = Vec::new();
        for v in self.expand_wave(&[start], Direction::Both, Some(EdgeLabel::Knows))? {
            if seen.insert(v) {
                ring1.push(v);
            }
        }
        // The second wave is where scatter-gather pays off: ring-1
        // vertices are spread across shards, and each shard expands its
        // whole slice in ONE round trip.
        let mut all = ring1.clone();
        for v in self.expand_wave(&ring1, Direction::Both, Some(EdgeLabel::Knows))? {
            if seen.insert(v) {
                all.push(v);
            }
        }
        self.rows_for(&all)
    }

    fn shortest_path(&self, a: u64, b: u64) -> Result<OpResult> {
        if a == b {
            return Ok(vec![vec![Value::Int(0)]]);
        }
        let start = Vid::new(VertexLabel::Person, a);
        let goal = Vid::new(VertexLabel::Person, b);
        let mut seen: FastSet<Vid> = FastSet::default();
        seen.insert(start);
        let mut level = vec![start];
        // Same depth cap as `repeat_both_until(.., 10)`.
        for depth in 1..=10i64 {
            let mut next = Vec::new();
            for v in self.expand_wave(&level, Direction::Both, Some(EdgeLabel::Knows))? {
                if v == goal {
                    return Ok(vec![vec![Value::Int(depth)]]);
                }
                if seen.insert(v) {
                    next.push(v);
                }
            }
            if next.is_empty() {
                break;
            }
            level = next;
        }
        Ok(Vec::new())
    }

    /// Create the ghost for a non-owned edge endpoint if the shard has
    /// never seen it. `Conflict` means a concurrent writer won the race
    /// — the ghost exists, which is all that matters.
    fn ensure_ghost(&self, shard: usize, v: Vid) -> Result<()> {
        if self.shards[shard].backend.vertex_exists(v) {
            return Ok(());
        }
        match self.shards[shard]
            .pool
            .submit(&Traversal::g().add_v(v.label(), v.local(), Vec::new()))
        {
            Ok(_) | Err(SnbError::Conflict(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Pipeline one shard's wave in bounded chunks, gathering every
    /// reply per chunk before deciding (the replies stream back out of
    /// order). Ghost-flagged entries tolerate `Conflict`.
    fn run_wave(&self, shard: usize, wave: &[(Traversal, bool)]) -> Result<()> {
        for chunk in wave.chunks(self.batch_chunk) {
            let traversals: Vec<Traversal> = chunk.iter().map(|(t, _)| t.clone()).collect();
            let mut first_err = None;
            let replies = self.shards[shard].pool.submit_batch(&traversals)?;
            for (result, (_, ghost)) in replies.into_iter().zip(chunk) {
                match result {
                    Ok(_) => {}
                    Err(SnbError::Conflict(_)) if *ghost => {}
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Merged view of the partitioned graph: every *owned* vertex with
    /// its sorted properties, over all shards, sorted by vid. Ghosts
    /// are excluded by the ownership filter. Test/verification helper —
    /// not a serving path.
    pub fn merged_vertices(&self) -> Vec<(Vid, Vec<(PropKey, Value)>)> {
        let mut out = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            for &label in &VERTEX_LABELS {
                for v in shard.backend.vertices_by_label(label).unwrap_or_default() {
                    if self.map.shard_of(v) != s {
                        continue; // ghost
                    }
                    let mut props = shard.backend.vertex_props(v).unwrap_or_default();
                    props.sort_by_key(|(k, _)| *k as u8);
                    out.push((v, props));
                }
            }
        }
        out.sort_by_key(|(v, _)| v.raw());
        out
    }

    /// Merged directed edge multiset: each edge enumerated exactly once
    /// from its source owner's copy (`src` owned ⇒ this shard holds the
    /// authoritative out-adjacency). Sorted for comparison.
    pub fn merged_edges(&self) -> Vec<(EdgeLabel, Vid, Vid)> {
        let mut out = Vec::new();
        let mut neigh: Vec<Vid> = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            for &vl in &VERTEX_LABELS {
                for v in shard.backend.vertices_by_label(vl).unwrap_or_default() {
                    if self.map.shard_of(v) != s {
                        continue; // ghost: its out-adjacency is counted on its owner
                    }
                    for &el in &EDGE_LABELS {
                        neigh.clear();
                        if shard
                            .backend
                            .neighbors(v, Direction::Out, Some(el), &mut neigh)
                            .is_ok()
                        {
                            for &d in &neigh {
                                out.push((el, v, d));
                            }
                        }
                    }
                }
            }
        }
        out.sort_by_key(|&(l, s, d)| (l as u8, s.raw(), d.raw()));
        out
    }
}

/// Enumerate an unsharded backend the same way [`ShardRouter::merged_vertices`]
/// enumerates the shards — the single-store oracle side of the
/// shard-equivalence comparison.
pub fn graph_vertices(backend: &dyn GraphBackend) -> Vec<(Vid, Vec<(PropKey, Value)>)> {
    let mut out = Vec::new();
    for &label in &VERTEX_LABELS {
        for v in backend.vertices_by_label(label).unwrap_or_default() {
            let mut props = backend.vertex_props(v).unwrap_or_default();
            props.sort_by_key(|(k, _)| *k as u8);
            out.push((v, props));
        }
    }
    out.sort_by_key(|(v, _)| v.raw());
    out
}

/// Single-store counterpart of [`ShardRouter::merged_edges`].
pub fn graph_edges(backend: &dyn GraphBackend) -> Vec<(EdgeLabel, Vid, Vid)> {
    let mut out = Vec::new();
    let mut neigh: Vec<Vid> = Vec::new();
    for &vl in &VERTEX_LABELS {
        for v in backend.vertices_by_label(vl).unwrap_or_default() {
            for &el in &EDGE_LABELS {
                neigh.clear();
                if backend.neighbors(v, Direction::Out, Some(el), &mut neigh).is_ok() {
                    for &d in &neigh {
                        out.push((el, v, d));
                    }
                }
            }
        }
    }
    out.sort_by_key(|&(l, s, d)| (l as u8, s.raw(), d.raw()));
    out
}

impl SutAdapter for ShardRouter {
    fn name(&self) -> &'static str {
        self.name
    }

    fn load(&self, snapshot: &Dataset) -> Result<()> {
        // Structure-API bulk load, like the other adapters — loading is
        // not the measured network path. Vertices to their owners, then
        // edges to both endpoint owners with ghosts where needed.
        for v in &snapshot.vertices {
            let vid = Vid::new(v.label, v.id);
            self.shards[self.owner(vid)]
                .backend
                .add_vertex(v.label, v.id, &v.props)?;
        }
        for e in &snapshot.edges {
            for s in self.edge_targets(e.src, e.dst).into_iter().flatten() {
                for &ep in &[e.src, e.dst] {
                    if self.owner(ep) != s && !self.shards[s].backend.vertex_exists(ep) {
                        match self.shards[s].backend.add_vertex(ep.label(), ep.local(), &[]) {
                            Ok(_) | Err(SnbError::Conflict(_)) => {}
                            Err(err) => return Err(err),
                        }
                    }
                }
                self.shards[s].backend.add_edge(e.label, e.src, e.dst, &e.props)?;
            }
        }
        Ok(())
    }

    fn execute_read(&self, op: &ReadOp) -> Result<OpResult> {
        match op {
            ReadOp::PointLookup { person } => {
                // Single-shard: the owner answers over the unmodified
                // traversal path, identical to the unsharded adapter.
                let owner = self.owner(Vid::new(VertexLabel::Person, *person));
                read_via(&self.shards[owner].pool, op)
            }
            ReadOp::OneHop { person } => self.one_hop(*person),
            ReadOp::TwoHop { person } => self.two_hop(*person),
            ReadOp::ShortestPath { a, b } => self.shortest_path(*a, *b),
            other => Err(SnbError::Plan(format!(
                "sharded router does not route {other:?}"
            ))),
        }
    }

    fn execute_update(&self, op: &UpdateOp) -> Result<()> {
        if let Some(v) = &op.new_vertex {
            let vid = Vid::new(v.label, v.id);
            self.shards[self.owner(vid)]
                .pool
                .submit(&Traversal::g().add_v(v.label, v.id, v.props.clone()))?;
        }
        for e in &op.new_edges {
            for s in self.edge_targets(e.src, e.dst).into_iter().flatten() {
                for &ep in &[e.src, e.dst] {
                    if self.owner(ep) != s {
                        self.ensure_ghost(s, ep)?;
                    }
                }
                self.shards[s]
                    .pool
                    .submit(&Traversal::g().add_e(e.label, e.src, e.dst, e.props.clone()))?;
            }
        }
        Ok(())
    }

    fn execute_update_batch(&self, ops: &[UpdateOp]) -> Result<usize> {
        // Same dependency-wave discipline as the remote adapter, but
        // partitioned: wave 1 is every vertex the batch needs — real
        // creations on their owners plus batch-deduped ghosts — and it
        // is confirmed on EVERY shard before the first edge goes out,
        // because a cross-shard edge needs its ghost in place remotely,
        // not just locally.
        let n = self.shards.len();
        let mut vertex_waves: Vec<Vec<(Traversal, bool)>> = vec![Vec::new(); n];
        let mut edge_waves: Vec<Vec<(Traversal, bool)>> = vec![Vec::new(); n];
        let mut ghost_planned: FastSet<(usize, u64)> = FastSet::default();
        for op in ops {
            if let Some(v) = &op.new_vertex {
                let vid = Vid::new(v.label, v.id);
                vertex_waves[self.owner(vid)]
                    .push((Traversal::g().add_v(v.label, v.id, v.props.clone()), false));
            }
            for e in &op.new_edges {
                for s in self.edge_targets(e.src, e.dst).into_iter().flatten() {
                    for &ep in &[e.src, e.dst] {
                        if self.owner(ep) != s
                            && ghost_planned.insert((s, ep.raw()))
                            && !self.shards[s].backend.vertex_exists(ep)
                        {
                            vertex_waves[s].push((
                                Traversal::g().add_v(ep.label(), ep.local(), Vec::new()),
                                true,
                            ));
                        }
                    }
                    edge_waves[s].push((
                        Traversal::g().add_e(e.label, e.src, e.dst, e.props.clone()),
                        false,
                    ));
                }
            }
        }
        for (s, wave) in vertex_waves.iter().enumerate() {
            self.run_wave(s, wave)?;
        }
        for (s, wave) in edge_waves.iter().enumerate() {
            self.run_wave(s, wave)?;
        }
        Ok(ops.len())
    }

    fn storage_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.backend.storage_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::gremlin::GremlinAdapter;

    fn sorted(mut rows: OpResult) -> OpResult {
        rows.sort();
        rows
    }

    #[test]
    fn sharded_reads_match_the_single_store_adapter() {
        let data = snb_datagen::generate(&snb_datagen::GeneratorConfig::tiny());
        let oracle = GremlinAdapter::native();
        oracle.load(&data.snapshot).unwrap();
        for shards in [1, 2, 3] {
            let router = ShardRouter::native(shards).unwrap();
            router.load(&data.snapshot).unwrap();
            let mut persons = data.snapshot.vertices_of(snb_core::VertexLabel::Person);
            let a = persons.next().unwrap().id;
            let b = persons.next().unwrap().id;
            let point = ReadOp::PointLookup { person: a };
            assert_eq!(
                oracle.execute_read(&point).unwrap(),
                router.execute_read(&point).unwrap(),
                "{shards}-shard point lookup"
            );
            for op in [ReadOp::OneHop { person: a }, ReadOp::TwoHop { person: a }] {
                // Row order is merge-order-dependent (see module docs);
                // the row set must be identical.
                assert_eq!(
                    sorted(oracle.execute_read(&op).unwrap()),
                    sorted(router.execute_read(&op).unwrap()),
                    "{shards}-shard {op:?}"
                );
            }
            let sp = ReadOp::ShortestPath { a, b };
            assert_eq!(
                oracle.execute_read(&sp).unwrap(),
                router.execute_read(&sp).unwrap(),
                "{shards}-shard shortest path"
            );
            assert_eq!(
                oracle.execute_read(&ReadOp::ShortestPath { a, b: a }).unwrap(),
                router.execute_read(&ReadOp::ShortestPath { a, b: a }).unwrap(),
            );
        }
    }

    #[test]
    fn per_op_updates_merge_to_the_single_store_state() {
        let data = snb_datagen::generate(&snb_datagen::GeneratorConfig::tiny());
        let oracle = GremlinAdapter::native();
        oracle.load(&data.snapshot).unwrap();
        let router = ShardRouter::native(3).unwrap();
        router.load(&data.snapshot).unwrap();
        for op in data.updates.iter().take(60) {
            oracle.execute_update(op).unwrap();
            router.execute_update(op).unwrap();
        }
        let backend = oracle.graph_backend().unwrap();
        assert_eq!(graph_vertices(&*backend), router.merged_vertices());
        assert_eq!(graph_edges(&*backend), router.merged_edges());
    }

    #[test]
    fn batched_updates_merge_to_the_single_store_state() {
        let data = snb_datagen::generate(&snb_datagen::GeneratorConfig::tiny());
        let oracle = GremlinAdapter::native();
        oracle.load(&data.snapshot).unwrap();
        let router = ShardRouter::native(2).unwrap();
        router.load(&data.snapshot).unwrap();
        let ops: Vec<_> = data.updates.iter().take(120).cloned().collect();
        for op in &ops {
            oracle.execute_update(op).unwrap();
        }
        assert_eq!(router.execute_update_batch(&ops).unwrap(), ops.len());
        let backend = oracle.graph_backend().unwrap();
        assert_eq!(graph_vertices(&*backend), router.merged_vertices());
        assert_eq!(graph_edges(&*backend), router.merged_edges());
    }

    #[test]
    fn batched_cross_shard_edges_to_same_batch_vertices_apply() {
        // The sharded analogue of the remote adapter's dependency-wave
        // test: every op's edge targets the previous op's vertex, and
        // with >1 shard roughly half those edges cross a shard boundary
        // — the wave barrier must still make every one land.
        use snb_datagen::{EdgeRec, UpdateKind, VertexRec};
        let router = ShardRouter::native(2).unwrap();
        let n = 150u64;
        let ops: Vec<UpdateOp> = (0..n)
            .map(|i| UpdateOp {
                kind: UpdateKind::AddPerson,
                ts_ms: i as i64,
                dependency_ms: 0,
                new_vertex: Some(VertexRec {
                    label: VertexLabel::Person,
                    id: 1000 + i,
                    props: vec![],
                    creation_ms: i as i64,
                }),
                new_edges: if i == 0 {
                    vec![]
                } else {
                    vec![EdgeRec {
                        label: EdgeLabel::Knows,
                        src: Vid::new(VertexLabel::Person, 1000 + i),
                        dst: Vid::new(VertexLabel::Person, 1000 + i - 1),
                        props: vec![],
                        creation_ms: i as i64,
                    }]
                },
            })
            .collect();
        assert_eq!(router.execute_update_batch(&ops).unwrap(), ops.len());
        assert_eq!(router.merged_vertices().len(), n as usize);
        assert_eq!(router.merged_edges().len(), n as usize - 1);
    }

    #[test]
    fn hot_frontier_cache_hits_and_invalidates_on_any_shard_write() {
        let data = snb_datagen::generate(&snb_datagen::GeneratorConfig::tiny());
        let oracle = GremlinAdapter::native();
        oracle.load(&data.snapshot).unwrap();
        let router = ShardRouter::native(2).unwrap();
        router.load(&data.snapshot).unwrap();
        let cache = router.frontier_cache().expect("native shards have epochs");
        let person = data
            .snapshot
            .vertices_of(snb_core::VertexLabel::Person)
            .next()
            .unwrap()
            .id;
        let op = ReadOp::TwoHop { person };
        let first = sorted(router.execute_read(&op).unwrap());
        let cold_hits = cache.stats().hits;
        let second = sorted(router.execute_read(&op).unwrap());
        assert_eq!(first, second);
        assert!(cache.stats().hits > cold_hits, "repeat two-hop hits the frontier cache");
        // A write through the router (any shard) advances that shard's
        // epoch; the next read must recompute against fresh state and
        // still match the oracle.
        let update = data.updates.first().expect("tiny data has updates");
        oracle.execute_update(update).unwrap();
        router.execute_update(update).unwrap();
        assert_eq!(
            sorted(oracle.execute_read(&op).unwrap()),
            sorted(router.execute_read(&op).unwrap()),
            "post-write read is fresh"
        );
        assert_eq!(cache.stats().stale_served, 0);
    }

    #[test]
    fn disabled_frontier_cache_still_serves_reads() {
        let data = snb_datagen::generate(&snb_datagen::GeneratorConfig::tiny());
        let router = ShardRouter::native_with_cache(2, 0).unwrap();
        router.load(&data.snapshot).unwrap();
        assert!(router.frontier_cache().is_none());
        let person = data
            .snapshot
            .vertices_of(snb_core::VertexLabel::Person)
            .next()
            .unwrap()
            .id;
        let rows = router.execute_read(&ReadOp::TwoHop { person }).unwrap();
        let again = router.execute_read(&ReadOp::TwoHop { person }).unwrap();
        assert_eq!(sorted(rows), sorted(again));
    }

    #[test]
    fn unrouted_operations_fail_with_a_plan_error() {
        let router = ShardRouter::native(1).unwrap();
        let err = router
            .execute_read(&ReadOp::Is1Profile { person: 1 })
            .unwrap_err();
        assert!(matches!(err, SnbError::Plan(_)), "{err}");
    }
}
