//! The Gremlin Server analogue.
//!
//! Clients never touch the backend directly: a traversal is serialized
//! to the binary wire format, admitted against the server's bounded
//! capacity, executed by the bulk executor, and the result values are
//! serialized back. That round-trip — encode, admit, decode, execute,
//! encode, decode — is the real cost the paper measures between "Neo4j
//! (Cypher)" and "Neo4j (Gremlin)". In-process clients execute on the
//! calling thread while a worker-sized slot is free (TinkerPop's
//! embedded traversal source does the same); once every slot is busy
//! they spill into the bounded request queue behind the fixed worker
//! pool, exactly like a remote client — network transports always take
//! the queued path. When the queue is full or a response takes too
//! long, the client gets [`SnbError::Overloaded`]: the
//! benchmark-visible form of the hangs and crashes the paper reports
//! under 64 concurrent complex queries.

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use snb_cache::ResultCache;
use snb_core::{GraphBackend, Result, SnbError, Value};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::exec;
use crate::traversal::Traversal;
use crate::wire;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing traversals.
    pub workers: usize,
    /// Bounded request-queue capacity; submissions beyond it fail fast.
    pub queue_capacity: usize,
    /// How long a client waits for a response before giving up.
    pub request_timeout: Duration,
    /// Entry capacity of the inline-path result cache: bounded
    /// read-only traversal payloads keyed on (encoded traversal bytes,
    /// backend write epoch). `0` disables the cache; backends without a
    /// [`GraphBackend::cache_epoch`] bypass it regardless.
    pub result_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: default_workers(),
            queue_capacity: 64,
            request_timeout: Duration::from_secs(30),
            result_cache_capacity: DEFAULT_RESULT_CACHE_CAPACITY,
        }
    }
}

/// Default inline result-cache entries. The cached values are encoded
/// response payloads for *bounded* traversals (point reads, one/two-hop
/// rings), so memory stays modest while the skewed hot set — the LDBC
/// access distribution concentrates most reads on a few hub vertices —
/// fits comfortably.
pub const DEFAULT_RESULT_CACHE_CAPACITY: usize = 4096;

/// Default worker-pool size: one worker per available core, clamped to
/// at least one so a 1-core box still makes progress.
pub fn default_workers() -> usize {
    clamp_workers(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

fn clamp_workers(n: usize) -> usize {
    n.max(1)
}

/// Where a finished request's `(tag, result)` goes when the submitter
/// is not blocked waiting for it. Channel-based transports (the
/// thread-per-connection server) use the [`Reply::Channel`] variant
/// directly; readiness-driven transports (the epoll reactor) implement
/// this trait so a worker can hand the result straight to the reactor's
/// completion queue and wake its event loop.
///
/// `complete` is called from a worker thread and must not block: the
/// worker pool is shared by every connection, so a stalled sink would
/// stall unrelated requests.
pub trait ReplySink: Send + Sync {
    /// Deliver the result for the request tagged `tag`.
    fn complete(&self, tag: u64, result: Result<Vec<u8>>);
}

/// The two reply routes a request can carry (see [`ReplySink`]).
enum Reply {
    Channel(Sender<(u64, Result<Vec<u8>>)>),
    Sink(Arc<dyn ReplySink>),
}

impl Reply {
    fn complete(&self, tag: u64, result: Result<Vec<u8>>) {
        match self {
            // The client may have timed out; ignore send failures.
            Reply::Channel(tx) => {
                let _ = tx.send((tag, result));
            }
            Reply::Sink(sink) => sink.complete(tag, result),
        }
    }
}

struct Request {
    payload: Vec<u8>,
    /// Opaque correlation tag echoed back with the result; lets one
    /// reply channel serve many in-flight requests (a pipelined TCP
    /// connection). The in-process client always uses 0.
    tag: u64,
    reply: Reply,
}

/// Counting permits for the in-process fast path: one per worker, so
/// inline executions never exceed the concurrency the pool itself would
/// grant. Acquire never blocks — a miss means "all workers busy", and
/// the client falls back to the queued path.
struct InlineSlots(AtomicUsize);

impl InlineSlots {
    fn try_acquire(&self) -> bool {
        self.0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }

    fn release(&self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// The server: owns the worker pool. Dropping it shuts the pool down
/// (even if client handles are still alive).
pub struct GremlinServer {
    tx: Sender<Request>,
    timeout: Duration,
    backend: Arc<dyn GraphBackend>,
    inline: Arc<InlineSlots>,
    cache: Option<Arc<ResultCache<Vec<u8>>>>,
    shutdown: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl GremlinServer {
    /// Start a server over a shared backend.
    pub fn start(backend: Arc<dyn GraphBackend>, config: ServerConfig) -> Self {
        let (tx, rx): (Sender<Request>, Receiver<Request>) = bounded(config.queue_capacity);
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let rx = rx.clone();
            let backend = Arc::clone(&backend);
            let shutdown = Arc::clone(&shutdown);
            handles.push(std::thread::spawn(move || loop {
                match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(req) => {
                        let result = handle(&*backend, &req.payload);
                        req.reply.complete(req.tag, result);
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if shutdown.load(Ordering::Relaxed) {
                            return;
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }));
        }
        // No epoch, no cache: a backend without a monotone write
        // counter cannot key entries safely, so don't even allocate.
        let cache = (config.result_cache_capacity > 0 && backend.cache_epoch().is_some())
            .then(|| Arc::new(ResultCache::new("inline", config.result_cache_capacity)));
        GremlinServer {
            tx,
            timeout: config.request_timeout,
            inline: Arc::new(InlineSlots(AtomicUsize::new(config.workers))),
            backend,
            cache,
            shutdown,
            handles,
        }
    }

    /// The inline-path result cache, when enabled (stats hook for the
    /// benchmark harness and `cache_smoke`).
    pub fn result_cache(&self) -> Option<&Arc<ResultCache<Vec<u8>>>> {
        self.cache.as_ref()
    }

    /// A client handle; cheap to clone, safe to use from many threads.
    pub fn client(&self) -> GremlinClient {
        GremlinClient {
            tx: self.tx.clone(),
            timeout: self.timeout,
            backend: Arc::clone(&self.backend),
            inline: Arc::clone(&self.inline),
        }
    }

    /// A raw dispatch hook for network transports: submits already-encoded
    /// request payloads without waiting for the result.
    pub fn raw_submitter(&self) -> RawSubmitter {
        RawSubmitter {
            tx: self.tx.clone(),
            backend: Arc::clone(&self.backend),
            inline: Arc::clone(&self.inline),
            cache: self.cache.clone(),
        }
    }
}

impl Drop for GremlinServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn handle(backend: &dyn GraphBackend, payload: &[u8]) -> Result<Vec<u8>> {
    let traversal: Traversal = wire::decode_traversal(payload)
        .map_err(|e| SnbError::Codec(format!("bad request: {e}")))?;
    handle_decoded(backend, &traversal)
}

fn handle_decoded(backend: &dyn GraphBackend, traversal: &Traversal) -> Result<Vec<u8>> {
    let values = exec::execute(&backend, traversal)?;
    Ok(wire::encode_values(&values))
}

/// A connection to the server.
#[derive(Clone)]
pub struct GremlinClient {
    tx: Sender<Request>,
    timeout: Duration,
    backend: Arc<dyn GraphBackend>,
    inline: Arc<InlineSlots>,
}

impl GremlinClient {
    /// Submit a traversal and wait for its result values.
    ///
    /// Pays the full codec path either way (encode request, decode
    /// response). While a worker-sized slot is free the request executes
    /// on this thread; under saturation it queues behind the pool like a
    /// remote client, and overload surfaces as [`SnbError::Overloaded`].
    pub fn submit(&self, traversal: &Traversal) -> Result<Vec<Value>> {
        let payload = wire::encode_traversal(traversal);
        if self.inline.try_acquire() {
            let result = handle(&*self.backend, &payload);
            self.inline.release();
            let bytes = result?;
            return wire::decode_values(&bytes)
                .map_err(|e| SnbError::Codec(format!("bad response: {e}")));
        }
        let (reply_tx, reply_rx) = bounded(1);
        match self.tx.try_send(Request { payload, tag: 0, reply: Reply::Channel(reply_tx) }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                return Err(SnbError::Overloaded("gremlin server request queue is full".into()))
            }
            Err(TrySendError::Disconnected(_)) => {
                return Err(SnbError::Backend("gremlin server is down".into()))
            }
        }
        let (_, bytes) = reply_rx
            .recv_timeout(self.timeout)
            .map_err(|_| SnbError::Overloaded("gremlin server response timed out".into()))?;
        let bytes = bytes?;
        wire::decode_values(&bytes).map_err(|e| SnbError::Codec(format!("bad response: {e}")))
    }
}

/// Anything that can execute a traversal and return its values: the
/// in-process [`GremlinClient`] or a remote connection pool (snb-net).
/// Workload adapters are written against this trait so the same query
/// code runs in-process and over the socket.
pub trait TraversalEndpoint: Send + Sync {
    /// Execute one traversal round-trip.
    fn submit(&self, traversal: &Traversal) -> Result<Vec<Value>>;
}

impl TraversalEndpoint for GremlinClient {
    fn submit(&self, traversal: &Traversal) -> Result<Vec<Value>> {
        GremlinClient::submit(self, traversal)
    }
}

/// Fire-and-forget submission handle for network transports.
///
/// Unlike [`GremlinClient::submit`], `submit_raw` does not block waiting
/// for the result: the worker pool sends `(tag, result)` to the supplied
/// reply channel when execution finishes. A per-connection writer thread
/// owns the receiving side and turns each result into a response frame,
/// so one TCP connection can keep many requests in flight.
#[derive(Clone)]
pub struct RawSubmitter {
    tx: Sender<Request>,
    backend: Arc<dyn GraphBackend>,
    inline: Arc<InlineSlots>,
    cache: Option<Arc<ResultCache<Vec<u8>>>>,
}

impl RawSubmitter {
    /// Enqueue an encoded request. Fails fast with
    /// [`SnbError::Overloaded`] when the bounded queue is full — the
    /// transport maps that onto a typed error frame instead of stalling
    /// or dropping the connection.
    pub fn submit_raw(
        &self,
        tag: u64,
        payload: Vec<u8>,
        reply: &Sender<(u64, Result<Vec<u8>>)>,
    ) -> Result<()> {
        self.enqueue(Request { payload, tag, reply: Reply::Channel(reply.clone()) })
    }

    /// Enqueue an encoded request whose result is delivered through a
    /// [`ReplySink`] (the epoll reactor's completion-queue route).
    /// Same backpressure contract as [`RawSubmitter::submit_raw`].
    pub fn submit_sink(
        &self,
        tag: u64,
        payload: Vec<u8>,
        sink: &Arc<dyn ReplySink>,
    ) -> Result<()> {
        self.enqueue(Request { payload, tag, reply: Reply::Sink(Arc::clone(sink)) })
    }

    fn enqueue(&self, request: Request) -> Result<()> {
        match self.tx.try_send(request) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                Err(SnbError::Overloaded("gremlin server request queue is full".into()))
            }
            Err(TrySendError::Disconnected(_)) => {
                Err(SnbError::Backend("gremlin server is down".into()))
            }
        }
    }

    /// Execute a request on the calling thread when it is safe to do so:
    /// the traversal is read-only (mutations serialize on the backend's
    /// write lock and must never stall a transport event loop), has
    /// statically bounded cost (no `repeat`-style search, no label
    /// scan, a short expansion chain) AND a worker-sized inline slot is
    /// free — the same permit accounting the in-process
    /// [`GremlinClient`] fast path uses, so inline work never exceeds
    /// the concurrency the pool itself would grant.
    ///
    /// Static bounds cannot see degree: a "bounded" hop chain through
    /// hub vertices can still touch a huge frontier. Execution is
    /// therefore capped at [`INLINE_TRAVERSER_CAP`] live traversers —
    /// past that the (read-only, side-effect-free) attempt is abandoned
    /// and the request falls back to the queued path.
    ///
    /// Returns `None` when the request must take the queued path
    /// instead (a mutation, unbounded cost, every slot busy, or the cap
    /// tripping mid-flight): that keeps the `Overloaded` contract
    /// intact — expensive work under saturation still lands in the
    /// bounded queue and overflows as a typed error, never as an
    /// unbounded pile-up on the transport's event loop.
    ///
    /// A payload that does not decode is answered inline with the codec
    /// error (decoding is what classification costs anyway).
    pub fn try_execute_inline(&self, payload: &[u8]) -> Option<Result<Vec<u8>>> {
        let traversal = match wire::decode_traversal(payload) {
            Ok(t) => t,
            Err(e) => return Some(Err(SnbError::Codec(format!("bad request: {e}")))),
        };
        if traversal.has_mutation() || !traversal.bounded_cost() {
            if let Some(c) = &self.cache {
                c.note_bypass();
            }
            return None;
        }
        // Epoch-keyed result cache: the wire encoding is canonical for
        // a traversal (decode∘encode is the identity), so the request
        // payload itself is the key material, and the backend's write
        // sequence pins the epoch. A hit answers without touching an
        // inline slot, the executor, or the store at all.
        let epoch = match &self.cache {
            Some(c) => match self.backend.cache_epoch() {
                Some(e) => {
                    if let Some(bytes) = c.get(payload, e) {
                        return Some(Ok(bytes));
                    }
                    Some(e)
                }
                None => {
                    c.note_bypass();
                    None
                }
            },
            None => None,
        };
        if !self.inline.try_acquire() {
            return None;
        }
        let result = exec::execute_capped(&*self.backend, &traversal, INLINE_TRAVERSER_CAP);
        self.inline.release();
        match result {
            Ok(Some(values)) => {
                let bytes = wire::encode_values(&values);
                if let (Some(c), Some(e)) = (&self.cache, epoch) {
                    // Insert only if no write landed during execution:
                    // a result computed astride an epoch flip may
                    // reflect either side, so it is only stored when
                    // the epoch observed before execution still holds.
                    if self.backend.cache_epoch() == Some(e) {
                        c.insert(payload, e, bytes.clone());
                    }
                }
                Some(Ok(bytes))
            }
            Ok(None) => None, // frontier outgrew the cap: worker pool re-runs it
            Err(e) => Some(Err(e)),
        }
    }

    /// The inline-path result cache, when enabled.
    pub fn result_cache(&self) -> Option<&Arc<ResultCache<Vec<u8>>>> {
        self.cache.as_ref()
    }
}

/// Live-traverser cap for inline execution on transport I/O threads —
/// far below [`exec::TRAVERSER_BUDGET`], since an event loop stalled
/// for one request delays every connection it owns. Point lookups and
/// ordinary one/two-hop reads stay well under it; hub blow-ups spill to
/// the worker pool.
pub const INLINE_TRAVERSER_CAP: usize = 8192;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::Traversal;
    use snb_core::{EdgeLabel, PropKey, VertexLabel, Vid};
    use snb_graph_native::NativeGraphStore;

    fn p(id: u64) -> Vid {
        Vid::new(VertexLabel::Person, id)
    }

    fn backend() -> Arc<dyn GraphBackend> {
        let s = NativeGraphStore::new();
        for id in 1..=5 {
            s.add_vertex(VertexLabel::Person, id, &[(PropKey::FirstName, Value::str("p"))])
                .unwrap();
        }
        for (a, b) in [(1u64, 2u64), (2, 3), (3, 4), (4, 5)] {
            s.add_edge(EdgeLabel::Knows, p(a), p(b), &[]).unwrap();
        }
        Arc::new(s)
    }

    #[test]
    fn round_trip_through_server() {
        let server = GremlinServer::start(backend(), ServerConfig::default());
        let client = server.client();
        let mut r = client.submit(&Traversal::v(p(2)).both(EdgeLabel::Knows).values(PropKey::Id)).unwrap();
        r.sort();
        assert_eq!(r, vec![Value::Int(1), Value::Int(3)]);
    }

    #[test]
    fn concurrent_clients() {
        let server = GremlinServer::start(backend(), ServerConfig::default());
        let mut handles = Vec::new();
        for _ in 0..16 {
            let client = server.client();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let r = client
                        .submit(&Traversal::v(p(3)).both(EdgeLabel::Knows).count())
                        .unwrap();
                    assert_eq!(r, vec![Value::Int(2)]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn queue_overflow_is_overloaded() {
        // One inline slot, one worker, tiny queue: flooding it with
        // long-running searches must yield Overloaded. The search needs
        // to be genuinely slow — a simple-path sweep of a 9-clique
        // toward a vertex that doesn't exist (~100K paths) — so the
        // inline slot and the worker stay busy while the rest arrive.
        let s = NativeGraphStore::new();
        for id in 1..=9 {
            s.add_vertex(VertexLabel::Person, id, &[]).unwrap();
        }
        for a in 1..=9u64 {
            for b in (a + 1)..=9 {
                s.add_edge(EdgeLabel::Knows, p(a), p(b), &[]).unwrap();
            }
        }
        let server = GremlinServer::start(
            Arc::new(s),
            ServerConfig { workers: 1, queue_capacity: 1, request_timeout: Duration::from_millis(200) , ..Default::default() },
        );
        let heavy = Traversal::v(p(1)).repeat_both_until(EdgeLabel::Knows, p(99), 9).path_len();
        let mut saw_overload = false;
        let clients: Vec<_> = (0..32).map(|_| server.client()).collect();
        let handles: Vec<_> = clients
            .into_iter()
            .map(|c| {
                let heavy = heavy.clone();
                std::thread::spawn(move || c.submit(&heavy).is_err())
            })
            .collect();
        for h in handles {
            saw_overload |= h.join().unwrap();
        }
        assert!(saw_overload, "at least one request should be rejected or time out");
    }

    #[test]
    fn execution_errors_propagate() {
        let server = GremlinServer::start(backend(), ServerConfig::default());
        let client = server.client();
        let r = client.submit(&Traversal::v(p(1)).values(PropKey::FirstName).out_any());
        assert!(matches!(r, Err(SnbError::Exec(_))));
    }

    #[test]
    fn default_workers_track_available_parallelism() {
        // Regression for the hard-coded `workers: 8`: the default must be
        // derived from the machine, and a 1-core box (or a box where
        // available_parallelism errors, modelled by the 0 input) must
        // still get at least one worker.
        assert_eq!(clamp_workers(0), 1);
        assert_eq!(clamp_workers(1), 1);
        assert_eq!(clamp_workers(64), 64);
        let expect =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(1);
        assert_eq!(default_workers(), expect);
        assert_eq!(ServerConfig::default().workers, expect);
        assert!(ServerConfig::default().workers >= 1);
    }

    #[test]
    fn raw_submitter_echoes_tags() {
        let server = GremlinServer::start(backend(), ServerConfig::default());
        let raw = server.raw_submitter();
        let (reply_tx, reply_rx) = bounded(64);
        for tag in [7u64, 99, 12345] {
            let payload = wire::encode_traversal(&Traversal::v(p(3)).both(EdgeLabel::Knows).count());
            raw.submit_raw(tag, payload, &reply_tx).unwrap();
        }
        let mut tags = Vec::new();
        for _ in 0..3 {
            let (tag, result) = reply_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            tags.push(tag);
            assert_eq!(wire::decode_values(&result.unwrap()).unwrap(), vec![Value::Int(2)]);
        }
        tags.sort();
        assert_eq!(tags, vec![7, 99, 12345]);
    }

    #[test]
    fn raw_submitter_surfaces_overload() {
        let server = GremlinServer::start(
            backend(),
            ServerConfig { workers: 1, queue_capacity: 1, request_timeout: Duration::from_secs(5) , ..Default::default() },
        );
        let raw = server.raw_submitter();
        let (reply_tx, _reply_rx) = bounded(64);
        let heavy = Traversal::v(p(1)).repeat_both_until(EdgeLabel::Knows, p(5), 8).path_len();
        let mut saw_overload = false;
        for _ in 0..64 {
            if let Err(e) = raw.submit_raw(0, wire::encode_traversal(&heavy), &reply_tx) {
                assert!(matches!(e, SnbError::Overloaded(_)));
                saw_overload = true;
                break;
            }
        }
        assert!(saw_overload, "flooding a capacity-1 queue must overload");
    }

    #[test]
    fn inline_path_excludes_mutations() {
        let server = GremlinServer::start(backend(), ServerConfig::default());
        let raw = server.raw_submitter();
        // Mutations block on the write lock; they must always take the
        // queued path so a transport event loop never stalls on one.
        let add_v = wire::encode_traversal(&Traversal::g().add_v(VertexLabel::Person, 99, vec![]));
        assert!(raw.try_execute_inline(&add_v).is_none());
        let add_e = wire::encode_traversal(&Traversal::g().add_e(EdgeLabel::Knows, p(1), p(2), vec![]));
        assert!(raw.try_execute_inline(&add_e).is_none());
        let set_prop =
            wire::encode_traversal(&Traversal::v(p(1)).property(PropKey::Gender, Value::str("x")));
        assert!(raw.try_execute_inline(&set_prop).is_none());
        // Cheap bounded reads still run inline.
        let read = wire::encode_traversal(&Traversal::v(p(3)).both(EdgeLabel::Knows).count());
        let bytes = raw.try_execute_inline(&read).expect("inline-eligible").unwrap();
        assert_eq!(wire::decode_values(&bytes).unwrap(), vec![Value::Int(2)]);
    }

    #[test]
    fn inline_cache_serves_hits_and_respects_epochs() {
        let server = GremlinServer::start(backend(), ServerConfig::default());
        let raw = server.raw_submitter();
        let cache = server.result_cache().expect("native backend has an epoch").clone();
        let read = wire::encode_traversal(&Traversal::v(p(3)).both(EdgeLabel::Knows).count());
        let first = raw.try_execute_inline(&read).expect("inline-eligible").unwrap();
        assert_eq!(cache.stats().hits, 0);
        let second = raw.try_execute_inline(&read).expect("inline-eligible").unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.stats().hits, 1, "repeat read is served from cache");
        // A write advances the epoch: the next read misses, re-executes
        // against the new state, and re-caches.
        let add_e = wire::encode_traversal(&Traversal::g().add_e(EdgeLabel::Knows, p(3), p(5), vec![]));
        assert!(raw.try_execute_inline(&add_e).is_none(), "mutations bypass");
        let server_client = server.client();
        server_client
            .submit(&Traversal::g().add_e(EdgeLabel::Knows, p(3), p(5), vec![]))
            .unwrap();
        let after = raw.try_execute_inline(&read).expect("inline-eligible").unwrap();
        assert_eq!(wire::decode_values(&after).unwrap(), vec![Value::Int(3)]);
        let s = cache.stats();
        assert_eq!(s.stale_served, 0);
        assert!(s.stale_evicted >= 1, "old-epoch entry reclaimed: {s:?}");
        assert!(s.bypass >= 1, "mutation counted as bypass");
    }

    #[test]
    fn zero_capacity_disables_the_inline_cache() {
        let server = GremlinServer::start(
            backend(),
            ServerConfig { result_cache_capacity: 0, ..Default::default() },
        );
        assert!(server.result_cache().is_none());
        let raw = server.raw_submitter();
        let read = wire::encode_traversal(&Traversal::v(p(3)).both(EdgeLabel::Knows).count());
        let bytes = raw.try_execute_inline(&read).expect("still inline-eligible").unwrap();
        assert_eq!(wire::decode_values(&bytes).unwrap(), vec![Value::Int(2)]);
    }

    #[test]
    fn dropping_the_server_frees_its_backend() {
        let backend = backend();
        let weak = Arc::downgrade(&backend);
        let server =
            GremlinServer::start(backend, ServerConfig { workers: 2, ..Default::default() });
        // Run work on the pool so every clone the workers hold is live.
        let raw = server.raw_submitter();
        let (reply_tx, reply_rx) = bounded(4);
        for tag in 0..4u64 {
            let payload =
                wire::encode_traversal(&Traversal::v(p(3)).both(EdgeLabel::Knows).count());
            raw.submit_raw(tag, payload, &reply_tx).unwrap();
        }
        for _ in 0..4 {
            let (_, result) = reply_rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(wire::decode_values(&result.unwrap()).unwrap(), vec![Value::Int(2)]);
        }
        drop(raw);
        drop(server);
        assert!(weak.upgrade().is_none(), "backend still alive after the server dropped");
    }

    #[test]
    fn mutations_through_server() {
        let server = GremlinServer::start(backend(), ServerConfig::default());
        let client = server.client();
        client
            .submit(&Traversal::g().add_v(VertexLabel::Person, 42, vec![]))
            .unwrap();
        let r = client.submit(&Traversal::v(p(42)).count()).unwrap();
        assert_eq!(r, vec![Value::Int(1)]);
    }
}
