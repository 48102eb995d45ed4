//! The remote Gremlin client: a connection pool over the framed
//! protocol with timeouts and retry-with-backoff.
//!
//! Each pooled connection owns a background reader thread that routes
//! incoming frames to waiting callers by correlation id, so any number
//! of threads can share one connection and keep requests pipelined.
//! [`NetPool::submit_batch`] exploits that directly: N requests are
//! encoded into one buffer and written with a single syscall, then the
//! N tagged responses are gathered as they stream back — one round of
//! kernel crossings instead of N.
//!
//! Reconnection policy: transport failures (`SnbError::Io` — refused,
//! reset, closed) are retried with capped-exponential jittered backoff
//! up to `max_retries`, re-establishing the TCP connection first;
//! *query* errors (`Exec`, `Overloaded`, `NotFound`, ...) came from a
//! healthy server and are returned to the caller untouched — retrying
//! those would double-apply mutations and mask real backpressure.

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use snb_core::fxhash::FastMap;
use snb_core::{Result, SnbError, Value};
use snb_gremlin::{wire, Traversal, TraversalEndpoint};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::frame::{self, Frame, FrameKind};

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connections in the pool; requests round-robin across them.
    pub connections: usize,
    /// TCP connect timeout (also bounds each reconnect attempt).
    pub connect_timeout: Duration,
    /// How long one request waits for its response frame.
    pub request_timeout: Duration,
    /// Reconnect attempts on transport failures before giving up.
    pub max_retries: u32,
    /// First backoff delay; doubles per attempt (with jitter) up to
    /// [`ClientConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Ceiling on any single backoff sleep, however many attempts have
    /// failed.
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connections: 2,
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(10),
            max_retries: 3,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(1),
        }
    }
}

/// The sleep before retry `attempt` (0-based): exponential in the
/// attempt number with the exponent capped (so a large retry budget can
/// never overflow the shift or overshoot the cap), clamped to `cap`,
/// then jittered uniformly into `[50%, 100%]` of the clamped value so a
/// burst of clients whose connections died together does not
/// reconnect-stampede in lockstep. `rand` supplies the jitter entropy.
fn backoff_delay(base: Duration, cap: Duration, attempt: u32, rand: u64) -> Duration {
    const MAX_EXPONENT: u32 = 10; // 1024× base is past any sane cap
    let factor = 1u32 << attempt.min(MAX_EXPONENT);
    let capped = base.saturating_mul(factor).min(cap);
    let half = capped / 2;
    // capped/2 + uniform(0..=capped/2)
    half + Duration::from_nanos((half.as_nanos() as u64).saturating_mul(rand % 1025) / 1024)
}

/// A small xorshift PRNG for backoff jitter — no `rand` dependency, and
/// quality hardly matters: it only decorrelates sleep lengths.
fn jitter_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x9e3779b97f4a7c15);
    let tid = std::thread::current().id();
    let mut x = nanos ^ (&tid as *const _ as u64) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// State shared between a connection and its reader thread.
struct ConnShared {
    /// In-flight requests: correlation id → reply slot.
    pending: Mutex<FastMap<u64, Sender<Result<Vec<u8>>>>>,
    /// Set once the reader has observed EOF or a transport error.
    dead: AtomicBool,
    /// A connection-fatal error frame (correlation id 0), e.g. the
    /// server's connection limit; reported to every subsequent caller.
    fatal: Mutex<Option<SnbError>>,
}

impl ConnShared {
    fn fail_all(&self, err: &SnbError) {
        let mut pending = self.pending.lock();
        for (_, tx) in pending.drain() {
            let _ = tx.try_send(Err(err.clone()));
        }
    }
}

/// One live TCP connection.
struct ConnInner {
    stream: TcpStream,
    /// Serializes frame writes so interleaved requests stay framed.
    write_lock: Mutex<()>,
    /// Correlation ids start at 1; 0 is reserved for connection-fatal
    /// server errors.
    next_id: AtomicU64,
    shared: Arc<ConnShared>,
}

impl ConnInner {
    fn connect(addr: SocketAddr, cfg: &ClientConfig) -> Result<ConnInner> {
        let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)
            .map_err(|e| SnbError::Io(format!("connect {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        let read_half =
            stream.try_clone().map_err(|e| SnbError::Io(format!("clone stream: {e}")))?;
        let shared = Arc::new(ConnShared {
            pending: Mutex::new(FastMap::default()),
            dead: AtomicBool::new(false),
            fatal: Mutex::new(None),
        });
        {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reader_loop(read_half, shared));
        }
        Ok(ConnInner { stream, write_lock: Mutex::new(()), next_id: AtomicU64::new(0), shared })
    }

    fn dead_error(&self) -> SnbError {
        self.shared
            .fatal
            .lock()
            .clone()
            .unwrap_or_else(|| SnbError::Io("connection lost".into()))
    }

    /// Put one Request frame on the wire without waiting for its
    /// response: registers the reply slot, writes the frame, and hands
    /// back the correlation id and receiver.
    fn start(&self, payload: &[u8]) -> Result<(u64, Receiver<Result<Vec<u8>>>)> {
        if self.shared.dead.load(Ordering::Acquire) {
            return Err(self.dead_error());
        }
        let corr_id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let (tx, rx) = bounded(1);
        self.shared.pending.lock().insert(corr_id, tx);
        let write_result = {
            let _guard = self.write_lock.lock();
            let mut w = &self.stream;
            frame::write_frame(
                &mut w,
                &Frame { kind: FrameKind::Request, corr_id, payload: payload.to_vec() },
            )
        };
        if let Err(e) = write_result {
            self.shared.pending.lock().remove(&corr_id);
            self.shared.dead.store(true, Ordering::Release);
            return Err(e);
        }
        Ok((corr_id, rx))
    }

    /// One pipelined request/response round trip.
    fn request(&self, payload: &[u8], timeout: Duration) -> Result<Vec<u8>> {
        let (corr_id, rx) = self.start(payload)?;
        match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(_) => {
                // Give up on this request; a late response frame for this
                // id is dropped by the reader (no pending entry).
                self.shared.pending.lock().remove(&corr_id);
                Err(SnbError::Overloaded("request timed out".into()))
            }
        }
    }

    /// Pipelined batch submission: every payload is framed with a
    /// consecutive correlation id into ONE buffer and written with a
    /// single syscall; the tagged responses are then gathered (they may
    /// arrive in any order — the reader routes by id). One entry per
    /// payload, in payload order. The whole batch shares one deadline.
    fn request_batch(
        &self,
        payloads: &[Vec<u8>],
        timeout: Duration,
    ) -> Result<Vec<Result<Vec<u8>>>> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        if self.shared.dead.load(Ordering::Acquire) {
            return Err(self.dead_error());
        }
        let first_id = self.next_id.fetch_add(payloads.len() as u64, Ordering::Relaxed) + 1;
        let mut slots: Vec<(u64, Receiver<Result<Vec<u8>>>)> =
            Vec::with_capacity(payloads.len());
        let mut wire_buf = Vec::new();
        {
            let mut pending = self.shared.pending.lock();
            for (i, payload) in payloads.iter().enumerate() {
                let corr_id = first_id + i as u64;
                let (tx, rx) = bounded(1);
                pending.insert(corr_id, tx);
                frame::encode_frame_into(&mut wire_buf, FrameKind::Request, corr_id, payload);
                slots.push((corr_id, rx));
            }
        }
        let write_result = {
            let _guard = self.write_lock.lock();
            let mut w = &self.stream;
            w.write_all(&wire_buf).and_then(|()| w.flush())
        };
        if let Err(e) = write_result {
            let mut pending = self.shared.pending.lock();
            for (corr_id, _) in &slots {
                pending.remove(corr_id);
            }
            self.shared.dead.store(true, Ordering::Release);
            return Err(SnbError::Io(format!("batch write: {e}")));
        }
        let deadline = Instant::now() + timeout;
        let mut results = Vec::with_capacity(slots.len());
        for (corr_id, rx) in slots {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining) {
                Ok(result) => results.push(result),
                Err(_) => {
                    self.shared.pending.lock().remove(&corr_id);
                    results.push(Err(SnbError::Overloaded("request timed out".into())));
                }
            }
        }
        Ok(results)
    }
}

impl Drop for ConnInner {
    fn drop(&mut self) {
        // Unblocks the reader thread, which then fails any stragglers.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

fn reader_loop(mut stream: TcpStream, shared: Arc<ConnShared>) {
    loop {
        match frame::read_frame(&mut stream) {
            Ok(Some(f)) => match f.kind {
                FrameKind::Response => deliver(&shared, f.corr_id, Ok(f.payload)),
                FrameKind::Error => {
                    // A malformed error payload is itself reported as the
                    // decode error.
                    let err = match wire::decode_error(&f.payload) {
                        Ok(e) => e,
                        Err(e) => e,
                    };
                    if f.corr_id == 0 {
                        *shared.fatal.lock() = Some(err.clone());
                        shared.dead.store(true, Ordering::Release);
                        shared.fail_all(&err);
                        return;
                    }
                    deliver(&shared, f.corr_id, Err(err));
                }
                // Server → client frames are only Response/Error.
                FrameKind::Request => break, // protocol violation
            },
            Ok(None) | Err(_) => break,
        }
    }
    shared.dead.store(true, Ordering::Release);
    shared.fail_all(&SnbError::Io("connection lost".into()));
}

fn deliver(shared: &ConnShared, corr_id: u64, result: Result<Vec<u8>>) {
    if let Some(tx) = shared.pending.lock().remove(&corr_id) {
        // The caller may have timed out between the map lookup and here.
        let _ = tx.try_send(result);
    }
}

/// One pool slot: the current connection plus enough to rebuild it.
struct PooledConn {
    addr: SocketAddr,
    cfg: ClientConfig,
    slot: Mutex<Option<Arc<ConnInner>>>,
}

impl PooledConn {
    fn get(&self) -> Result<Arc<ConnInner>> {
        let mut slot = self.slot.lock();
        if let Some(c) = slot.as_ref() {
            if !c.shared.dead.load(Ordering::Acquire) {
                return Ok(Arc::clone(c));
            }
        }
        let c = Arc::new(ConnInner::connect(self.addr, &self.cfg)?);
        *slot = Some(Arc::clone(&c));
        Ok(c)
    }

    fn request(&self, payload: &[u8]) -> Result<Vec<u8>> {
        let mut attempt = 0u32;
        loop {
            let result =
                self.get().and_then(|c| c.request(payload, self.cfg.request_timeout));
            match result {
                Err(SnbError::Io(_)) if attempt < self.cfg.max_retries => {
                    self.back_off(attempt);
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Batch round trip with the same Io-only retry policy, applied at
    /// batch granularity: only a failure to *send* the batch (or to
    /// reconnect) retries — once frames are on the wire, per-request
    /// errors come back in the result vector untouched.
    fn request_batch(&self, payloads: &[Vec<u8>]) -> Result<Vec<Result<Vec<u8>>>> {
        let mut attempt = 0u32;
        loop {
            let result =
                self.get().and_then(|c| c.request_batch(payloads, self.cfg.request_timeout));
            match result {
                Err(SnbError::Io(_)) if attempt < self.cfg.max_retries => {
                    self.back_off(attempt);
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Reconnectable transport failure: sleep (capped exponential with
    /// jitter) before the next get() replaces the dead connection.
    fn back_off(&self, attempt: u32) {
        std::thread::sleep(backoff_delay(
            self.cfg.backoff_base,
            self.cfg.backoff_cap,
            attempt,
            jitter_seed(),
        ));
    }
}

/// A connection-pooled remote Gremlin client; cheap to share across
/// threads behind an `Arc`, or use [`NetPool::submit`] directly — every
/// method is `&self`.
pub struct NetPool {
    conns: Vec<PooledConn>,
    next: AtomicUsize,
}

impl NetPool {
    /// Connect `cfg.connections` sockets to `addr` eagerly, so a dead
    /// endpoint fails fast here rather than on the first query.
    pub fn connect(addr: SocketAddr, cfg: ClientConfig) -> Result<NetPool> {
        let n = cfg.connections.max(1);
        let conns: Vec<PooledConn> = (0..n)
            .map(|_| PooledConn { addr, cfg: cfg.clone(), slot: Mutex::new(None) })
            .collect();
        for c in &conns {
            c.get()?;
        }
        Ok(NetPool { conns, next: AtomicUsize::new(0) })
    }

    /// Execute one traversal round trip over the next pooled connection.
    pub fn submit(&self, traversal: &Traversal) -> Result<Vec<Value>> {
        let payload = wire::encode_traversal(traversal);
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.conns.len();
        let bytes = self.conns[slot].request(&payload)?;
        wire::decode_values(&bytes).map_err(|e| SnbError::Codec(format!("bad response: {e}")))
    }

    /// Execute a batch of traversals as ONE pipelined submission on a
    /// single pooled connection: all requests go out in one syscall and
    /// the tagged responses are gathered as they complete. Returns one
    /// result per traversal, in order — per-request failures (a typed
    /// query error, an individual timeout) do not fail the batch.
    ///
    /// This is the client half the reactor's batched read path is built
    /// for: the server decodes the whole burst from one `read(2)` and
    /// coalesces the responses into one `writev(2)`.
    pub fn submit_batch(&self, traversals: &[Traversal]) -> Result<Vec<Result<Vec<Value>>>> {
        let payloads: Vec<Vec<u8>> =
            traversals.iter().map(wire::encode_traversal).collect();
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.conns.len();
        let raw = self.conns[slot].request_batch(&payloads)?;
        Ok(raw
            .into_iter()
            .map(|r| {
                r.and_then(|bytes| {
                    wire::decode_values(&bytes)
                        .map_err(|e| SnbError::Codec(format!("bad response: {e}")))
                })
            })
            .collect())
    }

    /// Pool size.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_caps_exponent_and_total() {
        let base = Duration::from_millis(20);
        let cap = Duration::from_secs(1);
        // The old `base * 2u32.pow(attempt)` panicked (debug) or wrapped
        // (release) past attempt 31 and overshot wildly before that;
        // the capped version must stay within [cap/2, cap] forever.
        for attempt in [0u32, 5, 10, 31, 32, 1000, u32::MAX] {
            for rand in [0u64, 1, 512, 1024, u64::MAX] {
                let d = backoff_delay(base, cap, attempt, rand);
                assert!(d <= cap, "attempt {attempt}: {d:?} exceeds cap");
                if attempt >= 6 {
                    // 20ms << 64 = 1.28s > cap, so the clamp is active.
                    assert!(d >= cap / 2, "attempt {attempt}: {d:?} below jitter floor");
                }
            }
        }
    }

    #[test]
    fn backoff_grows_then_saturates() {
        let base = Duration::from_millis(20);
        let cap = Duration::from_secs(1);
        // Deterministic upper edge of the jitter range (rand % 1025 == 1024).
        let at = |attempt| backoff_delay(base, cap, attempt, 1024);
        assert_eq!(at(0), Duration::from_millis(20));
        assert_eq!(at(1), Duration::from_millis(40));
        assert_eq!(at(2), Duration::from_millis(80));
        assert_eq!(at(20), cap);
        // Jitter never goes below half of the deterministic value.
        assert!(backoff_delay(base, cap, 0, 0) >= Duration::from_millis(10));
    }
}

impl TraversalEndpoint for NetPool {
    fn submit(&self, traversal: &Traversal) -> Result<Vec<Value>> {
        NetPool::submit(self, traversal)
    }
}
