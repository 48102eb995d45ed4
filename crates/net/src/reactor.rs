//! The readiness-driven epoll reactor — the server's second I/O model.
//!
//! The thread-per-connection server spends its fan-in budget on
//! threads: two per socket, one syscall per frame, one wakeup chain per
//! request. The reactor replaces all of that with a small fixed pool of
//! event-loop threads, each owning an `epoll` instance and a slab of
//! connections:
//!
//! * **Accept** — the listener is just another epoll registration on
//!   reactor 0; accepted sockets are handed round-robin to the pool
//!   through per-reactor inboxes plus an `eventfd` wakeup. No
//!   sleep-polling anywhere.
//! * **Read** — edge-triggered drain loops: each `read(2)` lands in the
//!   connection's reusable [`FrameDecoder`] arena and *every* complete
//!   frame buffered so far is decoded and dispatched — a client that
//!   pipelines N requests pays one syscall, not N.
//! * **Execute** — bounded-cost traversals run inline on the reactor
//!   thread while a worker-sized permit is free (the same
//!   [`InlineSlots`](snb_gremlin::GremlinClient) accounting the
//!   in-process fast path uses); everything else — unbounded searches,
//!   permit misses — flows into the existing Gremlin worker pool via
//!   [`RawSubmitter::submit_sink`], so `Overloaded` backpressure,
//!   correlation-id routing, and graceful-drain semantics are exactly
//!   the thread-per-connection server's. The reactor replaces the I/O
//!   layer, not the execution layer.
//! * **Write** — completed responses are corked into the connection's
//!   [`OutQueue`] (pooled buffers, zero steady-state allocation in the
//!   I/O layer) and flushed as a single vectored `writev(2)` per
//!   readiness cycle instead of one `write(2)` per frame.
//! * **Complete** — workers hand results to a per-reactor completion
//!   queue through a [`ReplySink`] and signal the reactor's `eventfd`;
//!   the reactor drains the queue, corks the frames, and flushes.
//!
//! Shutdown drains: reactors stop accepting, take one final read drain
//! per connection (picking up every request already buffered in the
//! kernel), then keep each connection alive until its last in-flight
//! request has produced a response frame and the out queue has flushed.

#![cfg(target_os = "linux")]

use parking_lot::Mutex;
use snb_core::fxhash::FastMap;
use snb_core::{Result, SnbError};
use snb_gremlin::wire;
use snb_gremlin::{RawSubmitter, ReplySink};
use std::collections::VecDeque;
use std::io;
use std::net::TcpListener;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::frame::{self, FrameDecoder, FrameEvent, FrameKind};
use crate::server::{reject_connection, reject_connection_with, NetServerConfig};
use crate::sys;

/// Epoll token of the reactor's wakeup eventfd.
const TOKEN_WAKE: u64 = 0;
/// Epoll token of the listener (reactor 0 only).
const TOKEN_LISTENER: u64 = 1;
/// First connection token; tokens are never reused.
const TOKEN_CONN0: u64 = 2;

/// Bytes asked of each `read(2)` in the drain loop.
const READ_CHUNK: usize = 32 * 1024;
/// Max iovecs per `writev(2)`.
const MAX_IOV: usize = 64;
/// Buffers kept in a connection's encode pool.
const POOL_BUFS: usize = 64;
/// Pooled buffers above this capacity are dropped instead of reused, so
/// one huge response cannot pin its arena forever.
const POOL_BUF_CAP: usize = 256 * 1024;
/// How long graceful shutdown waits for in-flight responses to flush.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the drain keeps *reading* after shutdown begins. A request
/// written by a client just before the shutdown flag flipped can still
/// be in flight through the network stack (on loopback, softirq
/// delivery is deferred under CPU load), so a single final read pass
/// would silently miss it; the threaded model gets this grace for free
/// from its read-timeout poll loop.
const DRAIN_READ_GRACE: Duration = Duration::from_millis(150);

/// A finished request routed back to the reactor that owns the
/// connection it arrived on.
struct Completion {
    token: u64,
    corr_id: u64,
    result: Result<Vec<u8>>,
}

/// The cross-thread face of one reactor: workers push completions and
/// the acceptor pushes fresh sockets, then signal the eventfd so the
/// event loop wakes and drains both queues.
struct ReactorShared {
    wake_fd: i32,
    completions: Mutex<Vec<Completion>>,
    inbox: Mutex<Vec<TcpStream>>,
}

impl ReactorShared {
    fn wake(&self) {
        sys::eventfd_signal(self.wake_fd);
    }

    fn push_completion(&self, c: Completion) {
        self.completions.lock().push(c);
        self.wake();
    }
}

impl Drop for ReactorShared {
    fn drop(&mut self) {
        sys::close_fd(self.wake_fd);
    }
}

/// The per-connection [`ReplySink`] handed to the worker pool: routes a
/// result to the owning reactor's completion queue, tagged with the
/// connection token so late completions for a closed connection are
/// dropped instead of misrouted.
struct ConnSink {
    token: u64,
    reactor: Arc<ReactorShared>,
}

impl ReplySink for ConnSink {
    fn complete(&self, tag: u64, result: Result<Vec<u8>>) {
        self.reactor.push_completion(Completion { token: self.token, corr_id: tag, result });
    }
}

/// The coalescing write side of a connection: encoded frames queue in
/// pooled buffers and flush as one vectored write per readiness cycle.
struct OutQueue {
    bufs: VecDeque<Vec<u8>>,
    /// Bytes of `bufs[0]` already written.
    front_off: usize,
    pool: Vec<Vec<u8>>,
}

impl OutQueue {
    fn new() -> OutQueue {
        OutQueue { bufs: VecDeque::new(), front_off: 0, pool: Vec::new() }
    }

    fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Encode one frame into a pooled buffer and cork it.
    fn push_frame(&mut self, kind: FrameKind, corr_id: u64, payload: &[u8]) {
        let mut buf = self.pool.pop().unwrap_or_default();
        frame::encode_frame_into(&mut buf, kind, corr_id, payload);
        self.bufs.push_back(buf);
    }

    /// Flush as much as the socket accepts, gathering up to [`MAX_IOV`]
    /// corked frames per `writev(2)`. `Ok(true)` = fully drained,
    /// `Ok(false)` = EAGAIN with bytes still pending (wait for
    /// EPOLLOUT), `Err` = the connection is dead.
    fn flush(&mut self, fd: i32) -> io::Result<bool> {
        while !self.bufs.is_empty() {
            let mut iov: Vec<sys::IoVec> = Vec::with_capacity(self.bufs.len().min(MAX_IOV));
            for (i, buf) in self.bufs.iter().take(MAX_IOV).enumerate() {
                let skip = if i == 0 { self.front_off } else { 0 };
                iov.push(sys::IoVec {
                    base: buf[skip..].as_ptr(),
                    len: buf.len() - skip,
                });
            }
            match sys::writev_fd(fd, &iov) {
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Retire `n` written bytes, recycling fully-written buffers.
    fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let remaining = self.bufs[0].len() - self.front_off;
            if n >= remaining {
                let mut buf = self.bufs.pop_front().unwrap();
                self.front_off = 0;
                n -= remaining;
                if self.pool.len() < POOL_BUFS && buf.capacity() <= POOL_BUF_CAP {
                    buf.clear();
                    self.pool.push(buf);
                }
            } else {
                self.front_off += n;
                n = 0;
            }
        }
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: OutQueue,
    sink: Arc<dyn ReplySink>,
    /// Requests handed to the worker pool whose completions have not
    /// come back yet. Inline executions never count: their response is
    /// corked synchronously.
    in_flight: usize,
    /// No more requests will be decoded (EOF, protocol error, or
    /// graceful drain). The connection closes once `in_flight` reaches
    /// zero and the out queue is flushed.
    read_closed: bool,
}

impl Conn {
    fn fd(&self) -> i32 {
        self.stream.as_raw_fd()
    }

    fn finished(&self) -> bool {
        self.read_closed && self.in_flight == 0 && self.out.is_empty()
    }
}

/// Handle owned by `NetServer`: wakes and joins the reactor pool.
pub(crate) struct ReactorHandle {
    shared: Vec<Arc<ReactorShared>>,
    threads: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Wake every reactor (they observe the shutdown flag) and join.
    pub(crate) fn shutdown(&mut self) {
        for s in &self.shared {
            s.wake();
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// Start `config.reactor_threads` event loops; reactor 0 owns the
/// listener and deals accepted sockets round-robin across the pool.
pub(crate) fn start(
    listener: TcpListener,
    submitter: RawSubmitter,
    shutdown: Arc<AtomicBool>,
    config: NetServerConfig,
) -> Result<ReactorHandle> {
    let threads_n = config.reactor_threads.max(1);
    let mut shared = Vec::with_capacity(threads_n);
    for _ in 0..threads_n {
        let wake_fd = sys::eventfd_create()
            .map_err(|e| SnbError::Io(format!("eventfd: {e}")))?;
        shared.push(Arc::new(ReactorShared {
            wake_fd,
            completions: Mutex::new(Vec::new()),
            inbox: Mutex::new(Vec::new()),
        }));
    }
    let active = Arc::new(AtomicUsize::new(0));
    // Build every reactor — each owning an epoll fd — BEFORE spawning
    // any thread: once an event loop runs, a mid-loop setup failure
    // would leave it accepting connections behind a reported startup
    // error (a phantom server plus a thread/fd leak). With all fallible
    // setup done first, spawning cannot fail partway.
    let mut listener = Some(listener);
    let mut reactors: Vec<Reactor> = Vec::with_capacity(threads_n);
    for i in 0..threads_n {
        let epfd = match sys::epoll_create() {
            Ok(fd) => fd,
            Err(e) => {
                for r in reactors.drain(..) {
                    sys::close_fd(r.epfd);
                }
                return Err(SnbError::Io(format!("epoll_create1: {e}")));
            }
        };
        reactors.push(Reactor {
            epfd,
            shared: Arc::clone(&shared[i]),
            peers: shared.clone(),
            next_peer: 0,
            // Reactor 0 owns the listening socket itself.
            listener: if i == 0 { listener.take() } else { None },
            submitter: submitter.clone(),
            shutdown: Arc::clone(&shutdown),
            active: Arc::clone(&active),
            max_connections: config.max_connections,
            conns: FastMap::default(),
            next_token: TOKEN_CONN0,
            draining: false,
            drain_deadline: None,
            read_grace_until: None,
        });
    }
    let threads = reactors
        .into_iter()
        .map(|reactor| std::thread::spawn(move || reactor.run()))
        .collect();
    Ok(ReactorHandle { shared, threads })
}

struct Reactor {
    epfd: i32,
    shared: Arc<ReactorShared>,
    /// Every reactor in the pool (self included), for round-robin
    /// connection dealing by the acceptor.
    peers: Vec<Arc<ReactorShared>>,
    next_peer: usize,
    listener: Option<TcpListener>,
    submitter: RawSubmitter,
    shutdown: Arc<AtomicBool>,
    /// Live connections across the whole pool (the connection limit is
    /// global, like the thread-per-connection server's).
    active: Arc<AtomicUsize>,
    max_connections: usize,
    conns: FastMap<u64, Conn>,
    next_token: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
    /// While draining and `Instant::now()` is before this, connections
    /// keep reading (late-delivered requests are still served); once it
    /// passes, a final read pass runs and reads close for good.
    read_grace_until: Option<Instant>,
}

impl Reactor {
    fn run(mut self) {
        if sys::epoll_add(self.epfd, self.shared.wake_fd, sys::EPOLLIN | sys::EPOLLET, TOKEN_WAKE)
            .is_err()
        {
            sys::close_fd(self.epfd);
            return;
        }
        if let Some(l) = &self.listener {
            if sys::epoll_add(self.epfd, l.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER).is_err() {
                sys::close_fd(self.epfd);
                return;
            }
        }
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
        loop {
            let timeout_ms = if self.draining { 10 } else { 100 };
            let ready = match sys::epoll_wait_events(self.epfd, &mut events, timeout_ms) {
                Ok(ready) => ready.to_vec(),
                Err(_) => break,
            };
            for ev in &ready {
                match ev.data {
                    TOKEN_WAKE => sys::eventfd_drain(self.shared.wake_fd),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_event(token, ev.events),
                }
            }
            self.register_inbox();
            self.apply_completions();
            if !self.draining && self.shutdown.load(Ordering::Relaxed) {
                self.begin_drain();
            }
            if self.read_grace_until.is_some_and(|g| Instant::now() >= g) {
                self.end_read_grace();
            }
            self.reap_finished();
            if self.draining {
                let expired = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
                if self.conns.is_empty() || expired {
                    break;
                }
            }
        }
        // Force-close stragglers (past the drain deadline).
        for (_, conn) in self.conns.drain() {
            sys::epoll_del(self.epfd, conn.stream.as_raw_fd());
            self.active.fetch_sub(1, Ordering::Relaxed);
        }
        sys::close_fd(self.epfd);
    }

    /// Accept everything the backlog holds (the listener registration
    /// is level-triggered, so leftovers re-arm the next wait anyway).
    fn accept_ready(&mut self) {
        let Some(listener) = &self.listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // Global limit, same typed rejection as the
                    // threaded model.
                    if self.active.load(Ordering::Relaxed) >= self.max_connections {
                        reject_connection(stream);
                        continue;
                    }
                    self.active.fetch_add(1, Ordering::Relaxed);
                    let peer = self.next_peer % self.peers.len();
                    self.next_peer = self.next_peer.wrapping_add(1);
                    self.peers[peer].inbox.lock().push(stream);
                    self.peers[peer].wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Register connections dealt to this reactor.
    fn register_inbox(&mut self) {
        let inbox = std::mem::take(&mut *self.shared.inbox.lock());
        for stream in inbox {
            if self.draining {
                // Too late to serve — but never silently: a typed
                // corr-0 error frame (like the over-limit path) lets
                // the client fail fast instead of hanging until its
                // request timeout. The stream is still blocking here
                // (nonblocking is set only on registration below).
                reject_connection_with(
                    stream,
                    &SnbError::Backend("server is shutting down".into()),
                );
                self.active.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                self.active.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
            if sys::epoll_add(self.epfd, stream.as_raw_fd(), interest, token).is_err() {
                self.active.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let sink: Arc<dyn ReplySink> =
                Arc::new(ConnSink { token, reactor: Arc::clone(&self.shared) });
            self.conns.insert(
                token,
                Conn {
                    stream,
                    decoder: FrameDecoder::new(),
                    out: OutQueue::new(),
                    sink,
                    in_flight: 0,
                    read_closed: false,
                },
            );
            // Data may already be buffered; don't wait for the first
            // edge to serve it.
            self.conn_event(token, sys::EPOLLIN);
        }
    }

    fn conn_event(&mut self, token: u64, events: u32) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if events & (sys::EPOLLHUP | sys::EPOLLERR) != 0 {
            Self::close_conn(self.epfd, &self.active, &mut self.conns, token);
            return;
        }
        let mut dead = false;
        if events & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && !conn.read_closed {
            dead = drain_read(conn, &self.submitter);
        }
        if !dead && events & sys::EPOLLOUT != 0 && !conn.out.is_empty() {
            dead = conn.out.flush(conn.fd()).is_err();
        }
        if dead {
            Self::close_conn(self.epfd, &self.active, &mut self.conns, token);
        }
    }

    /// Cork every completed response into its connection's out queue,
    /// then flush each touched connection once — the reply-coalescing
    /// path: many results, one `writev` per connection per cycle.
    fn apply_completions(&mut self) {
        let completions = std::mem::take(&mut *self.shared.completions.lock());
        if completions.is_empty() {
            return;
        }
        let mut touched: Vec<u64> = Vec::with_capacity(completions.len());
        for c in completions {
            // Late completion for a closed connection: drop it (the
            // threaded model's writer does the same when the client is
            // gone).
            let Some(conn) = self.conns.get_mut(&c.token) else { continue };
            conn.in_flight = conn.in_flight.saturating_sub(1);
            match c.result {
                Ok(payload) => conn.out.push_frame(FrameKind::Response, c.corr_id, &payload),
                Err(e) => {
                    conn.out.push_frame(FrameKind::Error, c.corr_id, &wire::encode_error(&e))
                }
            }
            if touched.last() != Some(&c.token) {
                touched.push(c.token);
            }
        }
        touched.dedup();
        for token in touched {
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            if conn.out.flush(conn.fd()).is_err() {
                Self::close_conn(self.epfd, &self.active, &mut self.conns, token);
            }
        }
    }

    /// Graceful drain: stop accepting, drain every connection's
    /// buffered reads immediately, then keep serving reads for a short
    /// grace window ([`DRAIN_READ_GRACE`]) so requests written just
    /// before shutdown — but still in flight through the network stack
    /// — are answered rather than dropped. After the grace a final read
    /// pass runs, reads close, and the loop waits for in-flight
    /// responses to flush (bounded by [`DRAIN_TIMEOUT`]).
    fn begin_drain(&mut self) {
        self.draining = true;
        let now = Instant::now();
        self.drain_deadline = Some(now + DRAIN_TIMEOUT);
        self.read_grace_until = Some(now + DRAIN_READ_GRACE);
        if let Some(l) = self.listener.take() {
            sys::epoll_del(self.epfd, l.as_raw_fd());
        }
        self.drain_all_reads();
    }

    /// The read-grace window is over: one last read pass, then no more
    /// requests are decoded on any connection.
    fn end_read_grace(&mut self) {
        self.read_grace_until = None;
        self.drain_all_reads();
        for conn in self.conns.values_mut() {
            conn.read_closed = true;
        }
    }

    /// One read drain over every connection (everything the kernel has
    /// buffered gets decoded and submitted).
    fn drain_all_reads(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            let dead = if conn.read_closed { false } else { drain_read(conn, &self.submitter) };
            if dead {
                Self::close_conn(self.epfd, &self.active, &mut self.conns, token);
            }
        }
    }

    fn reap_finished(&mut self) {
        let done: Vec<u64> =
            self.conns.iter().filter(|(_, c)| c.finished()).map(|(t, _)| *t).collect();
        for token in done {
            Self::close_conn(self.epfd, &self.active, &mut self.conns, token);
        }
    }

    fn close_conn(
        epfd: i32,
        active: &AtomicUsize,
        conns: &mut FastMap<u64, Conn>,
        token: u64,
    ) {
        if let Some(conn) = conns.remove(&token) {
            sys::epoll_del(epfd, conn.stream.as_raw_fd());
            active.fetch_sub(1, Ordering::Relaxed);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Edge-triggered read drain: read until EAGAIN (or EOF), decoding and
/// dispatching every complete frame per pass. Returns `true` when the
/// connection must be closed immediately (transport error).
fn drain_read(conn: &mut Conn, submitter: &RawSubmitter) -> bool {
    let fd = conn.fd();
    loop {
        let spare = conn.decoder.spare_mut(READ_CHUNK);
        match sys::read_fd(fd, spare) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.decoder.commit(n);
                dispatch_frames(conn, submitter);
                if conn.read_closed {
                    // Protocol error mid-buffer: stop reading, let the
                    // fatal frame flush.
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    if !conn.out.is_empty() {
        return conn.out.flush(fd).is_err();
    }
    false
}

/// Decode every complete frame in the connection's arena and dispatch:
/// bounded-cost requests execute inline while a worker permit is free;
/// the rest take the worker pool via the connection's [`ReplySink`].
/// Queue overflow answers the request with a typed `Overloaded` frame,
/// never by dropping the connection — identical to the threaded model.
fn dispatch_frames(conn: &mut Conn, submitter: &RawSubmitter) {
    loop {
        match conn.decoder.next_event() {
            Ok(Some(FrameEvent::Frame(f))) if f.kind == FrameKind::Request => {
                match submitter.try_execute_inline(&f.payload) {
                    Some(Ok(payload)) => {
                        conn.out.push_frame(FrameKind::Response, f.corr_id, &payload);
                    }
                    Some(Err(e)) => {
                        conn.out.push_frame(FrameKind::Error, f.corr_id, &wire::encode_error(&e));
                    }
                    None => {
                        conn.in_flight += 1;
                        if let Err(e) = submitter.submit_sink(f.corr_id, f.payload, &conn.sink) {
                            // Typed backpressure (Overloaded / Backend)
                            // answers the request itself.
                            conn.in_flight -= 1;
                            conn.out.push_frame(
                                FrameKind::Error,
                                f.corr_id,
                                &wire::encode_error(&e),
                            );
                        }
                    }
                }
            }
            Ok(Some(FrameEvent::Frame(f))) => {
                let e = SnbError::Codec("client may only send Request frames".into());
                conn.out.push_frame(FrameKind::Error, f.corr_id, &wire::encode_error(&e));
            }
            Ok(Some(FrameEvent::UnknownKind { tag, corr_id })) => {
                // A fully delimited frame of a kind this server doesn't
                // know: answer it and keep decoding — a newer client
                // must get a typed error, not a dropped socket.
                let e = SnbError::Codec(format!("unsupported frame kind {tag}"));
                conn.out.push_frame(FrameKind::Error, corr_id, &wire::encode_error(&e));
            }
            Ok(None) => break,
            Err(e) => {
                // Framing is broken — no resync possible. Tell the
                // client (connection-fatal, correlation id 0) and stop
                // reading; the connection closes once in-flight
                // responses have flushed.
                conn.out.push_frame(FrameKind::Error, 0, &wire::encode_error(&e));
                conn.read_closed = true;
                break;
            }
        }
    }
}
