//! The TCP face of the Gremlin Server analogue.
//!
//! Two I/O models serve the same execution layer (selected by
//! [`NetServerConfig::io_model`]):
//!
//! * [`IoModel::Threaded`] — one acceptor thread (readiness-waited
//!   accept via `poll(2)`) hands each connection to a reader thread; a
//!   paired writer thread owns the response channel. The reader decodes
//!   request frames and dispatches them into the existing
//!   [`GremlinServer`] worker pool through its [`RawSubmitter`] — it
//!   never executes traversals itself, so a slow query on one
//!   connection cannot stall frame decoding on another, and responses
//!   stream back in completion order tagged with the request's
//!   correlation id (pipelining).
//! * [`IoModel::Reactor`] — a fixed pool of epoll event loops
//!   (see [`crate::reactor`]): edge-triggered reads that decode every
//!   pipelined frame per syscall, coalesced `writev` responses, pooled
//!   per-connection buffers, and inline execution of bounded-cost
//!   requests. Linux-only; requesting it elsewhere falls back to the
//!   threaded model.
//!
//! Backpressure is typed, not silent, under both models: when the
//! worker queue is full the client receives an Error frame carrying
//! `SnbError::Overloaded` for that request; when the connection limit
//! is hit the client receives a connection-fatal Error frame
//! (correlation id 0) before the socket is closed. Graceful shutdown
//! stops accepting, lets readers finish the frame in progress, and
//! keeps each connection alive until every in-flight request has
//! produced its response frame.

use crossbeam::channel::{unbounded, Receiver, Sender};
use snb_core::{Result, SnbError};
use snb_gremlin::wire;
use snb_gremlin::{GremlinServer, RawSubmitter};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::frame::{self, Frame, FrameEvent, FrameKind};

/// Which I/O machinery serves the sockets. Execution semantics
/// (worker pool, bounded queue, `Overloaded`, graceful drain,
/// correlation ids) are identical under both — only syscall and thread
/// structure differ, which is exactly what the benchmark compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoModel {
    /// Two threads per connection (reader + writer), one blocking
    /// syscall per frame.
    Threaded,
    /// A fixed pool of epoll event loops: edge-triggered batched reads,
    /// coalesced vectored writes, pooled buffers, inline execution of
    /// bounded-cost requests. Linux-only; silently degrades to
    /// [`IoModel::Threaded`] elsewhere.
    Reactor,
}

impl IoModel {
    /// The preferred model for this platform.
    pub fn default_for_platform() -> IoModel {
        if cfg!(target_os = "linux") {
            IoModel::Reactor
        } else {
            IoModel::Threaded
        }
    }
}

/// Transport tuning knobs.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub bind_addr: String,
    /// Connections beyond this are rejected with a typed error frame.
    pub max_connections: usize,
    /// How long the acceptor (threaded model) waits for listener
    /// readiness before re-checking the shutdown flag.
    pub poll_interval: Duration,
    /// Which I/O machinery to use.
    pub io_model: IoModel,
    /// Event-loop threads for [`IoModel::Reactor`] (clamped to ≥ 1).
    /// The loops only do I/O, frame codec work, and bounded-cost inline
    /// execution, so a small number covers many connections. Defaults
    /// to [`default_reactor_threads`].
    pub reactor_threads: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            poll_interval: Duration::from_millis(25),
            io_model: IoModel::default_for_platform(),
            reactor_threads: default_reactor_threads(),
        }
    }
}

/// Default reactor-pool size: track the machine like the Gremlin worker
/// pool does, but capped — event loops only do I/O, codec work, and
/// bounded inline execution, so past a handful they just contend on the
/// accept path — and clamped to at least one so a 1-core box (or a box
/// where `available_parallelism` errors) still serves.
pub fn default_reactor_threads() -> usize {
    clamp_reactor_threads(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Ceiling on the derived reactor-pool default.
const MAX_DEFAULT_REACTOR_THREADS: usize = 8;

fn clamp_reactor_threads(n: usize) -> usize {
    n.clamp(1, MAX_DEFAULT_REACTOR_THREADS)
}

impl NetServerConfig {
    /// This config with the given I/O model (builder-style, for tests
    /// and benchmarks that sweep both).
    pub fn with_io_model(mut self, io_model: IoModel) -> Self {
        self.io_model = io_model;
        self
    }
}

/// The TCP server. Dropping it (or calling [`NetServer::shutdown`])
/// stops the acceptor, drains in-flight requests, and only then tears
/// down the owned [`GremlinServer`].
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    transport: Transport,
    /// Kept alive until the transport has fully drained: the field is
    /// declared after the transport but dropped explicitly in
    /// [`NetServer::shutdown`] after the transport has stopped.
    gremlin: Option<GremlinServer>,
    /// The model actually serving (after platform fallback).
    io_model: IoModel,
}

/// The running I/O machinery behind a [`NetServer`].
enum Transport {
    Threaded(Option<JoinHandle<()>>),
    #[cfg(target_os = "linux")]
    Reactor(crate::reactor::ReactorHandle),
    /// Already shut down.
    Stopped,
}

impl NetServer {
    /// Bind and start serving the given Gremlin worker pool.
    pub fn start(gremlin: GremlinServer, config: NetServerConfig) -> Result<NetServer> {
        let listener = TcpListener::bind(&config.bind_addr)
            .map_err(|e| SnbError::Io(format!("bind {}: {e}", config.bind_addr)))?;
        let local_addr =
            listener.local_addr().map_err(|e| SnbError::Io(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| SnbError::Io(format!("set_nonblocking: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let submitter = gremlin.raw_submitter();
        let io_model = match config.io_model {
            IoModel::Reactor if cfg!(target_os = "linux") => IoModel::Reactor,
            _ => IoModel::Threaded,
        };
        let transport = match io_model {
            #[cfg(target_os = "linux")]
            IoModel::Reactor => Transport::Reactor(crate::reactor::start(
                listener,
                submitter,
                Arc::clone(&shutdown),
                config.clone(),
            )?),
            _ => Transport::Threaded(Some({
                let shutdown = Arc::clone(&shutdown);
                let config = config.clone();
                std::thread::spawn(move || accept_loop(listener, submitter, shutdown, config))
            })),
        };
        Ok(NetServer { local_addr, shutdown, transport, gremlin: Some(gremlin), io_model })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The I/O model actually serving (after platform fallback).
    pub fn io_model(&self) -> IoModel {
        self.io_model
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests,
    /// then stop the worker pool. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        match std::mem::replace(&mut self.transport, Transport::Stopped) {
            Transport::Threaded(handle) => {
                if let Some(h) = handle {
                    let _ = h.join();
                }
            }
            #[cfg(target_os = "linux")]
            Transport::Reactor(mut handle) => handle.shutdown(),
            Transport::Stopped => {}
        }
        // Workers only stop after the transport has drained.
        self.gremlin.take();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn accept_loop(
    listener: TcpListener,
    submitter: RawSubmitter,
    shutdown: Arc<AtomicBool>,
    config: NetServerConfig,
) {
    let active = Arc::new(AtomicUsize::new(0));
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                handles.retain(|h| !h.is_finished());
                if active.load(Ordering::Relaxed) >= config.max_connections {
                    reject_connection(stream);
                    continue;
                }
                active.fetch_add(1, Ordering::Relaxed);
                let guard = ConnGuard(Arc::clone(&active));
                let submitter = submitter.clone();
                let shutdown = Arc::clone(&shutdown);
                let poll = config.poll_interval;
                handles.push(std::thread::spawn(move || {
                    let _guard = guard;
                    handle_connection(stream, submitter, shutdown, poll);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Readiness wait instead of a sleep-poll: wakes the
                // moment a connection arrives, re-checks the shutdown
                // flag on timeout.
                wait_accept_ready(&listener, config.poll_interval);
            }
            Err(_) => break,
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

#[cfg(unix)]
fn wait_accept_ready(listener: &TcpListener, poll_interval: Duration) {
    use std::os::unix::io::AsRawFd;
    let timeout_ms = poll_interval.as_millis().min(i32::MAX as u128) as i32;
    let _ = crate::sys::wait_readable(listener.as_raw_fd(), timeout_ms);
}

#[cfg(not(unix))]
fn wait_accept_ready(_listener: &TcpListener, poll_interval: Duration) {
    std::thread::sleep(poll_interval.min(Duration::from_millis(2)));
}

/// Over-limit connections get a connection-fatal typed error frame
/// (correlation id 0) instead of a silent close.
pub(crate) fn reject_connection(stream: TcpStream) {
    reject_connection_with(stream, &SnbError::Overloaded("connection limit reached".into()));
}

/// Write a connection-fatal error frame (correlation id 0) and drop the
/// socket: the client surfaces the typed error immediately instead of
/// hanging until its request timeout.
pub(crate) fn reject_connection_with(mut stream: TcpStream, err: &SnbError) {
    let f = Frame { kind: FrameKind::Error, corr_id: 0, payload: wire::encode_error(err) };
    let _ = frame::write_frame(&mut stream, &f);
    let _ = stream.flush();
}

fn handle_connection(
    mut stream: TcpStream,
    submitter: RawSubmitter,
    shutdown: Arc<AtomicBool>,
    poll_interval: Duration,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(poll_interval)).is_err() {
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // Results flow worker → writer on this channel; the reader holds one
    // sender, every queued request holds another (inside the worker
    // pool), so the writer's drain loop ends exactly when the reader has
    // stopped AND the last in-flight request has answered.
    let (results_tx, results_rx): (
        Sender<(u64, Result<Vec<u8>>)>,
        Receiver<(u64, Result<Vec<u8>>)>,
    ) = unbounded();
    let writer = std::thread::spawn(move || writer_loop(write_half, results_rx));

    let stop = || shutdown.load(Ordering::Relaxed);
    loop {
        match frame::read_event_interruptible(&mut stream, &stop) {
            Ok(None) => break, // clean EOF or shutdown
            Ok(Some(FrameEvent::Frame(f))) if f.kind == FrameKind::Request => {
                if let Err(e) = submitter.submit_raw(f.corr_id, f.payload, &results_tx) {
                    // Typed backpressure: Overloaded (queue full) or
                    // Backend (pool gone) answers the request instead of
                    // killing the connection.
                    let _ = results_tx.send((f.corr_id, Err(e)));
                }
            }
            Ok(Some(FrameEvent::Frame(f))) => {
                let e = SnbError::Codec("client may only send Request frames".into());
                let _ = results_tx.send((f.corr_id, Err(e)));
            }
            Ok(Some(FrameEvent::UnknownKind { tag, corr_id })) => {
                // A future frame kind from a newer client: the frame is
                // fully delimited and consumed, so answer it and keep
                // serving this connection.
                let e = SnbError::Codec(format!("unsupported frame kind {tag}"));
                let _ = results_tx.send((corr_id, Err(e)));
            }
            Err(SnbError::Codec(m)) => {
                // Framing is broken — no way to resync; tell the client
                // (connection-fatal, correlation id 0) and hang up.
                let _ = results_tx.send((0, Err(SnbError::Codec(m))));
                break;
            }
            Err(_) => break, // transport error
        }
    }
    drop(results_tx);
    let _ = writer.join(); // drains every in-flight response
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reactor_threads_track_available_parallelism_clamped() {
        // Regression for the hard-coded `reactor_threads: 2`: the
        // default must be derived from the machine (mirroring what the
        // Gremlin worker pool did for `workers`), capped so a huge box
        // doesn't spawn useless event loops, and floored at one so a
        // 1-core box (or an `available_parallelism` error, modelled by
        // the 0 input) still serves.
        assert_eq!(clamp_reactor_threads(0), 1);
        assert_eq!(clamp_reactor_threads(1), 1);
        assert_eq!(clamp_reactor_threads(4), 4);
        assert_eq!(clamp_reactor_threads(MAX_DEFAULT_REACTOR_THREADS), MAX_DEFAULT_REACTOR_THREADS);
        assert_eq!(clamp_reactor_threads(64), MAX_DEFAULT_REACTOR_THREADS);
        assert_eq!(clamp_reactor_threads(usize::MAX), MAX_DEFAULT_REACTOR_THREADS);
        let expect = clamp_reactor_threads(
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        );
        assert_eq!(default_reactor_threads(), expect);
        assert_eq!(NetServerConfig::default().reactor_threads, expect);
        assert!(NetServerConfig::default().reactor_threads >= 1);
    }
}

fn writer_loop(mut stream: TcpStream, results_rx: Receiver<(u64, Result<Vec<u8>>)>) {
    while let Ok((corr_id, result)) = results_rx.recv() {
        let f = match result {
            Ok(payload) => Frame { kind: FrameKind::Response, corr_id, payload },
            Err(e) => Frame { kind: FrameKind::Error, corr_id, payload: wire::encode_error(&e) },
        };
        if frame::write_frame(&mut stream, &f).is_err() {
            // Client is gone; keep draining so workers never block on a
            // full channel (it is unbounded, but exiting early would
            // just drop results on the floor anyway).
            break;
        }
    }
}
