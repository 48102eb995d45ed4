//! `snb-net`: the real socket layer in front of the Gremlin Server
//! analogue — the client/server split the paper's Figure 1 architecture
//! (and the LDBC driver spec) require, so that driver-side and
//! server-side latency can be attributed separately.
//!
//! Three pieces:
//!
//! * [`frame`] — the framed RPC protocol: magic/version header, a `u64`
//!   correlation id so one connection pipelines many in-flight
//!   requests, a length prefix bounded by [`frame::MAX_PAYLOAD`], and an
//!   FNV-1a payload checksum. Payloads are the existing
//!   [`snb_gremlin::wire`] encodings (traversal, values, typed error).
//! * [`server`] — [`NetServer`]: two selectable I/O models over one
//!   execution layer. [`server::IoModel::Threaded`] is a
//!   `std::net::TcpListener` acceptor (no async runtime; plain threads)
//!   with a per-connection reader/writer pair;
//!   [`server::IoModel::Reactor`] is a fixed pool of epoll event loops
//!   (edge-triggered batched reads, coalesced `writev` responses,
//!   pooled buffers, bounded-cost inline execution). Both dispatch into
//!   the [`snb_gremlin::GremlinServer`] worker pool via
//!   [`snb_gremlin::RawSubmitter`]; queue overflow and
//!   oversized/broken frames come back as typed error frames, and
//!   shutdown drains in-flight requests before the worker pool stops.
//! * [`client`] — [`NetPool`]: a connection pool with connect/request
//!   timeouts and capped-exponential jittered backoff retry on
//!   *transport* failures only (never on query errors). Single
//!   round trips via [`NetPool::submit`]; pipelined batches —
//!   N requests in one syscall, tagged replies gathered as they
//!   stream back — via [`NetPool::submit_batch`]. Implements
//!   [`snb_gremlin::TraversalEndpoint`], so the driver's Gremlin
//!   adapters run unchanged over the socket.

pub mod client;
pub mod frame;
#[cfg(target_os = "linux")]
mod reactor;
pub mod server;
mod sys;

pub use client::{ClientConfig, NetPool};
pub use frame::{Frame, FrameEvent, FrameKind};
pub use server::{default_reactor_threads, IoModel, NetServer, NetServerConfig};
