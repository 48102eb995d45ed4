//! A Gremlin-like traversal language, bulk-synchronous executor, and
//! Gremlin Server analogue.
//!
//! TinkerPop's promise is writing one traversal that runs on any
//! compliant store; its price — the paper's central finding — is that a
//! complex graph operation decomposes into **many small requests**
//! against the structure API, forfeiting whole-query optimization. Both
//! halves are reproduced here:
//!
//! * [`Traversal`] is a serializable step list (`V`, `out`, `both`,
//!   `has`, `values`, `dedup`, `repeat`/`until`, `addV`, ...) built with
//!   a fluent API, executed by [`exec::execute`] against *any*
//!   [`snb_core::GraphBackend`]. The executor advances the whole
//!   frontier one step at a time with TinkerPop-style bulking; on
//!   backends without a CSR snapshot every expansion still decomposes
//!   into individual structure-API calls, exactly like the Gremlin VM.
//!   Shortest paths can only be expressed as `repeat(both().simplePath())
//!   .until(hasId(target))` — an exponential path search, which is why
//!   the Gremlin columns of Tables 2/3 blow up on that query.
//! * [`server::GremlinServer`] is the out-of-process layer: requests are
//!   serialized to a compact binary wire format ([`wire`], playing the
//!   role of GraphBinary), pass through a bounded queue into a fixed
//!   worker pool, and responses are serialized back. Under many concurrent
//!   complex traversals the queue fills and requests fail with
//!   [`snb_core::SnbError::Overloaded`] — the paper's observed hangs and
//!   crashes, surfaced as backpressure errors.

pub mod exec;
pub mod server;
pub mod traversal;
pub mod wire;

pub use exec::{
    execute, execute_capped, execute_with, repeat_heads_expanded, repeat_paths_created, ExecConfig,
    TRAVERSER_BUDGET,
};
pub use server::{
    default_workers, GremlinClient, GremlinServer, RawSubmitter, ReplySink, ServerConfig,
    TraversalEndpoint, INLINE_TRAVERSER_CAP,
};
pub use traversal::{fuse_groups, FuseGroup, Predicate, Step, Traversal};
