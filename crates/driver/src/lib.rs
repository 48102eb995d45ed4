//! The LDBC SNB interactive workload driver and benchmarking
//! architecture (the paper's Figure 1).
//!
//! Pieces, mapped to the paper:
//!
//! * [`ops`] — the operation set: the four read-only micro query classes
//!   of Tables 2/3, the LDBC short reads (IS1–IS7), the 2-hop complex
//!   read used in §4.3's reduced mix, plus parameter generation.
//! * [`adapter`] — the `SutAdapter` trait and one adapter per system
//!   configuration in the study: Neo4j-like native store via Cypher and
//!   via Gremlin, Titan-like KV graph over both backends via Gremlin,
//!   Sqlg (Gremlin over the relational row store), Postgres-like SQL,
//!   Virtuoso-like SQL (column store + TRANSITIVE), and Virtuoso-like
//!   SPARQL (triple store).
//! * [`sqlg`] — the Sqlg analogue: a `GraphBackend` whose every call is
//!   translated into SQL text against the relational engine.
//! * [`scheduler`] — LDBC dependency tracking: an update may only run
//!   once everything at or before its dependency timestamp is applied.
//! * [`micro`] — the latency runner behind Tables 2 and 3.
//! * [`complex`] — the IC-style complex reads served from a pinned CSR
//!   snapshot, with naive oracles for the equivalence tests.
//! * [`ingest`] — parallel, dependency-aware application of the update
//!   stream: a partitioned topic, a consumer-group applier pool, and
//!   batched engine writes.
//! * [`interactive`] — the Kafka-fed real-time workload behind Figure 3:
//!   an applier pool consuming the partitioned update topic, N
//!   concurrent closed-loop readers.
//! * [`loading`] — the bulk-load runner behind Table 4 and the
//!   concurrent-loader scaling experiment of Appendix A.

pub mod adapter;
pub mod complex;
pub mod ingest;
pub mod interactive;
pub mod loading;
pub mod micro;
pub mod ops;
pub mod scheduler;
pub mod sqlg;

pub use adapter::{build_all_adapters, OpResult, SutAdapter, SutKind};
pub use complex::{
    foaf_posts, mutual_friends, naive_foaf_posts, naive_mutual_friends, recent_messages,
};
pub use ingest::{run_ingest, run_ingest_iter, IngestConfig, IngestReport};
pub use ops::{ParamGen, ReadOp};
