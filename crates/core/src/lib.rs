//! Core types shared by every engine and harness in the benchmark suite.
//!
//! This crate defines the property-graph data model of the LDBC Social
//! Network Benchmark (vertex/edge labels, property keys, values, global
//! vertex identifiers), the [`backend::GraphBackend`] trait — a
//! TinkerPop-structure-like API implemented by every store that can be
//! driven through the Gremlin layer — and the measurement utilities
//! (latency recorders, throughput series, text tables) used by the
//! experiment harness.

pub mod backend;
pub mod error;
pub mod fxhash;
pub mod graph;
pub mod ids;
pub mod metrics;
pub mod schema;
pub mod snapshot;
pub mod topk;
pub mod value;

pub use backend::{GraphBackend, GraphWrite};
pub use error::{Result, SnbError};
pub use fxhash::{FastMap, FastSet, FxBuildHasher};
pub use graph::{Direction, PropertyMap};
pub use ids::{EdgeLabel, VertexLabel, Vid};
pub use schema::PropKey;
pub use snapshot::{CsrBuilder, CsrSnapshot, EpochCell, SnapshotCache};
pub use topk::top_k_by;
pub use value::Value;
