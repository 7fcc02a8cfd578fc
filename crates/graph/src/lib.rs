//! # gamma-graph
//!
//! Labeled-graph substrate for the GAMMA reproduction (ICDE 2024,
//! *GPU-Accelerated Batch-Dynamic Subgraph Matching*).
//!
//! This crate provides everything the matching layers sit on:
//!
//! * [`DynamicGraph`] — an undirected, vertex- and edge-labeled adjacency
//!   structure with sorted neighbor lists and O(log d) edge updates. This is
//!   the CPU-side "data graph" used by baselines, oracles and generators.
//! * [`QueryGraph`] — a small (≤ 16 vertex) pattern graph with adjacency
//!   bitmasks, neighbor-label-frequency signatures and edge lists.
//! * [`VMatch`] — a compact, copyable embedding record.
//! * [`Update`] / [`UpdateBatch`] — edge insertions/deletions and batch
//!   canonicalization (Definition 1 of the paper).
//! * [`iso`] — a from-scratch backtracking subgraph-isomorphism enumerator
//!   used as the ground-truth oracle, plus automorphism-group computation
//!   (the basis of GAMMA's *coalesced search*).
//! * [`kcore`] — k-core decomposition (used by the Figure-10 density
//!   experiment's update sampling).
//! * [`io`] — text serialization for graphs, queries and update streams.
//! * [`mod@metrics`] — degree/label/clustering statistics for dataset
//!   validation and experiment reports.

pub mod dynamic;
pub mod io;
pub mod iso;
pub mod kcore;
pub mod metrics;
pub mod query;
pub mod update;
pub mod vmatch;

pub use dynamic::DynamicGraph;
pub use iso::{automorphisms, count_matches, enumerate_matches, MatchSink};
pub use kcore::core_numbers;
pub use metrics::{metrics, GraphMetrics};
pub use query::{QEdge, QueryGraph, MAX_QUERY_VERTICES};
pub use update::{edge_key, split_edge_key, Op, Update, UpdateBatch};
pub use vmatch::VMatch;

/// Identifier of a data-graph vertex.
pub type VertexId = u32;
/// Vertex label.
pub type VLabel = u16;
/// Edge label. Unlabeled datasets use [`NO_ELABEL`] everywhere.
pub type ELabel = u16;
/// The edge label used by datasets without edge labels.
pub const NO_ELABEL: ELabel = 0;
