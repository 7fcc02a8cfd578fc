//! # gamma-core — the GAMMA batch-dynamic subgraph matching engine
//!
//! A faithful Rust reproduction of GAMMA (*GPU-Accelerated Batch-Dynamic
//! Subgraph Matching*, ICDE 2024) on the [`gamma_gpu`] SIMT simulator:
//!
//! * [`encoding`] — GSI-style NLF bit encoding with thermometer counters,
//!   candidate table, and dirty-vertex incremental maintenance (§IV-B).
//! * [`order`] — per-query-edge matching orders (§IV-C).
//! * [`auto`] — k-degenerated automorphic subgraphs, equivalent edge sets
//!   and permutations: the *coalesced search* plan (§V-B).
//! * [`wbm`] — Algorithm 1 as a warp task: DFS frames, `GenCandidates` via
//!   warp-cooperative intersections, the anchor-order dedup rule, splits
//!   for warp-level work stealing (§V-A), permuted-partial injection.
//! * [`bfs`] — the BFS-expansion comparison kernel behind Figure 5.
//! * [`registry`] — the one batch pipeline, and the standing-query
//!   serving tier on it: N registered patterns over one graph, with
//!   shared encoders per label-set class and one kernel launch per
//!   distinct pattern, run on one device or on the shard runtime.
//! * [`engine`] — the synchronous engine: a view of a registry with one
//!   registration, plus the shared configuration and result types.
//! * [`pipeline`] — the asynchronous pipelined variant of Figure 3
//!   (preprocessing of batch k+1 overlaps the device work of batch k).
//! * [`shard`] — the multi-device shard runtime and its one-query view,
//!   the sharded engine: hash/range/greedy vertex partitioning, per-shard
//!   resident sets over one shared GPMA store, and a barrier-free
//!   virtual-time runtime with inter-device batch stealing.
//! * [`comm`] — the inter-shard messaging fabric: double-buffered
//!   per-(src,dst) migrant batches with virtual-cycle ready stamps.
//! * [`durable`] — crash recovery: one wrapper, [`Durable`], that
//!   write-ahead logs every view's batches to one log and snapshots its
//!   registry atomically in one section layout, on either executor.
//! * [`fault`] — deterministic chaos: seeded virtual-time fault plans
//!   (shard fail-stop at a given phase/step; I/O faults at WAL byte
//!   offsets via [`gamma_wal::Failpoints`]) driving fail-stop shard
//!   failover with partition repair and work requeue.
//!
//! ## Example
//!
//! ```
//! use gamma_core::{GammaConfig, GammaEngine};
//! use gamma_graph::{DynamicGraph, QueryGraph, Update, NO_ELABEL};
//!
//! // Figure 1's data graph (labels A=0, B=1, C=2) ...
//! let mut g = DynamicGraph::new();
//! for &l in &[0, 0, 1, 1, 1, 1, 1, 2, 2, 2] {
//!     g.add_vertex(l);
//! }
//! for &(u, v) in &[(0, 3), (0, 4), (2, 3), (2, 4), (3, 7), (2, 8),
//!                  (1, 5), (1, 6), (5, 6), (5, 9), (4, 7)] {
//!     g.insert_edge(u, v, NO_ELABEL);
//! }
//! // ... and its query: an A-B-B triangle with a C tail.
//! let mut b = QueryGraph::builder();
//! let (u0, u1, u2, u3) = (b.vertex(0), b.vertex(1), b.vertex(1), b.vertex(2));
//! b.edge(u0, u1).edge(u0, u2).edge(u1, u2).edge(u1, u3);
//! let q = b.build();
//!
//! let mut engine = GammaEngine::new(g, &q, GammaConfig::default());
//! let result = engine.apply_batch(&[Update::insert(0, 2)]);
//! assert_eq!(result.positive_count, 4); // M1..M4 of Figure 1
//! ```

pub mod auto;
pub mod bfs;
pub mod comm;
pub mod durable;
pub mod encoding;
pub mod engine;
pub mod fault;
pub mod order;
pub mod pipeline;
pub mod registry;
pub mod shard;
pub mod wbm;

pub use auto::CoalescedPlan;
pub use bfs::{run_bfs_phase, BfsReport};
pub use comm::{Batch, CommFabric, CommStats, MIGRANT_BATCH};
pub use durable::{
    DurabilityConfig, Durable, DurableGammaEngine, DurableQueryRegistry, DurableShardedEngine,
    DurableView, RecoveryReport, RegistryRecoveryReport,
};
pub use encoding::{CandidateTable, EncodingScheme, IncrementalEncoder};
pub use engine::{BatchResult, BatchStats, GammaConfig, GammaEngine, StealingMode};
pub use fault::{FaultPlan, ShardFailStop};
pub use pipeline::{PipelineOutput, PipelinedEngine};
pub use registry::{
    QueryConfig, QueryDelta, QueryId, QueryRegistry, QueryStats, RegistryBatchResult,
};
pub use shard::{
    Partition, PartitionStrategy, ShardStats, ShardStealing, ShardedConfig, ShardedEngine,
    UNIT_SPLIT_BUDGET,
};
pub use wbm::{QueryMeta, SeedPlan, WbmTask};
