//! # gamma — batch-dynamic subgraph matching on a simulated GPU
//!
//! Façade crate for the GAMMA reproduction (*GPU-Accelerated Batch-Dynamic
//! Subgraph Matching*, ICDE 2024). It re-exports the workspace crates under
//! one roof so examples and downstream users can depend on a single crate:
//!
//! * [`graph`] — labeled graphs, query graphs, updates, oracle enumeration.
//! * [`gpma`] — the packed-memory-array dynamic edge store.
//! * [`gpu`] — the deterministic SIMT execution simulator.
//! * [`engine`] — the GAMMA engine itself (preprocess → update → WBM kernel
//!   → postprocess), work stealing and coalesced search included, plus the
//!   multi-device sharded engine (hash/range partitioning, cross-shard
//!   embedding migration and inter-device work stealing) with deterministic
//!   fault injection and fail-stop shard failover (`engine::fault`).
//! * [`csm`] — CPU continuous-subgraph-matching baselines.
//! * [`datasets`] — synthetic datasets, query and update-stream generators.
//! * [`wal`] — durability primitives: write-ahead log, snapshots, and
//!   recorded benchmark traces (the crash-recoverable wrapper every
//!   engine view shares lives in `engine::durable`).
//!
//! ## Quickstart
//!
//! ```
//! use gamma::prelude::*;
//!
//! // Build the data graph of the paper's Figure 1 (labels A=0, B=1, C=2).
//! let mut g = DynamicGraph::new();
//! for &l in &[0, 0, 1, 1, 1, 1, 1, 2, 2, 2] {
//!     g.add_vertex(l);
//! }
//! for &(u, v) in &[(0, 3), (0, 4), (2, 3), (2, 4), (3, 7), (2, 8),
//!                  (1, 5), (1, 6), (5, 6), (5, 9), (4, 7)] {
//!     g.insert_edge(u, v, NO_ELABEL);
//! }
//!
//! // Query: A–B, A–B, B–B triangle with a C tail.
//! let mut b = QueryGraph::builder();
//! let (u0, u1, u2, u3) = (b.vertex(0), b.vertex(1), b.vertex(1), b.vertex(2));
//! b.edge(u0, u1).edge(u0, u2).edge(u1, u2).edge(u1, u3);
//! let q = b.build();
//!
//! // Run a batch through the GAMMA engine.
//! let mut engine = GammaEngine::new(g, &q, GammaConfig::default());
//! let result = engine.apply_batch(&[Update::insert(0, 2)]);
//! assert_eq!(result.positive_count, 4); // M1..M4 from the paper's Figure 1
//! ```

pub use gamma_core as engine;
pub use gamma_csm as csm;
pub use gamma_datasets as datasets;
pub use gamma_gpma as gpma;
pub use gamma_gpu as gpu;
pub use gamma_graph as graph;
pub use gamma_wal as wal;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use gamma_core::{
        BatchResult, DurabilityConfig, DurableGammaEngine, DurableQueryRegistry,
        DurableShardedEngine, FaultPlan, GammaConfig, GammaEngine, Partition, PartitionStrategy,
        PipelinedEngine, QueryConfig, QueryId, QueryRegistry, RegistryBatchResult, ShardStealing,
        ShardedConfig, ShardedEngine, StealingMode,
    };
    pub use gamma_csm::{CsmEngine, IncrementalResult};
    pub use gamma_datasets::{DatasetPreset, QueryClass};
    pub use gamma_gpu::DeviceConfig;
    pub use gamma_graph::{
        DynamicGraph, Op, QueryGraph, Update, UpdateBatch, VMatch, VertexId, NO_ELABEL,
    };
}
