//! The GAMMA engine for one `(G, Q)` pair, and the configuration and
//! result types every engine shares.
//!
//! [`GammaEngine`] runs the four-component pipeline of Figure 3 per batch:
//! (1) **Preprocess** — canonicalize the update stream, and after the
//! structural update re-encode only dirty vertices and refresh their
//! candidate-table rows (host work, overlappable with device compute);
//! (2) **Update** — apply the batch to the GPMA device store, collecting
//! simulated update cycles (Figure 12); (3) **BDSM kernel** — the
//! warp-centric WBM search, run once over deletion anchors against the
//! pre-update graph (negative matches) and once over insertion anchors
//! against the post-update graph (positive matches); (4) **Postprocess** —
//! gather matches and statistics.
//!
//! The pipeline itself lives in
//! [`QueryRegistry::apply_canonical_batch`]: a `GammaEngine` is a view
//! that holds a single-device registry with exactly one registration and
//! reports that registration's delta as a [`BatchResult`].

use std::time::Duration;

use gamma_gpma::{Gpma, GpmaConfig};
use gamma_gpu::{DeviceConfig, KernelStats};
use gamma_graph::{DynamicGraph, QueryGraph, Update, UpdateBatch, VLabel, VMatch, VertexId};

use crate::durable::DurableView;
use crate::registry::{QueryConfig, QueryId, QueryRegistry};
use crate::wbm::QueryMeta;

/// Work-stealing strategy selector (re-export of the simulator's).
pub type StealingMode = gamma_gpu::Stealing;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct GammaConfig {
    /// Simulated device configuration (SMs, warps/block, stealing, costs).
    pub device: DeviceConfig,
    /// Enable coalesced search (§V-B).
    pub coalesced_search: bool,
    /// Max vertices removed when hunting k-degenerated automorphic
    /// subgraphs. A single-device setting: the shard executor caps its
    /// plans at whole-query (k = 0) classes (see
    /// [`ShardedConfig::base`](crate::ShardedConfig::base)).
    pub max_degenerate_k: usize,
    /// NLF counter width `M` (Figure 4 uses 2).
    pub counter_bits: u32,
    /// Materialize matches (`false` = count only; benchmarking mode).
    pub collect_matches: bool,
    /// Per-batch kernel timeout; exceeded batches are flagged
    /// [`BatchStats::timed_out`] ("unsolved" in the paper's metrics).
    /// The batch's deadline is fixed when it starts; every kernel task
    /// reads the clock on its first step and every
    /// [`DEADLINE_POLL_STEPS`](crate::wbm::DEADLINE_POLL_STEPS) steps
    /// after, and once the deadline has passed the kernels abort. A
    /// timeout too large to add to the clock (`Duration::MAX`) is no
    /// deadline, the same as `None`. In a [`QueryRegistry`] on one device
    /// the abort stops every group of the phase, which is one launch call
    /// for all of them, so a timed-out batch's `timed_out` marks every
    /// delta of the batch as partial.
    pub timeout: Option<Duration>,
    /// Abort a phase after this many matches (guards runaway tree
    /// queries). The limit counts one launch's matches, and a launch is
    /// one pattern's, however many subscriptions share it. The abort it
    /// raises is the batch's: in
    /// a [`QueryRegistry`] on one device it stops every group of the
    /// phase and the phases after it, and `timed_out` marks every delta
    /// of the batch as partial. On the shard executor a unit run ahead
    /// raises it once its own count passes the limit, and the scheduler
    /// once the count it has committed does; the phase then stops at the
    /// next unit boundary, in commit order, keeping the matches of the
    /// units committed before it.
    pub match_limit: u64,
    /// Bitmap quick-reject in front of the kernel's chunked backward-edge
    /// intersection (low-degree runs only). Exact either way — results are
    /// bit-identical — so this is an ablation/parity toggle, on by default.
    pub bitmap_intersect: bool,
    /// GPMA store configuration.
    pub gpma: GpmaConfig,
}

impl Default for GammaConfig {
    fn default() -> Self {
        Self {
            device: DeviceConfig::default(),
            coalesced_search: true,
            max_degenerate_k: 2,
            counter_bits: 2,
            collect_matches: true,
            timeout: None,
            match_limit: u64::MAX,
            bitmap_intersect: true,
            gpma: GpmaConfig::default(),
        }
    }
}

/// Per-batch statistics.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Host-side preprocessing wall time (canonicalization, re-encoding,
    /// candidate refresh).
    pub preprocess_seconds: f64,
    /// Simulated cycles of the GPMA structural update.
    pub update_cycles: u64,
    /// Merged kernel statistics (negative + positive phases).
    pub kernel: KernelStats,
    /// Vertices whose encoding actually changed this batch.
    pub dirty_vertices: usize,
    /// Whether the kernel hit the timeout or match limit.
    pub timed_out: bool,
    /// Net updates processed (after canonicalization).
    pub net_updates: usize,
}

impl BatchStats {
    /// Total simulated device seconds (update + kernel) at `clock_ghz`.
    pub fn device_seconds(&self, clock_ghz: f64) -> f64 {
        (self.update_cycles + self.kernel.device_cycles) as f64 / (clock_ghz * 1e9)
    }
}

/// Result of one batch.
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// Positive incremental matches (present in `G'`, absent in `G`).
    pub positive: Vec<VMatch>,
    /// Negative incremental matches (present in `G`, absent in `G'`).
    pub negative: Vec<VMatch>,
    /// Positive count (maintained even when collection is off).
    pub positive_count: u64,
    /// Negative count.
    pub negative_count: u64,
    /// Statistics.
    pub stats: BatchStats,
}

/// The batch-dynamic subgraph matching engine for one `(G, Q)` pair: a
/// view of a single-device [`QueryRegistry`] that holds exactly one
/// registration.
pub struct GammaEngine {
    registry: QueryRegistry,
}

impl GammaEngine {
    /// Builds the engine: encodes every data vertex, derives the candidate
    /// table, computes per-edge matching orders and the coalesced-search
    /// plan, and bulk-loads the GPMA device store.
    pub fn new(graph: DynamicGraph, query: &QueryGraph, config: GammaConfig) -> Self {
        Self::from_registry(QueryRegistry::new(graph, config), query)
    }

    /// Rebuilds an engine from recovered state: the host graph mirror and
    /// the restored GPMA device store (see `gamma_gpma::Gpma::from_snapshot_bytes`).
    ///
    /// The encoder, candidate table and kernel metadata are pure functions
    /// of `(graph, query, config)` — the incremental re-encoding path
    /// maintains exactly the state a fresh build derives — so they are
    /// rebuilt rather than persisted. Only the GPMA (whose segment
    /// geometry is history-dependent) comes from the snapshot.
    pub fn restore(
        graph: DynamicGraph,
        query: &QueryGraph,
        config: GammaConfig,
        gpma: Gpma,
        batches_processed: u64,
    ) -> Self {
        Self::from_registry(
            QueryRegistry::restore(graph, config, gpma, batches_processed),
            query,
        )
    }

    /// Wraps a single-device registry with no registration yet as the
    /// engine for `query`.
    pub(crate) fn from_registry(mut registry: QueryRegistry, query: &QueryGraph) -> Self {
        registry.register(query, QueryConfig::default());
        Self { registry }
    }

    /// Read access to the GPMA device store (snapshot support).
    pub fn gpma(&self) -> &Gpma {
        self.registry.gpma()
    }

    /// Read access to the host mirror of the data graph.
    pub fn graph(&self) -> &DynamicGraph {
        self.registry.graph()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GammaConfig {
        self.registry.config()
    }

    /// The kernel metadata (seeds, coalesced plan) — useful for inspection.
    pub fn meta(&self) -> &QueryMeta {
        self.registry
            .meta(QueryId(0))
            .expect("an engine holds its one registration")
    }

    /// Adds a fresh vertex (vertex insertions are modeled as a vertex plus
    /// a collection of edge insertions, per §II-A).
    pub fn add_vertex(&mut self, label: VLabel) -> VertexId {
        self.registry.add_vertex(label)
    }

    /// Applies one update batch and returns the incremental matches
    /// (Problem Statement, §II-A). See the module docs for the pipeline.
    pub fn apply_batch(&mut self, raw: &[Update]) -> BatchResult {
        self.registry.apply_batch(raw).into_single()
    }

    /// Applies an already-canonicalized batch (the entry point the
    /// asynchronous pipeline uses after its preprocess stage canonicalized
    /// against a shadow mirror). The batch must be canonical with respect
    /// to this engine's current graph.
    pub fn apply_canonical_batch(&mut self, batch: &UpdateBatch) -> BatchResult {
        self.registry.apply_canonical_batch(batch).into_single()
    }

    /// Number of batches processed so far.
    pub fn batches_processed(&self) -> u64 {
        self.registry.batches_processed()
    }

    /// Simulated seconds for a cycle count under this engine's clock.
    pub fn seconds(&self, cycles: u64) -> f64 {
        self.registry.seconds(cycles)
    }
}

impl DurableView for GammaEngine {
    type Result = BatchResult;

    fn registry(&self) -> &QueryRegistry {
        &self.registry
    }

    fn apply(&mut self, raw: &[Update]) -> BatchResult {
        self.apply_batch(raw)
    }
}
