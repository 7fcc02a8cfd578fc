//! The multi-device shard executor: the data graph partitioned across N
//! simulated devices, driven by a barrier-free virtual-time runtime.
//!
//! The batch pipeline itself lives in [`crate::registry`]: a
//! [`QueryRegistry`] runs its launches either on one simulated device or
//! on this module's shard runtime, chosen by its constructor.
//! [`ShardedEngine`] is a one-registration view of a registry on the
//! shard runtime, and [`ShardedQueryRegistry`] serves K patterns over the
//! same one partition, resident sets and store.
//!
//! The paper's engine is single-GPU; this module scales it along the axis
//! the ROADMAP calls for — **sharding** — by generalizing the paper's
//! warp-level stealing one level up, to an inter-device tier:
//!
//! * A [`Partition`] assigns every data vertex an **owner shard**: hash,
//!   range, or a greedy label-frequency-aware edge-cut partitioner
//!   ([`PartitionStrategy::Greedy`]) that streams vertices in BFS order
//!   and places each where its already-placed neighborhood is heaviest —
//!   rare-label edges (the selective ones every scan follows) weigh more,
//!   so the edges that matter most are the least likely to be cut.
//! * **Storage invariant** — a shard's GPMA holds the *complete* sorted
//!   neighbor run of every vertex in its **resident set**: the vertices it
//!   owns plus the replicated one-hop boundary frontier (every vertex
//!   adjacent to an owned vertex). Cross-shard edges therefore appear in
//!   both endpoint shards; the O(|V|) vertex metadata (NLF codes,
//!   candidate rows, degrees) is shared, while the O(|E|) edge store — the
//!   dominant term — is partitioned.
//! * **Owner-compute rule** — a DFS generates the candidates of a level by
//!   scanning the run of one matched *base* vertex. When every backward
//!   vertex is resident, verification probes *their* runs with monotone
//!   merge cursors (the single-device kernel's exact shape — signatures,
//!   incident-range dedup, chunked masks); otherwise the probe direction
//!   flips onto each candidate's own run, which the owner's boundary
//!   replication guarantees complete. When a partial embedding's next base
//!   is owned elsewhere, the DFS state **migrates**.
//! * **Batched, barrier-free migration** — migrants are not shipped one at
//!   a time and there are no BSP round barriers. Producers append partial
//!   embeddings into per-(src,dst) double-buffered batches
//!   ([`crate::comm::CommFabric`]) which are published wholesale (at
//!   capacity, or when the producer runs out of local work) and drained by
//!   the owner *mid-phase*. Each batch carries a virtual-cycle `ready`
//!   stamp — max producer completion + [`CostModel::migrant_ship`] — so
//!   causality is priced, not barriered.
//! * **Deterministic virtual-time executor** — the phase is driven by a
//!   discrete-event scheduler over per-shard lane clocks (one lane per
//!   simulated resident warp). At every step the (shard, action) with the
//!   earliest virtual start time runs: execute a local unit, drain the
//!   inbox, or steal a published-but-undrained batch
//!   ([`ShardStealing::Active`]) whose items are residency-eligible on the
//!   thief. All decisions read virtual state only, so sim-cycle accounting
//!   is **bit-reproducible run to run** (the replay gate covers SHARD
//!   cells at 0% tolerance) — and the phase ends at quiescence: every
//!   local queue empty and nothing in flight in the fabric.
//! * **Host work on both launch threads** — a unit's outcome (its cycles,
//!   counter deltas, matches and the migrants it ships, in order) depends
//!   only on the unit and the shard that runs it: within a phase a unit
//!   reads fixed state and scratch it clears first. So before the first
//!   scheduling step every anchor unit runs ahead, as one job each, on the
//!   calling thread and the process-wide launch pool
//!   ([`gamma_gpu::run_jobs`]) that serves device launches; the scheduler,
//!   on the calling thread alone, commits each outcome when it reaches
//!   the unit, and runs migrant units inline. Lane stamps, the fabric,
//!   steals, the sink and every cycle counter see the sequence a
//!   one-thread run sees. A fail-stop discards the outcomes not yet
//!   committed, since it changes the partition and residency they read.
//!
//! Results are bit-identical to [`GammaEngine`](crate::GammaEngine):
//! candidate generation at any level reads complete local information
//! wherever it executes, and every filter (signature, chunked mask,
//! incident-range dedup) is exact — so the distributed DFS enumerates
//! exactly the single-device match set. `tests/differential.rs` replays
//! every workload through 1/2/4 shards under the same oracle.
//!
//! [`CostModel::migrant_ship`]: gamma_gpu::CostModel::migrant_ship
//! [`ShardedQueryRegistry`]: crate::registry::ShardedQueryRegistry

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gamma_gpma::{Gpma, RunCursor, CHUNK_WIDTH};
use gamma_gpu::{run_jobs, CostModel, DeviceConfig, Job, KernelStats, WarpCtx};
use gamma_graph::{
    DynamicGraph, ELabel, QueryGraph, Update, UpdateBatch, VLabel, VMatch, VertexId,
};

use crate::comm::{CommFabric, MIGRANT_BATCH};
use crate::durable::DurableView;
use crate::encoding::CandidateTable;
use crate::engine::{BatchResult, GammaConfig};
use crate::fault::FaultPlan;
use crate::registry::{QueryConfig, QueryId, QueryRegistry};
use crate::wbm::{poll_deadline, IncidentRange, Phase, QueryMeta, UpdateOrder};

/// Survivor chunks narrower than this are intersected candidate-by-
/// candidate (early-exit scalar probes) instead of mask-carrying chunked
/// merges — same threshold as the single-device kernel.
const SCALAR_CHUNK_MIN: usize = 8;

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

/// Vertex partitioning strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Multiplicative hash of the vertex id (uniform, placement-oblivious).
    #[default]
    Hash,
    /// Contiguous id blocks of `ceil(|V|/N)` (locality-preserving for
    /// generators that emit community-clustered ids).
    Range,
    /// Greedy label-frequency-aware edge-cut placement: stream vertices in
    /// BFS order and put each on the shard where its already-placed
    /// neighborhood carries the most weight, subject to a `ceil(|V|/N)`
    /// balance cap. Edge weight is `1 + scale/freq(label(u)) +
    /// scale/freq(label(v))`: rare-label edges — the selective ones the
    /// matching orders chase — are the costliest to cut. Requires the
    /// graph at build time ([`Partition::build`]).
    Greedy,
}

/// A static vertex → owner-shard assignment.
///
/// Hash/range assignments are pure functions of the id; the greedy
/// strategy materializes an explicit owner table (shared via `Arc`, so
/// clones are cheap). Late-added vertices (ids ≥ the build-time `|V|`)
/// still get a deterministic owner: table lookup first, hash of the id as
/// the fallback (range: the last shard absorbs the tail).
#[derive(Clone, Debug)]
pub struct Partition {
    strategy: PartitionStrategy,
    num_shards: u32,
    /// Range block width (unused for hash).
    block: u32,
    /// Explicit owner table (greedy; `None` for the pure-function
    /// strategies).
    owners: Option<Arc<Vec<u16>>>,
}

/// SplitMix64 finalizer — well-mixed, cheap, dependency-free.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The deterministic greedy streaming placement (LDG with a label-aware
/// edge weight). BFS order from the highest-degree unvisited seed keeps
/// the stream locality-coherent — each vertex arrives with most of its
/// neighborhood already placed, which is when the greedy score is
/// informative.
fn greedy_owners(graph: &DynamicGraph, num_shards: usize) -> Vec<u16> {
    let n = graph.num_vertices();
    let mut owners = vec![0u16; n];
    if n == 0 || num_shards == 1 {
        return owners;
    }
    // Label frequencies → per-edge weights. Integer arithmetic throughout
    // (scores must be platform-exact for the replay gate).
    let max_label = graph.labels().iter().copied().max().unwrap_or(0) as usize;
    let mut freq = vec![0u64; max_label + 1];
    for &l in graph.labels() {
        freq[l as usize] += 1;
    }
    let scale = n as u64;
    let weight = |u: VertexId, v: VertexId| -> u64 {
        1 + scale / freq[graph.label(u) as usize].max(1)
            + scale / freq[graph.label(v) as usize].max(1)
    };
    let cap = n.div_ceil(num_shards) as u64;
    let mut load = vec![0u64; num_shards];
    let mut gain = vec![0u64; num_shards];
    let mut placed = vec![false; n];
    let mut visited = vec![false; n];
    // Seeds by descending degree (tie: lowest id) — hubs first, so the
    // streams start where the placement decisions matter most.
    let mut seeds: Vec<VertexId> = (0..n as VertexId).collect();
    seeds.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    let mut queue = VecDeque::new();
    for &sv in &seeds {
        if visited[sv as usize] {
            continue;
        }
        visited[sv as usize] = true;
        queue.push_back(sv);
        while let Some(v) = queue.pop_front() {
            gain.iter_mut().for_each(|g| *g = 0);
            for &(w, _) in graph.neighbors(v) {
                if placed[w as usize] {
                    gain[owners[w as usize] as usize] += weight(v, w);
                }
            }
            // score = gain × remaining capacity: ties between equally
            // attractive shards break toward the emptier one, and a full
            // shard is ineligible. Σ caps ≥ |V| guarantees a slot.
            let mut best: Option<(u128, u64, usize)> = None;
            for (s, (&g, &l)) in gain.iter().zip(load.iter()).enumerate() {
                if l >= cap {
                    continue;
                }
                let score = g as u128 * (cap - l) as u128;
                let better = match best {
                    None => true,
                    Some((bs, bl, _)) => score > bs || (score == bs && l < bl),
                };
                if better {
                    best = Some((score, l, s));
                }
            }
            let s = best.expect("total capacity covers all vertices").2;
            owners[v as usize] = s as u16;
            placed[v as usize] = true;
            load[s] += 1;
            for &(w, _) in graph.neighbors(v) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    // Refinement sweeps: the stream above decides with only partial
    // knowledge (a vertex placed early saw few placed neighbors), so
    // revisit every vertex with the full placement in view and move it to
    // the shard holding the (weighted) majority of its neighborhood. The
    // stream fills every shard to the tight capacity, which would leave
    // refinement no slack to move through, so the sweeps run under the
    // mildly relaxed [`GREEDY_SLACK_NUM`]/[`GREEDY_SLACK_DEN`] capacity —
    // replication makes storage balance soft, and the cut is what the
    // migration volume actually pays for. Each strict move lowers the
    // weighted cut, so the sweeps are monotone; the pass bound keeps this
    // O(passes × E). Fixed iteration order + integer scores keep the
    // table replay-exact.
    let cap_refine = greedy_capacity(n, num_shards) as u64;
    for _pass in 0..8 {
        let mut moved = false;
        for v in 0..n as VertexId {
            gain.iter_mut().for_each(|g| *g = 0);
            for &(w, _) in graph.neighbors(v) {
                gain[owners[w as usize] as usize] += weight(v, w);
            }
            let cur = owners[v as usize] as usize;
            let (mut best_gain, mut best_shard) = (gain[cur], cur);
            for (s, &g) in gain.iter().enumerate() {
                if s != cur && load[s] < cap_refine && g > best_gain {
                    best_gain = g;
                    best_shard = s;
                }
            }
            if best_shard != cur {
                load[cur] -= 1;
                load[best_shard] += 1;
                owners[v as usize] = best_shard as u16;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    owners
}

/// Numerator/denominator of the greedy partitioner's balance slack: a
/// shard may own at most `ceil(n/S) × NUM / DEN` (+1 for rounding)
/// vertices after refinement.
const GREEDY_SLACK_NUM: u64 = 9;
const GREEDY_SLACK_DEN: u64 = 8;

/// The relaxed per-shard vertex capacity the greedy partitioner enforces.
pub fn greedy_capacity(num_vertices: usize, num_shards: usize) -> usize {
    let tight = num_vertices.div_ceil(num_shards.max(1)) as u64;
    (tight * GREEDY_SLACK_NUM / GREEDY_SLACK_DEN + 1) as usize
}

impl Partition {
    /// Builds the assignment for `num_vertices` ids over `num_shards` for
    /// the pure-function strategies. The greedy strategy needs the graph —
    /// use [`Partition::build`].
    pub fn new(strategy: PartitionStrategy, num_shards: usize, num_vertices: usize) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        assert!(
            strategy != PartitionStrategy::Greedy,
            "greedy partitioning needs the graph: use Partition::build"
        );
        let block = num_vertices.div_ceil(num_shards).max(1) as u32;
        Self {
            strategy,
            num_shards: num_shards as u32,
            block,
            owners: None,
        }
    }

    /// Builds the assignment from the graph itself (any strategy; the
    /// greedy partitioner runs its streaming placement here).
    pub fn build(strategy: PartitionStrategy, num_shards: usize, graph: &DynamicGraph) -> Self {
        match strategy {
            PartitionStrategy::Hash | PartitionStrategy::Range => {
                Self::new(strategy, num_shards, graph.num_vertices())
            }
            PartitionStrategy::Greedy => {
                assert!(
                    num_shards >= 1 && num_shards < u16::MAX as usize,
                    "greedy owner table stores shard ids as u16"
                );
                let block = graph.num_vertices().div_ceil(num_shards).max(1) as u32;
                Self {
                    strategy,
                    num_shards: num_shards as u32,
                    block,
                    owners: Some(Arc::new(greedy_owners(graph, num_shards))),
                }
            }
        }
    }

    /// Reassembles a partition from snapshotted parts (the durable layer's
    /// restore path; `owners` is empty for the pure-function strategies).
    pub fn from_parts(
        strategy: PartitionStrategy,
        num_shards: usize,
        block: u32,
        owners: Vec<u16>,
    ) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        Self {
            strategy,
            num_shards: num_shards as u32,
            block: block.max(1),
            owners: if owners.is_empty() {
                None
            } else {
                Some(Arc::new(owners))
            },
        }
    }

    /// Number of shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards as usize
    }

    /// The owner shard of vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        if let Some(table) = &self.owners {
            if let Some(&o) = table.get(v as usize) {
                return o as usize;
            }
        }
        match self.strategy {
            // Greedy falls back to hashing for vertices added after the
            // table was built — deterministic and balanced, like Hash.
            PartitionStrategy::Hash | PartitionStrategy::Greedy => {
                (splitmix64(v as u64) % self.num_shards as u64) as usize
            }
            PartitionStrategy::Range => ((v / self.block).min(self.num_shards - 1)) as usize,
        }
    }

    /// The strategy in use.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// Range block width (snapshot plumbing).
    pub fn block(&self) -> u32 {
        self.block
    }

    /// The explicit owner table, if this partition carries one.
    pub fn owners(&self) -> Option<&[u16]> {
        self.owners.as_deref().map(|v| v.as_slice())
    }

    /// Fraction of `graph`'s edges whose endpoints land on different
    /// shards — the cut-quality telemetry the perf suite reports per
    /// partitioner.
    pub fn cut_fraction(&self, graph: &DynamicGraph) -> f64 {
        let mut total = 0u64;
        let mut cut = 0u64;
        for (u, v, _) in graph.edges() {
            total += 1;
            if self.owner(u) != self.owner(v) {
                cut += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            cut as f64 / total as f64
        }
    }

    /// Owner of every vertex in `0..n` (testing / load-analysis aid).
    pub fn assignments(&self, n: usize) -> Vec<usize> {
        (0..n as VertexId).map(|v| self.owner(v)).collect()
    }

    /// Fail-stop partition repair: reassigns every vertex owned by
    /// `dead` to a surviving shard and returns the moves, in ascending
    /// vertex order.
    ///
    /// Placement is the greedy partitioner's refinement rule restricted
    /// to the orphans: each orphan goes where its (label-frequency-
    /// weighted) already-placed neighborhood is heaviest, scored by
    /// `gain × remaining capacity` under the relaxed
    /// [`greedy_capacity`] budget over the S−1 survivors — earlier
    /// reassignments are visible to later ones, so orphan clusters tend
    /// to land together. **Only orphans move**: survivor-owned vertices
    /// never change owner, which keeps the destination of every
    /// in-flight migrant batch valid. The repaired assignment is
    /// materialized as an explicit owner table (whatever the strategy),
    /// so it snapshots and restores through the durable layer like a
    /// greedy table. Deterministic: fixed iteration order, integer
    /// scores.
    pub fn repair_failover(
        &mut self,
        dead: usize,
        graph: &DynamicGraph,
        alive: &[bool],
    ) -> Vec<(VertexId, usize)> {
        let n = graph.num_vertices();
        let num_shards = self.num_shards as usize;
        assert!(dead < num_shards, "dead shard out of range");
        let num_alive = alive.iter().filter(|&&a| a).count();
        assert!(num_alive >= 1, "failover needs at least one survivor");
        let mut table: Vec<u16> = (0..n as VertexId).map(|v| self.owner(v) as u16).collect();
        let mut moved = Vec::new();
        if n > 0 {
            let max_label = graph.labels().iter().copied().max().unwrap_or(0) as usize;
            let mut freq = vec![0u64; max_label + 1];
            for &l in graph.labels() {
                freq[l as usize] += 1;
            }
            let scale = n as u64;
            let weight = |u: VertexId, v: VertexId| -> u64 {
                1 + scale / freq[graph.label(u) as usize].max(1)
                    + scale / freq[graph.label(v) as usize].max(1)
            };
            let cap = greedy_capacity(n, num_alive) as u64;
            let mut load = vec![0u64; num_shards];
            for &o in &table {
                load[o as usize] += 1;
            }
            let mut gain = vec![0u64; num_shards];
            for v in 0..n as VertexId {
                if table[v as usize] as usize != dead {
                    continue;
                }
                gain.iter_mut().for_each(|g| *g = 0);
                for &(w, _) in graph.neighbors(v) {
                    let o = table[w as usize] as usize;
                    if o != dead && alive.get(o).copied().unwrap_or(false) {
                        gain[o] += weight(v, w);
                    }
                }
                let mut best: Option<(u128, u64, usize)> = None;
                for s in 0..num_shards {
                    if s == dead || !alive[s] || load[s] >= cap {
                        continue;
                    }
                    let score = gain[s] as u128 * (cap - load[s]) as u128;
                    let better = match best {
                        None => true,
                        Some((bs, bl, _)) => score > bs || (score == bs && load[s] < bl),
                    };
                    if better {
                        best = Some((score, load[s], s));
                    }
                }
                // The relaxed capacity leaves (S−1)·cap ≥ n·9/8 > n slots,
                // so the fallback only triggers in degenerate tiny-graph
                // corners: place on the least-loaded survivor.
                let s = match best {
                    Some((_, _, s)) => s,
                    None => (0..num_shards)
                        .filter(|&s| s != dead && alive[s])
                        .min_by_key(|&s| (load[s], s))
                        .expect("at least one survivor"),
                };
                table[v as usize] = s as u16;
                load[s] += 1;
                moved.push((v, s));
            }
        }
        self.owners = Some(Arc::new(table));
        moved
    }
}

/// The owner shard of `v` among the live shards: the partition's owner
/// when it is alive, else the next alive shard in cyclic id order (a
/// deterministic rule every site computes identically). With all shards
/// alive this is exactly [`Partition::owner`] — the zero-fault path is
/// unchanged. Only late-added vertices can reach the cyclic fallback:
/// [`Partition::repair_failover`] materializes a full table, so every
/// vertex known at repair time maps to a survivor directly.
#[inline]
fn live_owner(partition: &Partition, alive: &[bool], v: VertexId) -> usize {
    let o = partition.owner(v);
    if alive.get(o).copied().unwrap_or(true) {
        return o;
    }
    let n = partition.num_shards();
    for d in 1..n {
        let s = (o + d) % n;
        if alive[s] {
            return s;
        }
    }
    o
}

// ---------------------------------------------------------------------------
// Configuration & stats
// ---------------------------------------------------------------------------

/// Inter-device work stealing strategy — the tier above the per-block
/// [`crate::StealingMode`] of the single-device engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ShardStealing {
    /// Migrants execute only on their owner shard.
    Off,
    /// Idle shards steal residency-eligible migrants from published-but-
    /// undrained batches of the most loaded inbox.
    #[default]
    Active,
}

/// Configuration of the sharded engine.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Per-shard engine configuration (device shape, counter bits, match
    /// collection, limits). `coalesced_search` is ignored: the sharded
    /// kernel always searches one seed per query edge, which produces the
    /// identical match set.
    pub base: GammaConfig,
    /// Number of simulated devices.
    pub num_shards: usize,
    /// Vertex partitioning strategy.
    pub strategy: PartitionStrategy,
    /// Inter-device stealing tier.
    pub stealing: ShardStealing,
    /// Deterministic runtime fault schedule (chaos testing). `None` —
    /// the default — injects nothing and leaves every phase byte-
    /// identical to a configuration without the fault subsystem.
    pub faults: Option<FaultPlan>,
    /// The raw [`QueryId`] of the single registration a [`ShardedEngine`]
    /// view holds, stamped on every migrant envelope its launches ship.
    /// [`ShardedQueryRegistry`](crate::registry::ShardedQueryRegistry)
    /// ignores it: its ids start at 0 and each launch is stamped with its
    /// group representative's id. Purely an envelope tag — it never
    /// influences routing, costs, or results — so standalone engines
    /// leave the default `0`.
    pub query_id: u64,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            base: GammaConfig::default(),
            num_shards: 2,
            strategy: PartitionStrategy::Hash,
            stealing: ShardStealing::Active,
            faults: None,
            query_id: 0,
        }
    }
}

/// Cumulative cross-shard statistics (over the engine's lifetime).
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Partial embeddings shipped toward another shard.
    pub migrations: u64,
    /// Migrants executed by a non-owner shard via batch stealing.
    pub shard_steals: u64,
    /// Sealed migrant batches published into destination queues.
    pub migrant_batches: u64,
    /// Batches drained by their owner.
    pub drains: u64,
    /// Peak number of published-but-undrained migrants at any single
    /// destination.
    pub inbox_high_water: u64,
    /// Kernel phases launched.
    pub phases: u64,
    /// Migrants shipped per (src, dst) pair, `src * num_shards + dst`.
    pub pair_migrants: Vec<u64>,
    /// Runtime faults actually applied from the configured
    /// [`FaultPlan`] (a scheduled fail-stop of an already-dead shard, or
    /// of the last survivor, is skipped and not counted).
    pub faults_injected: u64,
    /// Shard fail-stops that triggered partition repair and requeue.
    pub failovers: u64,
    /// Pending units (local queue entries plus in-flight fabric
    /// migrants) reassigned to survivors by failovers.
    pub requeued_units: u64,
}

// ---------------------------------------------------------------------------
// Shard state
// ---------------------------------------------------------------------------

/// One simulated device: its resident set. The physical edge store is
/// the registry's one store, shared by every shard: a resident vertex's
/// run is *complete* by the residency invariant, so every shard's replica
/// of it was bit-identical by construction and one copy serves them all —
/// exactly as it already does for the encoders and candidate tables. What
/// remains per shard is the logical state the simulation needs: which
/// runs this device holds (`resident`) and what its update/scan work
/// costs, charged from its resident sub-batch sizes.
struct Shard {
    /// Vertices whose neighbor run is complete on this shard's simulated
    /// device: owned ∪ one-hop boundary. Monotone — an edge deletion
    /// never evicts a replica (its run simply stays maintained).
    resident: Arc<Vec<bool>>,
}

/// One shard's slice of a batch's structural-update work: how many of
/// the batch's deletes/inserts touch its resident set, plus how many
/// pre-batch adjacency edges its newly-resident vertices materialize.
/// The simulated per-device update cost is the shard's proportional
/// share of the *measured* shared-store cycles — deterministic (pure
/// integer arithmetic on simulated counters), and exact for one shard,
/// where every share equals the whole batch.
struct UpdateShare {
    deletes: u64,
    inserts: u64,
    materialized: u64,
}

impl UpdateShare {
    /// Splits the measured store costs: `del_cycles` (over `k_del`
    /// deletes) and `ins_cycles` (over `k_ins` inserts) scale by this
    /// shard's share; materialized boundary edges are charged at the
    /// batch's average insert cost, matching how a private replica paid
    /// for them.
    fn cycles(&self, del_cycles: u64, k_del: u64, ins_cycles: u64, k_ins: u64) -> u64 {
        let mut c = 0u64;
        if k_del > 0 {
            c += (del_cycles as u128 * self.deletes as u128 / k_del as u128) as u64;
        }
        if k_ins > 0 {
            let ins_share = self.inserts + self.materialized;
            c += (ins_cycles as u128 * ins_share as u128 / k_ins as u128) as u64;
        }
        c
    }
}

impl Shard {
    /// Marks `v` resident, growing the flag vector as needed.
    fn mark_resident(&mut self, v: VertexId) {
        let flags = Arc::make_mut(&mut self.resident);
        let vi = v as usize;
        if vi >= flags.len() {
            flags.resize(vi + 1, false);
        }
        flags[vi] = true;
    }

    #[inline]
    fn is_resident(&self, v: VertexId) -> bool {
        self.resident.get(v as usize).copied().unwrap_or(false)
    }
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

/// A partial embedding in flight between shards: one DFS *subtree* — the
/// assignments below the pending scan of level `base_level`. The parent
/// enumeration stays on the sending shard (it advances to its next
/// candidate immediately), so a migration ships a single match record and
/// never a frame stack, and the two shards expand disjoint subtrees.
#[derive(Clone, Debug)]
pub(crate) struct Migrant {
    anchor: (VertexId, VertexId, ELabel),
    anchor_order: u32,
    seed: usize,
    base_level: usize,
    m: VMatch,
    /// Serving-tier envelope tag ([`ShardedConfig::query_id`]); carried
    /// so multi-registry deployments can route and audit in-flight
    /// partials per standing query.
    qid: u64,
}

impl Migrant {
    /// Whether batch-stealing may run this migrant on a thief with the
    /// given resident set: the base run must be locally complete, and the
    /// pending level must have no secondary backward edges (their
    /// verification reads candidate runs, which only the owner's boundary
    /// replication guarantees).
    fn steal_eligible(
        &self,
        meta: &QueryMeta,
        resident: &[bool],
        scratch: &mut Vec<(VertexId, ELabel)>,
    ) -> bool {
        backward_neighbors(meta, self.seed, self.base_level, &self.m, scratch);
        scratch.len() == 1
            && resident
                .get(scratch[0].0 as usize)
                .copied()
                .unwrap_or(false)
    }
}

/// The matched backward neighbors of `order[level]` under partial match
/// `m`: `(data vertex, required edge label)`, in query-adjacency order.
///
/// This is the **single definition** used both by the kernel's scans and
/// by [`Migrant::steal_eligible`] — the two must agree exactly, or a
/// thief could be licensed to run a scan whose actual reads touch a
/// non-resident (incomplete) run and silently drop matches.
fn backward_neighbors(
    meta: &QueryMeta,
    seed: usize,
    level: usize,
    m: &VMatch,
    out: &mut Vec<(VertexId, ELabel)>,
) {
    out.clear();
    let qv = meta.seeds[seed].order[level];
    for &(un, el) in meta.q.neighbors(qv) {
        if let Some(dv) = m.get(un) {
            out.push((dv, el));
        }
    }
}

/// The live shard a migrant must be (re)delivered to: the live owner of
/// its pending scan's base vertex, computed by the *same* base-selection
/// rule as [`UnitTask::scan_or_migrate`] — the two must agree exactly,
/// or a failover-requeued migrant would bounce between shards forever.
fn migrant_dest(
    meta: &QueryMeta,
    partition: &Partition,
    alive: &[bool],
    degrees: &[u32],
    mig: &Migrant,
    scratch: &mut Vec<(VertexId, ELabel)>,
) -> usize {
    backward_neighbors(meta, mig.seed, mig.base_level, &mig.m, scratch);
    let base = scratch
        .iter()
        .map(|&(dv, _)| dv)
        .min_by_key(|&dv| (degrees.get(dv as usize).copied().unwrap_or(0), dv))
        .expect("connected matching order");
    live_owner(partition, alive, base)
}

// ---------------------------------------------------------------------------
// The unit kernel (one anchor / one migrant, run to completion)
// ---------------------------------------------------------------------------

/// One DFS frame; the candidate at `p` is always assigned in `m` (unlike
/// the single-device kernel, top frames included — migration serializes
/// cleanly that way).
#[derive(Clone, Debug)]
struct SFrame {
    cands: Vec<VertexId>,
    p: usize,
    /// Count-only memo: the sorted candidate set of the **last** DFS level
    /// when it is independent of this frame's own assignment. Every
    /// sibling then resolves in one binary search — membership of the
    /// sibling's own vertex is the only per-sibling difference — in place
    /// of a full rescan of the base run.
    memo_last: Option<Vec<VertexId>>,
}

/// The running DFS of one seed.
#[derive(Clone, Debug)]
struct SDfs {
    seed: usize,
    base_level: usize,
    m: VMatch,
    frames: Vec<SFrame>,
    /// `true` → the next action is generating candidates for level
    /// `base_level + frames.len()`; `false` → advance the top frame.
    pending_scan: bool,
    /// The pending scan may run here regardless of ownership (set on
    /// migrant arrival; consumed by the first scan).
    authorized: bool,
}

/// What a scan decided to do with the state.
enum ScanOutcome {
    /// Keep driving this state locally.
    Continue(SDfs),
    /// DFS exhausted (any migrated subtrees continue elsewhere).
    Done,
}

/// Per-scan probe state for one resident backward vertex (the
/// single-device kernel's probe shape: monotone merge cursor + incident
/// dedup range + optional bitmap signature + cost accounting).
struct BackProbe {
    el: ELabel,
    cur: RunCursor,
    inc: IncidentRange,
    sig: Option<u64>,
    tested: u32,
    probed: u32,
    rem0: u32,
}

/// Reusable scratch shared by every unit a shard's context runs (the
/// task-local pools of the single-device kernel, hoisted to the phase).
#[derive(Default)]
struct UnitScratch {
    /// Recycled candidate buffers.
    pool: Vec<Vec<VertexId>>,
    /// Backward-neighbor scratch for the pending scan.
    backward: Vec<(VertexId, ELabel)>,
    /// Probe states for the resident-direction scan.
    probes: Vec<BackProbe>,
    /// Sorted secondary backward edges for the flipped-direction scan.
    flipped: Vec<(VertexId, ELabel)>,
    /// Gather buffer for the chunked combine pass.
    chunk: Vec<VertexId>,
}

/// What every unit of one kernel phase reads, owned so that a unit can
/// run on any launch-pool thread. Units never change it: only a fail-stop,
/// between two scheduling steps, refreshes its partition, alive mask and
/// resident sets.
struct PhaseEnv {
    partition: Partition,
    /// The shared physical store. A scan only ever reads runs of
    /// vertices resident on the scanning shard — complete runs, identical
    /// to what a private replica would hold.
    gpma: Arc<Gpma>,
    table: CandidateTable,
    meta: Arc<QueryMeta>,
    update_order: UpdateOrder,
    /// Shared true degrees — every site must pick the same base for an
    /// anchor or migrants would bounce.
    degrees: Arc<Vec<u32>>,
    /// Every shard's resident set, in shard order.
    residents: Vec<Arc<Vec<bool>>>,
    /// Live-shard mask — migration destinations are always computed
    /// among survivors (all-true with no faults, where `live_owner`
    /// degenerates to `Partition::owner`).
    alive: Vec<bool>,
    /// Whether scans read the per-vertex run signatures the shared store
    /// maintains (the bitmap prefilter; results identical either way).
    signatures: bool,
    /// The batch deadline, polled by every unit ([`poll_deadline`]).
    deadline: Option<Instant>,
    collect: bool,
    /// Envelope tag stamped on shipped migrants.
    query_id: u64,
    /// A unit whose own match count passes this raises `abort`.
    match_limit: u64,
    abort: Arc<AtomicBool>,
    cost: CostModel,
    warp_size: u32,
}

impl PhaseEnv {
    /// The run signatures scans read, or none.
    fn signatures(&self) -> &[u64] {
        if self.signatures {
            self.gpma.signatures()
        } else {
            &[]
        }
    }
}

/// What one unit did: its cycles, its counter deltas, its matches and
/// match count, and the migrants it ships, in order — `(owner shard,
/// migrant)`. The scheduler commits it when it reaches the unit.
#[derive(Default)]
struct UnitOut {
    cycles: u64,
    global_transactions: u64,
    shared_accesses: u64,
    buf_reuse: u64,
    buf_alloc: u64,
    matches: Vec<VMatch>,
    count: u64,
    migrants: Vec<(usize, Migrant)>,
}

thread_local! {
    /// Each thread's unit scratch, reused by every unit it runs, phase
    /// after phase.
    static SCRATCH: RefCell<UnitScratch> = RefCell::new(UnitScratch::default());
}

/// Runs one unit — an anchor's full seed sweep or an arrived migrant — to
/// completion on `shard` and returns its outcome.
///
/// The outcome depends only on the unit, the shard and `env`: the unit
/// starts from a fresh [`WarpCtx`] and its own match count, and clears
/// every scratch buffer before use. So a unit run ahead, on any thread,
/// has the outcome the scheduler would get running it inline. Only the
/// buffer-reuse counters see which thread's scratch it drew on.
fn run_unit(env: &PhaseEnv, shard: usize, work: UnitWork) -> UnitOut {
    let (v1, v2, elabel, anchor_order) = match &work {
        UnitWork::Anchor(a, order) => (a.u, a.v, a.label, *order),
        UnitWork::Mig(mig) => {
            debug_assert_eq!(
                mig.qid, env.query_id,
                "migrant envelope routed to a different standing query"
            );
            (mig.anchor.0, mig.anchor.1, mig.anchor.2, mig.anchor_order)
        }
    };
    SCRATCH.with_borrow_mut(|scratch| {
        let mut task = UnitTask {
            env,
            shard,
            resident: &env.residents[shard],
            ctx: WarpCtx::new(env.cost, env.warp_size),
            scratch,
            out: UnitOut::default(),
            v1,
            v2,
            elabel,
            anchor_order,
            steps: 0,
        };
        match work {
            UnitWork::Anchor(..) => task.run_anchor(),
            UnitWork::Mig(mig) => task.run_migrant(mig),
        }
        let ctx = &mut task.ctx;
        UnitOut {
            cycles: ctx.take_step_cycles(),
            global_transactions: ctx.global_transactions,
            shared_accesses: ctx.shared_accesses,
            buf_reuse: ctx.buf_reuse,
            buf_alloc: ctx.buf_alloc,
            ..task.out
        }
    })
}

/// One unit of shard work in flight, metered through its own
/// [`WarpCtx`].
struct UnitTask<'a> {
    env: &'a PhaseEnv,
    /// The shard running the unit.
    shard: usize,
    /// That shard's resident set.
    resident: &'a [bool],
    ctx: WarpCtx,
    scratch: &'a mut UnitScratch,
    out: UnitOut,
    v1: VertexId,
    v2: VertexId,
    elabel: ELabel,
    anchor_order: u32,
    /// DFS steps taken, for [`poll_deadline`]: one unit can run a whole
    /// subtree.
    steps: u32,
}

impl UnitTask<'_> {
    #[inline]
    fn is_resident(&self, v: VertexId) -> bool {
        self.resident.get(v as usize).copied().unwrap_or(false)
    }

    /// Draws a candidate buffer from the shared pool (warm-up allocates;
    /// steady state recycles), reporting which to the stats.
    fn take_buf(&mut self) -> Vec<VertexId> {
        match self.scratch.pool.pop() {
            Some(mut b) => {
                self.ctx.note_buffer(true);
                b.clear();
                b
            }
            None => {
                self.ctx.note_buffer(false);
                Vec::new()
            }
        }
    }

    /// Returns a candidate buffer to the pool.
    #[inline]
    fn recycle(&mut self, buf: Vec<VertexId>) {
        self.scratch.pool.push(buf);
    }

    fn note_matches(&mut self, n: u64) {
        self.out.count += n;
        if self.out.count > self.env.match_limit {
            self.env.abort.store(true, Ordering::Relaxed);
        }
    }

    fn emit(&mut self, m: VMatch) {
        self.note_matches(1);
        if self.env.collect {
            self.out.matches.push(m);
        }
    }

    /// Runs an anchor unit: every seed in both orientations, each driven
    /// to completion (migrating subtrees as it goes).
    fn run_anchor(&mut self) {
        let num_seeds = self.env.meta.seeds.len();
        for si in 0..num_seeds {
            for flipped in [false, true] {
                if self.env.abort.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(st) = self.start_seed(si, flipped) {
                    self.drive(st);
                }
            }
        }
    }

    /// Resumes an arrived migrant (first scan authorized: the fabric only
    /// delivers to the owner or to a residency-eligible thief).
    fn run_migrant(&mut self, mig: Migrant) {
        let st = SDfs {
            seed: mig.seed,
            base_level: mig.base_level,
            m: mig.m,
            frames: Vec::new(),
            pending_scan: true,
            authorized: true,
        };
        self.ctx.compute(2);
        self.drive(st);
    }

    fn drive(&mut self, mut st: SDfs) {
        loop {
            poll_deadline(self.env.deadline, &mut self.steps, &self.env.abort);
            if self.env.abort.load(Ordering::Relaxed) {
                // Return frame buffers so the pool survives aborts.
                for f in st.frames.drain(..) {
                    self.recycle(f.cands);
                    if let Some(s) = f.memo_last {
                        self.recycle(s);
                    }
                }
                return;
            }
            let outcome = if st.pending_scan {
                self.scan_or_migrate(st)
            } else {
                self.advance(st)
            };
            match outcome {
                ScanOutcome::Continue(next) => st = next,
                ScanOutcome::Done => return,
            }
        }
    }

    /// Seed validation, identical to the single-device kernel: edge label
    /// plus the candidate gate on both anchored vertices.
    fn start_seed(&mut self, si: usize, flipped: bool) -> Option<SDfs> {
        let env = self.env;
        let seed = &env.meta.seeds[si];
        let (x, y) = if flipped {
            (self.v2, self.v1)
        } else {
            (self.v1, self.v2)
        };
        self.ctx.compute(4);
        if seed.elabel != self.elabel {
            return None;
        }
        self.ctx.shared_access(2);
        if !env.table.is_candidate(x, seed.a) || !env.table.is_candidate(y, seed.b) {
            return None;
        }
        let mut m = VMatch::EMPTY;
        m.set(seed.a, x);
        m.set(seed.b, y);
        Some(SDfs {
            seed: si,
            base_level: 2,
            m,
            frames: Vec::new(),
            pending_scan: true,
            authorized: false,
        })
    }

    /// Runs the pending scan of `st` — migrating instead if the base
    /// vertex is owned elsewhere and the scan is not steal-authorized.
    fn scan_or_migrate(&mut self, mut st: SDfs) -> ScanOutcome {
        let env = self.env;
        let seed = &env.meta.seeds[st.seed];
        let n = seed.order.len();
        let level = st.base_level + st.frames.len();
        if level == n {
            // Degenerate 2-vertex query: the anchors are the whole match.
            self.emit(st.m);
            return ScanOutcome::Done;
        }
        let qv = seed.order[level];
        let mut backward = std::mem::take(&mut self.scratch.backward);
        backward_neighbors(&env.meta, st.seed, level, &st.m, &mut backward);
        // Base selection by *true* degree (site-consistent: every shard
        // computes the same base for the same partial, which the migration
        // protocol depends on).
        let base = backward
            .iter()
            .map(|&(dv, _)| dv)
            .min_by_key(|&dv| (env.degrees.get(dv as usize).copied().unwrap_or(0), dv))
            .expect("connected matching order");
        let owner = live_owner(&env.partition, &env.alive, base);
        // Locality fast-path: the resident-direction scan reads exactly
        // the runs of the backward vertices (base included), all of which
        // are complete on any shard where those vertices are resident —
        // owned or boundary replica alike. So whenever *every* backward
        // vertex is resident here the scan may run locally, and only
        // partials whose backward set genuinely escapes the local
        // replication frontier are shipped to the base's owner (who holds
        // one-hop replication around the base and runs the flipped probe).
        // This is the same soundness argument that licenses batch
        // stealing, and it is what makes the edge cut — not the raw
        // anchor placement — govern migration volume.
        let local_ok = owner == self.shard || backward.iter().all(|&(dv, _)| self.is_resident(dv));
        if !local_ok && !st.authorized {
            // Ship this subtree — just the partial match — toward the
            // owner (staged into the comm fabric's open batch; the
            // interconnect ship cost is charged per *batch* at publish),
            // then keep enumerating the parent's remaining candidates
            // locally: the two shards now expand disjoint subtrees.
            self.scratch.backward = backward;
            self.ctx
                .global_read_coalesced(env.meta.q.num_vertices() as u64);
            self.out.migrants.push((
                owner,
                Migrant {
                    anchor: (self.v1, self.v2, self.elabel),
                    anchor_order: self.anchor_order,
                    seed: st.seed,
                    base_level: level,
                    m: st.m,
                    qid: env.query_id,
                },
            ));
            st.pending_scan = false;
            return self.advance(st);
        }
        st.authorized = false;
        if level == n - 1 {
            // Last level: every scanned candidate is a complete match.
            if !env.collect {
                // Count-only fast paths (benchmarking mode): the memo
                // answers each sibling in one binary search when the last
                // level is independent of the parent's own assignment;
                // otherwise stream-count without materializing.
                let count = if let Some(parent_idx) = st.frames.len().checked_sub(1) {
                    let qv_parent = seed.order[level - 1];
                    let independent = !env
                        .meta
                        .q
                        .neighbors(qv)
                        .iter()
                        .any(|&(un, _)| un == qv_parent);
                    if independent {
                        if st.frames[parent_idx].memo_last.is_none() {
                            let c = st.m.get(qv_parent).expect("parent assigned");
                            st.m.unset(qv_parent);
                            let mut memo = self.take_buf();
                            // `independent` ⇒ the backward set (and hence
                            // base and residency) is the same with the
                            // parent unset, so the scan stays licensed.
                            self.scan_candidates(&st, base, &backward, |v| memo.push(v));
                            st.m.set(qv_parent, c);
                            st.frames[parent_idx].memo_last = Some(memo);
                        }
                        let c = st.m.get(qv_parent).expect("parent assigned");
                        let memo = st.frames[parent_idx]
                            .memo_last
                            .as_ref()
                            .expect("just filled");
                        // Binary probe of the memoized set parked in
                        // shared memory (like the C[l] arrays).
                        self.ctx.shared_access(
                            (64 - (memo.len() as u64).leading_zeros() as u64).max(1),
                        );
                        (memo.len() - usize::from(memo.binary_search(&c).is_ok())) as u64
                    } else {
                        let mut cnt = 0u64;
                        self.scan_candidates(&st, base, &backward, |_| cnt += 1);
                        cnt
                    }
                } else {
                    // Migrant resumption at the last level: no parent
                    // frame to memoize on.
                    let mut cnt = 0u64;
                    self.scan_candidates(&st, base, &backward, |_| cnt += 1);
                    cnt
                };
                self.ctx.compute(count);
                self.note_matches(count);
                self.scratch.backward = backward;
                st.pending_scan = false;
                return self.advance(st);
            }
            let mut found = self.take_buf();
            self.scan_candidates(&st, base, &backward, |c| found.push(c));
            self.scratch.backward = backward;
            self.ctx.compute(found.len() as u64);
            for &c in &found {
                let mut m = st.m;
                m.set(qv, c);
                self.emit(m);
            }
            self.recycle(found);
            st.pending_scan = false;
            return self.advance(st);
        }
        let mut cands = self.take_buf();
        self.scan_candidates(&st, base, &backward, |c| cands.push(c));
        self.scratch.backward = backward;
        if cands.is_empty() {
            self.recycle(cands);
            st.pending_scan = false;
            return self.advance(st);
        }
        st.m.set(qv, cands[0]);
        st.frames.push(SFrame {
            cands,
            p: 0,
            memo_last: None,
        });
        st.pending_scan = true;
        ScanOutcome::Continue(st)
    }

    /// Streams every valid candidate of `st`'s pending level into `sink`,
    /// in ascending vertex order. Two probe directions, both exact:
    ///
    /// * **Resident direction** (every backward vertex resident here —
    ///   vacuously true with no secondary edges): the single-device
    ///   kernel's exact shape. Base-run survivors of the cheap gates are
    ///   gathered into [`CHUNK_WIDTH`]-wide chunks and intersected against
    ///   each backward vertex's run with monotone merge cursors, a bitmap
    ///   signature quick-reject in front, and the incident-range dedup
    ///   rule.
    /// * **Flipped direction** (some backward vertex non-resident — only
    ///   the owner executes this, so every *candidate*, being a boundary
    ///   neighbor of the base, has a complete local run): each candidate's
    ///   own run is probed for all backward vertices in one
    ///   [`Gpma::run_seek_chunk`] pass, with a signature quick-reject on
    ///   the candidate's run.
    fn scan_candidates(
        &mut self,
        st: &SDfs,
        base: VertexId,
        backward: &[(VertexId, ELabel)],
        mut sink: impl FnMut(VertexId),
    ) {
        let env = self.env;
        let seed = &env.meta.seeds[st.seed];
        let level = st.base_level + st.frames.len();
        let qv = seed.order[level];
        let gpma: &Gpma = &env.gpma;
        let uo = &env.update_order;
        let table = &env.table;
        let sigs = env.signatures();
        let anchor_order = self.anchor_order;
        let base_el = backward
            .iter()
            .find(|&&(dv, _)| dv == base)
            .expect("base is backward")
            .1;
        let bdeg = gpma.degree(base) as u64;
        let bv_incident = uo.incident(base);
        // Directory fetch of the base run head, one warp-coalesced read of
        // the run, the candidate-table rows, and the per-vertex gates.
        self.ctx.dir_locate();
        self.ctx.global_read_coalesced(bdeg * 2);
        self.ctx.global_read_coalesced(bdeg);
        self.ctx.compute(bdeg);
        let m = &st.m;

        let all_resident = backward
            .iter()
            .all(|&(dv, _)| dv == base || self.is_resident(dv));
        if all_resident {
            // --- Resident direction (single-device shape) ---
            let mut others = std::mem::take(&mut self.scratch.probes);
            others.clear();
            for &(dv, el) in backward.iter().filter(|&&(dv, _)| dv != base) {
                let deg = gpma.degree(dv);
                others.push(BackProbe {
                    el,
                    cur: gpma.run_cursor(dv),
                    inc: uo.incident(dv),
                    // Only narrow runs keep their signature: past
                    // CHUNK_WIDTH neighbors the 64-bit map saturates.
                    sig: if deg <= CHUNK_WIDTH && !sigs.is_empty() {
                        Some(sigs[dv as usize])
                    } else {
                        None
                    },
                    tested: 0,
                    probed: 0,
                    rem0: deg as u32,
                });
            }
            let with_sig = others.iter().filter(|o| o.sig.is_some()).count();
            if with_sig > 0 {
                self.ctx.global_read_coalesced(with_sig as u64);
            }
            // Gather pass: stream the base run through the cheap gates.
            // With no other backward edges the survivors are final and
            // bypass the staging buffer entirely.
            let mut chunk = std::mem::take(&mut self.scratch.chunk);
            chunk.clear();
            let direct = others.is_empty();
            gpma.for_each_neighbor(base, |cand, el| {
                if el != base_el {
                    return;
                }
                if !table.is_candidate(cand, qv) {
                    return;
                }
                if m.uses(cand) {
                    return;
                }
                // Dedup rule for the base back-edge: almost every base has
                // no incident update edge, making this one length test.
                if !bv_incident.is_empty() {
                    if let Some(o) = uo.order_within(bv_incident, cand) {
                        if o < anchor_order {
                            return;
                        }
                    }
                }
                if direct {
                    sink(cand);
                } else {
                    chunk.push(cand);
                }
            });
            // Combine pass: chunked backward intersection with survivor
            // masks (scalar early-exit probes for narrow fronts).
            let mut targets = [0 as VertexId; CHUNK_WIDTH];
            let mut lane_of = [0u8; CHUNK_WIDTH];
            let mut labels = [0 as ELabel; CHUNK_WIDTH];
            for w in chunk.chunks(CHUNK_WIDTH) {
                if w.len() < SCALAR_CHUNK_MIN {
                    'cand: for &cand in w {
                        for o in others.iter_mut() {
                            if let Some(sig) = o.sig {
                                o.tested += 1;
                                if sig & (1u64 << (cand & 63)) == 0 {
                                    continue 'cand;
                                }
                            }
                            o.probed += 1;
                            match gpma.run_seek(&mut o.cur, cand) {
                                Some(l) if l == o.el => {}
                                _ => continue 'cand,
                            }
                            if !o.inc.is_empty()
                                && matches!(
                                    uo.order_within(o.inc, cand),
                                    Some(ord) if ord < anchor_order
                                )
                            {
                                continue 'cand;
                            }
                        }
                        sink(cand);
                    }
                    continue;
                }
                let mut mask: u64 = if w.len() == CHUNK_WIDTH {
                    u64::MAX
                } else {
                    (1u64 << w.len()) - 1
                };
                for o in others.iter_mut() {
                    if mask == 0 {
                        break;
                    }
                    if let Some(sig) = o.sig {
                        o.tested += mask.count_ones();
                        let mut pass = 0u64;
                        let mut mk = mask;
                        while mk != 0 {
                            let i = mk.trailing_zeros() as usize;
                            mk &= mk - 1;
                            if sig & (1u64 << (w[i] & 63)) != 0 {
                                pass |= 1u64 << i;
                            }
                        }
                        mask &= pass;
                        if mask == 0 {
                            continue;
                        }
                    }
                    let mut nt = 0usize;
                    let mut mk = mask;
                    while mk != 0 {
                        let i = mk.trailing_zeros() as usize;
                        mk &= mk - 1;
                        targets[nt] = w[i];
                        lane_of[nt] = i as u8;
                        nt += 1;
                    }
                    o.probed += nt as u32;
                    let found = gpma.run_seek_chunk(&mut o.cur, &targets[..nt], &mut labels);
                    let mut keep = 0u64;
                    for t in 0..nt {
                        if found & (1u64 << t) != 0 && labels[t] == o.el {
                            let dead = !o.inc.is_empty()
                                && matches!(
                                    uo.order_within(o.inc, targets[t]),
                                    Some(ord) if ord < anchor_order
                                );
                            if !dead {
                                keep |= 1u64 << lane_of[t];
                            }
                        }
                    }
                    mask &= keep;
                }
                self.ctx.compute(2);
                let mut mk = mask;
                while mk != 0 {
                    let i = mk.trailing_zeros() as usize;
                    mk &= mk - 1;
                    sink(w[i]);
                }
            }
            self.scratch.chunk = chunk;
            for o in others.iter() {
                if o.sig.is_some() {
                    self.ctx.bitmap_probe(o.tested as u64);
                }
                self.ctx
                    .chunked_intersect(o.probed as u64, (o.rem0 - o.cur.rem()) as u64);
            }
            self.scratch.probes = others;
            return;
        }

        // --- Flipped direction (owner-only; candidates' runs complete) ---
        let mut flipped = std::mem::take(&mut self.scratch.flipped);
        flipped.clear();
        flipped.extend(backward.iter().copied().filter(|&(dv, _)| dv != base));
        // Ascending targets: the candidate's run cursor merges monotonically.
        flipped.sort_unstable();
        let nt = flipped.len();
        debug_assert!((1..=CHUNK_WIDTH).contains(&nt));
        let mut targets = [0 as VertexId; CHUNK_WIDTH];
        let mut incs = [IncidentRange::default(); CHUNK_WIDTH];
        let mut req: u64 = 0;
        for (i, &(dv, _)) in flipped.iter().enumerate() {
            targets[i] = dv;
            incs[i] = uo.incident(dv);
            req |= 1u64 << (dv & 63);
        }
        let want: u64 = if nt == 64 { u64::MAX } else { (1u64 << nt) - 1 };
        let use_sig = !sigs.is_empty();
        let mut labels = [0 as ELabel; CHUNK_WIDTH];
        let mut tested = 0u64;
        let mut probed = 0u64;
        let mut covered = 0u64;
        gpma.for_each_neighbor(base, |cand, el| {
            if el != base_el {
                return;
            }
            if !table.is_candidate(cand, qv) {
                return;
            }
            if m.uses(cand) {
                return;
            }
            if !bv_incident.is_empty() {
                if let Some(o) = uo.order_within(bv_incident, cand) {
                    if o < anchor_order {
                        return;
                    }
                }
            }
            // Signature quick-reject on the *candidate's* run: a missing
            // required bit proves some backward vertex absent.
            if use_sig && gpma.degree(cand) <= CHUNK_WIDTH {
                tested += 1;
                if sigs[cand as usize] & req != req {
                    return;
                }
            }
            let mut cur = gpma.run_cursor(cand);
            let rem0 = cur.rem();
            let found = gpma.run_seek_chunk(&mut cur, &targets[..nt], &mut labels);
            probed += nt as u64;
            covered += (rem0 - cur.rem()) as u64;
            if found != want {
                return;
            }
            for (i, &(_, del)) in flipped.iter().enumerate() {
                if labels[i] != del {
                    return;
                }
                if !incs[i].is_empty()
                    && matches!(
                        uo.order_within(incs[i], cand),
                        Some(ord) if ord < anchor_order
                    )
                {
                    return;
                }
            }
            sink(cand);
        });
        if tested > 0 {
            self.ctx.bitmap_probe(tested);
        }
        self.ctx.chunked_intersect(probed, covered);
        self.scratch.flipped = flipped;
    }

    /// Moves the top frame to its next candidate (or pops exhausted
    /// frames). On success the state's next action is a scan again.
    fn advance(&mut self, mut st: SDfs) -> ScanOutcome {
        let env = self.env;
        let seed = &env.meta.seeds[st.seed];
        loop {
            if st.frames.is_empty() {
                return ScanOutcome::Done;
            }
            let level = st.base_level + st.frames.len() - 1;
            let top = st.frames.last_mut().expect("frames non-empty");
            let qv = seed.order[level];
            st.m.unset(qv);
            top.p += 1;
            if top.p < top.cands.len() {
                let c = top.cands[top.p];
                st.m.set(qv, c);
                st.pending_scan = true;
                return ScanOutcome::Continue(st);
            }
            if let Some(f) = st.frames.pop() {
                self.recycle(f.cands);
                if let Some(s) = f.memo_last {
                    self.recycle(s);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The virtual-time executor
// ---------------------------------------------------------------------------

/// Per-shard lane clocks: one virtual clock per simulated resident warp.
/// A unit runs on the earliest-free lane, starting no earlier than its
/// causal ready stamp.
#[derive(Clone)]
struct Lanes {
    /// Completion stamps as a min-heap (`Reverse` orders earliest-first).
    /// Lane *identity* never matters — only the multiset of stamps — so
    /// the heap is observationally identical to a linear scan while the
    /// executor queries it once or twice per unit.
    t: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    high: u64,
}

impl Lanes {
    fn new(n: usize) -> Self {
        Self {
            t: (0..n).map(|_| std::cmp::Reverse(0)).collect(),
            high: 0,
        }
    }

    /// The earliest time any lane can start new work.
    fn earliest(&self) -> u64 {
        self.t.peek().map(|r| r.0).unwrap_or(0)
    }

    /// The shard's makespan so far.
    fn makespan(&self) -> u64 {
        self.high
    }

    /// Schedules `cycles` of work that may not start before `ready` on the
    /// earliest-free lane; returns the completion stamp.
    fn run(&mut self, ready: u64, cycles: u64) -> u64 {
        let free = self.t.pop().map(|r| r.0).unwrap_or(0);
        let stamp = free.max(ready) + cycles;
        self.t.push(std::cmp::Reverse(stamp));
        self.high = self.high.max(stamp);
        stamp
    }
}

/// A schedulable unit: an anchor (with its batch order) or an arrived
/// migrant, available from virtual cycle `ready`.
struct Unit {
    ready: u64,
    work: UnitWork,
}

enum UnitWork {
    Anchor(Update, u32),
    Mig(Migrant),
}

/// The action the scheduler picked for a shard.
enum Action {
    /// Pop and run the front of the local unit queue.
    Run,
    /// Drain the oldest sealed inbox batch into the local queue.
    Drain,
    /// Steal the newest sealed batch from the given victim's inbox.
    Steal(usize),
}

// ---------------------------------------------------------------------------
// The shard executor
// ---------------------------------------------------------------------------

/// The shard executor of a registry: the vertex partition, every shard's
/// resident set, the shared degree vector, the live-shard mask and the
/// cumulative cross-shard statistics. The registry owns the graph mirror,
/// the one shared store, the encoders and the candidate tables, and lends
/// them to [`ShardRuntime::kernel_phase`] per launch — so every registered
/// pattern runs on the same partition and resident sets.
pub(crate) struct ShardRuntime {
    partition: Partition,
    shards: Vec<Shard>,
    /// Shared true-degree vector, maintained incrementally per batch
    /// (O(batch) updates, not O(V) rebuilds).
    degrees: Arc<Vec<u32>>,
    stats: ShardStats,
    stealing: ShardStealing,
    faults: Option<FaultPlan>,
    /// Live-shard mask: `alive[s]` is cleared when shard `s` fail-stops
    /// (from a configured [`FaultPlan`]) and never set again — fail-stop
    /// is permanent for the runtime's lifetime (rejoin/rebalance is a
    /// ROADMAP item). Not persisted: a recovered runtime restarts with
    /// every shard alive over the snapshotted (possibly repaired)
    /// partition.
    alive: Vec<bool>,
}

impl ShardRuntime {
    /// Builds every shard's resident set (owned ∪ one-hop boundary) under
    /// `partition`, plus the shared physical store over the full edge list
    /// — a resident vertex's run is complete, so every shard reads the
    /// same bytes a private replica would have held.
    pub(crate) fn build(
        graph: &DynamicGraph,
        config: &ShardedConfig,
        partition: Partition,
    ) -> (Self, Gpma) {
        assert_eq!(
            partition.num_shards(),
            config.num_shards,
            "partition shard count disagrees with configuration"
        );
        let n = graph.num_vertices();
        let mut residents: Vec<Vec<bool>> = vec![vec![false; n]; config.num_shards];
        for v in 0..n as VertexId {
            let s = partition.owner(v);
            residents[s][v as usize] = true;
            for &(w, _) in graph.neighbors(v) {
                residents[s][w as usize] = true;
            }
        }
        let edges: Vec<(VertexId, VertexId, ELabel)> = graph.edges().collect();
        let mut store = Gpma::new(n, config.base.gpma.clone());
        store.insert_edges(&edges);
        store.ensure_vertices(n);
        (Self::restore(graph, config, partition, residents), store)
    }

    /// Rebuilds the runtime from recovered state: the snapshotted
    /// partition and every shard's resident flags.
    ///
    /// Resident sets grow monotonically as batches touch new boundary
    /// vertices, so they cannot be rederived from the current graph alone
    /// — a fresh build's sets can be *smaller* than the incrementally
    /// maintained ones. They are therefore part of the snapshot, exactly
    /// like the GPMA geometry and (for greedy) the owner table.
    pub(crate) fn restore(
        graph: &DynamicGraph,
        config: &ShardedConfig,
        partition: Partition,
        residents: Vec<Vec<bool>>,
    ) -> Self {
        assert_eq!(
            residents.len(),
            config.num_shards,
            "restored shard count disagrees with configuration"
        );
        assert_eq!(
            partition.num_shards(),
            config.num_shards,
            "restored partition shard count disagrees with configuration"
        );
        let n = graph.num_vertices();
        let shards = residents
            .into_iter()
            .map(|resident| {
                assert_eq!(resident.len(), n, "resident bitmap length drift");
                Shard {
                    resident: Arc::new(resident),
                }
            })
            .collect();
        let degrees = Arc::new(
            (0..n as VertexId)
                .map(|v| graph.degree(v) as u32)
                .collect::<Vec<u32>>(),
        );
        let num_shards = config.num_shards;
        Self {
            partition,
            shards,
            degrees,
            stats: ShardStats {
                pair_migrants: vec![0; num_shards * num_shards],
                ..ShardStats::default()
            },
            stealing: config.stealing,
            faults: config.faults.clone(),
            alive: vec![true; num_shards],
        }
    }

    /// The vertex partition (snapshot state: the greedy owner table and
    /// failover repairs cannot be rederived from the graph).
    pub(crate) fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Every shard's resident flags, in shard order (snapshot state).
    pub(crate) fn residents(&self) -> impl Iterator<Item = &[bool]> {
        self.shards.iter().map(|s| s.resident.as_slice())
    }

    /// Every shard's resident set, shared with a phase's units.
    fn resident_sets(&self) -> Vec<Arc<Vec<bool>>> {
        self.shards
            .iter()
            .map(|s| Arc::clone(&s.resident))
            .collect()
    }

    /// Registers a freshly added vertex `v` (the graph now holds
    /// `num_vertices`): resident on its live owner, degree 0.
    pub(crate) fn add_vertex(&mut self, v: VertexId, num_vertices: usize) {
        Arc::make_mut(&mut self.degrees).resize(num_vertices, 0);
        let owner = live_owner(&self.partition, &self.alive, v);
        self.shards[owner].mark_resident(v);
    }

    /// Charges one canonical batch's structural update to the simulated
    /// devices and returns the batch's update cycles. The batch has
    /// already landed once on the shared store, at the measured cost of
    /// `del_cycles` and `ins_cycles`; `graph` is still the pre-batch
    /// mirror, against which each shard's residency grows. The devices
    /// update in parallel, each charged its resident sub-batch's
    /// proportional share of the measured cycles, so the batch's update
    /// time is the slowest shard's; a one-shard runtime is charged the
    /// full measured cost exactly. The batch's endpoint deltas also land
    /// in the degree vector.
    pub(crate) fn charge_update(
        &mut self,
        graph: &DynamicGraph,
        batch: &UpdateBatch,
        del_cycles: u64,
        ins_cycles: u64,
    ) -> u64 {
        let k_del = batch.deletes.len() as u64;
        let k_ins = batch.inserts.len() as u64;
        let mut max_update_cycles = 0u64;
        for s in 0..self.shards.len() {
            let share = self.grow_residency(graph, s, batch);
            max_update_cycles =
                max_update_cycles.max(share.cycles(del_cycles, k_del, ins_cycles, k_ins));
        }
        self.update_degrees(graph.num_vertices(), batch);
        max_update_cycles
    }

    /// Folds a canonical batch's endpoint deltas into the shared degree
    /// vector (sized to `num_vertices`).
    fn update_degrees(&mut self, num_vertices: usize, batch: &UpdateBatch) {
        let degrees = Arc::make_mut(&mut self.degrees);
        if degrees.len() < num_vertices {
            degrees.resize(num_vertices, 0);
        }
        // Checked: a canonical batch only deletes present edges, so a
        // degree underflow here is a canonicalization bug — fail loudly in
        // both debug and release instead of wrapping (divergent profiles
        // were the PR-5 overflow class).
        for d in &batch.deletes {
            for v in [d.u, d.v] {
                let dv = &mut degrees[v as usize];
                *dv = dv
                    .checked_sub(1)
                    .unwrap_or_else(|| panic!("degree underflow at vertex {v}"));
            }
        }
        for i in &batch.inserts {
            degrees[i.u as usize] += 1;
            degrees[i.v as usize] += 1;
        }
    }

    /// Grows shard `s`'s resident set for one canonical batch (an
    /// insertion with an owned endpoint pulls the other endpoint into the
    /// boundary frontier) and returns the shard's update-work shares: how
    /// many of the batch's deletes/inserts touch its resident set, plus
    /// how many pre-batch adjacency edges its new residents materialize.
    fn grow_residency(
        &mut self,
        graph: &DynamicGraph,
        s: usize,
        batch: &UpdateBatch,
    ) -> UpdateShare {
        let mut new_residents: Vec<VertexId> = Vec::new();
        {
            let shard = &self.shards[s];
            for ins in &batch.inserts {
                for (a, b) in [(ins.u, ins.v), (ins.v, ins.u)] {
                    if live_owner(&self.partition, &self.alive, a) == s && !shard.is_resident(b) {
                        new_residents.push(b);
                    }
                }
            }
        }
        new_residents.sort_unstable();
        new_residents.dedup();
        let mut materialized = 0u64;
        for &v in &new_residents {
            materialized += graph.neighbors(v).len() as u64;
            self.shards[s].mark_resident(v);
        }
        let shard = &self.shards[s];
        let deletes = batch
            .deletes
            .iter()
            .filter(|d| shard.is_resident(d.u) || shard.is_resident(d.v))
            .count() as u64;
        let inserts = batch
            .inserts
            .iter()
            .filter(|i| shard.is_resident(i.u) || shard.is_resident(i.v))
            .count() as u64;
        UpdateShare {
            deletes,
            inserts,
            materialized,
        }
    }

    /// One distributed kernel phase on the virtual-time executor, for one
    /// registered pattern (`table`, `meta`) over the registry's `graph`
    /// and the `phase`'s shared store and anchors: anchors start on the
    /// shard owning their canonical endpoint; units run to completion on
    /// per-shard lane clocks; migrants — stamped `query_id` — flow through
    /// the batched comm fabric mid-phase (no barriers); idle shards steal
    /// eligible published batches; the phase ends at quiescence. Every
    /// scheduling decision reads virtual state only — the whole phase is
    /// bit-reproducible, including all cycle counters.
    ///
    /// Before the first scheduling step, every anchor unit runs ahead on
    /// the launch pool ([`run_jobs`], on `min(num_sms, host parallelism,
    /// anchors)` threads) against its routed shard; the scheduler commits
    /// each outcome when it reaches the unit, and runs migrant units
    /// inline. `table` is lent to the phase and handed back.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn kernel_phase(
        &mut self,
        graph: &DynamicGraph,
        phase: &Phase<'_>,
        table: CandidateTable,
        meta: &Arc<QueryMeta>,
        device: &DeviceConfig,
        collect: bool,
        query_id: u64,
    ) -> (CandidateTable, Vec<VMatch>, u64, KernelStats) {
        let wall_t0 = Instant::now();
        let (anchors, abort, deadline) = (phase.anchors, &phase.abort, phase.deadline);
        let num_shards = self.shards.len();
        let lanes_per_shard = (device.num_sms * device.warps_per_block).max(1);
        let cost = device.cost;
        let warp_size = device.warp_size;
        let nv_words = meta.q.num_vertices() as u64;
        let stealing = self.stealing;
        let mut env = Arc::new(PhaseEnv {
            partition: self.partition.clone(),
            gpma: Arc::clone(&phase.gpma),
            table,
            meta: Arc::clone(meta),
            update_order: UpdateOrder::build(anchors),
            degrees: Arc::clone(&self.degrees),
            residents: self.resident_sets(),
            alive: self.alive.clone(),
            // The shared store's maintained signatures serve every shard —
            // resident runs are complete, so the signatures each device
            // would compute locally are the shared store's.
            signatures: phase.signatures,
            deadline,
            collect,
            query_id,
            match_limit: phase.match_limit,
            abort: Arc::clone(abort),
            cost,
            warp_size,
        });

        // Anchor routing: an update edge starts on the shard owning its
        // canonical (smaller-id) endpoint — both endpoints are resident
        // there, and the first scan migrates on its own if its base lands
        // elsewhere. Each anchor unit also becomes a job of the wave.
        let mut local: Vec<VecDeque<Unit>> = (0..num_shards).map(|_| VecDeque::new()).collect();
        let mut wave: Vec<Job<UnitOut>> = Vec::with_capacity(anchors.len());
        for (i, &a) in anchors.iter().enumerate() {
            let (lo, _) = a.endpoints();
            let s = live_owner(&self.partition, &self.alive, lo);
            local[s].push_back(Unit {
                ready: 0,
                work: UnitWork::Anchor(a, i as u32),
            });
            let env = Arc::clone(&env);
            wave.push(Box::new(move || {
                run_unit(&env, s, UnitWork::Anchor(a, i as u32))
            }));
        }
        // The wave: a unit's outcome depends only on the unit and its
        // shard, so every anchor unit runs ahead, on the calling thread
        // and the launch pool's helpers. Indexed by anchor order.
        let mut ahead: Vec<Option<UnitOut>> = run_jobs(wave, device.num_sms)
            .into_iter()
            .map(Some)
            .collect();

        let mut fabric: CommFabric<Migrant> = CommFabric::new(num_shards, MIGRANT_BATCH);
        let mut lanes: Vec<Lanes> = vec![Lanes::new(lanes_per_shard); num_shards];
        let mut agg = KernelStats::default();
        let mut sink: Vec<VMatch> = Vec::new();
        let mut steal_buf: Vec<Migrant> = Vec::new();
        let mut elig_buf: Vec<(VertexId, ELabel)> = Vec::new();
        let mut match_count = 0u64;
        // A thief that found nothing stealable stays idle until the next
        // publish event (avoids rescanning the same unstealable batches).
        let mut steal_stale = vec![false; num_shards];
        let mut units_run = vec![0u64; num_shards];
        let mut busy = vec![0u64; num_shards];
        let mut migrations = 0u64;
        let mut shard_steals = 0u64;
        let mut drains = 0u64;

        let phase_id = self.stats.phases;
        self.stats.phases += 1;
        // Snapshot of the fault schedule (cheap: `None` for every
        // non-chaos run). Faults are looked up by pure virtual
        // coordinates, so the whole chaos run replays bit-exactly.
        let plan = self.faults.clone();
        let mut step: u64 = 0;
        let mut faults_injected = 0u64;
        let mut failovers = 0u64;
        let mut requeued_units = 0u64;
        let mut loop_steps = 0u32;

        loop {
            poll_deadline(deadline, &mut loop_steps, abort);
            if abort.load(Ordering::Relaxed) {
                break;
            }
            // Fail-stop injection: a scheduled death lands *between*
            // scheduling steps — units are atomic, so the dead shard has
            // no half-executed work, and everything it had emitted is
            // already in the shared sink. The executor quarantines the
            // shard's lanes (never scheduled again), repairs the
            // partition over the survivors, restores the owner-side
            // residency invariant for the moved vertices, and requeues
            // the dead shard's pending units and in-flight fabric
            // migrants — all partial embeddings; the shared store means
            // no graph state is lost. The phase then finishes degraded
            // with a delta stream bit-identical to the uninterrupted
            // run.
            if let Some(plan) = &plan {
                let deads: Vec<usize> = plan.fail_stops_at(phase_id, step).collect();
                for dead in deads {
                    if dead >= num_shards
                        || !self.alive[dead]
                        || self.alive.iter().filter(|&&a| a).count() <= 1
                    {
                        continue;
                    }
                    // Every outcome not yet committed was computed
                    // against the partition, alive mask and residency
                    // this fail-stop changes: discard them all, so their
                    // units run inline, on their new shards, against the
                    // repaired state. The wave has retired, so the phase
                    // holds the only reference to its environment; its
                    // resident sets are released first, so that marking
                    // new residents below copies no bitmap.
                    ahead.clear();
                    let e = Arc::get_mut(&mut env).expect("no unit runs between scheduling steps");
                    e.residents.clear();
                    self.alive[dead] = false;
                    faults_injected += 1;
                    failovers += 1;
                    let moved = self.partition.repair_failover(dead, graph, &self.alive);
                    // New owners inherit the owned ∪ one-hop residency
                    // invariant for their adopted vertices, so both scan
                    // directions stay licensed where migrants now land.
                    for &(v, new_owner) in &moved {
                        self.shards[new_owner].mark_resident(v);
                        for &(w, _) in graph.neighbors(v) {
                            self.shards[new_owner].mark_resident(w);
                        }
                    }
                    // Requeue the dead shard's pending local units at
                    // their new homes, original ready stamps intact
                    // (coordinator redelivery: the units were already
                    // causally priced when first enqueued; survivors
                    // simply adopt them).
                    let orphaned: Vec<Unit> = local[dead].drain(..).collect();
                    for unit in orphaned {
                        let dst = match &unit.work {
                            UnitWork::Anchor(a, _) => {
                                let (lo, _) = a.endpoints();
                                live_owner(&self.partition, &self.alive, lo)
                            }
                            UnitWork::Mig(mig) => migrant_dest(
                                meta,
                                &self.partition,
                                &self.alive,
                                &e.degrees,
                                mig,
                                &mut elig_buf,
                            ),
                        };
                        requeued_units += 1;
                        local[dst].push_back(unit);
                    }
                    // Requeue in-flight fabric migrants the dead shard
                    // was party to: its inbox and its open buffers
                    // (sealed batches it had already published toward
                    // survivors are on the interconnect and deliver
                    // normally).
                    for (stamp, mig) in fabric.drain_for_failover(dead) {
                        let dst = migrant_dest(
                            meta,
                            &self.partition,
                            &self.alive,
                            &e.degrees,
                            &mig,
                            &mut elig_buf,
                        );
                        requeued_units += 1;
                        local[dst].push_back(Unit {
                            ready: stamp,
                            work: UnitWork::Mig(mig),
                        });
                    }
                    // Queues changed shape — every stale-steal verdict
                    // is void.
                    steal_stale.iter_mut().for_each(|f| *f = false);
                    e.partition = self.partition.clone();
                    e.alive = self.alive.clone();
                    e.residents = self.resident_sets();
                }
            }
            step += 1;
            // Pick the (shard, action) with the earliest virtual start.
            // Per shard: run local work if any, else drain the inbox, else
            // steal. Ties break toward the lowest shard id — every input
            // to this choice is virtual state, so the schedule replays
            // exactly.
            let mut best: Option<(u64, usize, Action)> = None;
            for s in 0..num_shards {
                if !self.alive[s] {
                    continue;
                }
                let avail = lanes[s].earliest();
                let cand = if let Some(u) = local[s].front() {
                    Some((avail.max(u.ready), Action::Run))
                } else if let Some(r) = fabric.head_ready(s) {
                    Some((avail.max(r), Action::Drain))
                } else if stealing == ShardStealing::Active && !steal_stale[s] {
                    // Victim: the most loaded inbox (tie: lowest id).
                    let mut victim: Option<(usize, usize)> = None;
                    for v in 0..num_shards {
                        if v == s || !self.alive[v] {
                            continue;
                        }
                        let q = fabric.queued_items(v);
                        if q > 0 && victim.is_none_or(|(bq, _)| q > bq) {
                            victim = Some((q, v));
                        }
                    }
                    match victim {
                        Some((_, v)) => {
                            let r = fabric.tail_ready(v).expect("victim has sealed batches");
                            Some((avail.max(r), Action::Steal(v)))
                        }
                        None => {
                            steal_stale[s] = true;
                            None
                        }
                    }
                } else {
                    None
                };
                if let Some((t, a)) = cand {
                    if best.as_ref().is_none_or(|&(bt, _, _)| t < bt) {
                        best = Some((t, s, a));
                    }
                }
            }
            let Some((_, s, action)) = best else {
                // Nothing runnable. If partial batches are still open,
                // flush them (their producers are idle by construction —
                // they had no local work) and go again; otherwise the
                // phase is quiescent.
                let mut published = false;
                for src in 0..num_shards {
                    if !self.alive[src] {
                        continue;
                    }
                    let busy_src = &mut busy[src];
                    fabric.flush_src(src, |len| {
                        published = true;
                        let ship = cost.migrant_ship(len as u64, nv_words, warp_size);
                        *busy_src += ship;
                        ship
                    });
                }
                if published {
                    steal_stale.iter_mut().for_each(|f| *f = false);
                    continue;
                }
                debug_assert!(!fabric.pending(), "quiescence with items in flight");
                break;
            };
            match action {
                Action::Drain => {
                    let mut batch = fabric.pop(s).expect("drain action implies a batch");
                    drains += 1;
                    let ready = batch.ready;
                    for mitem in batch.items.drain(..) {
                        local[s].push_back(Unit {
                            ready,
                            work: UnitWork::Mig(mitem),
                        });
                    }
                    fabric.recycle(batch.items);
                }
                Action::Steal(v) => {
                    let mut batch = fabric.steal_tail(v).expect("steal action implies a batch");
                    let ready = batch.ready;
                    let resident: &[bool] = &self.shards[s].resident;
                    let mut taken = 0u64;
                    steal_buf.clear();
                    for mitem in batch.items.drain(..) {
                        if mitem.steal_eligible(meta, resident, &mut elig_buf) {
                            taken += 1;
                            local[s].push_back(Unit {
                                ready,
                                work: UnitWork::Mig(mitem),
                            });
                        } else {
                            steal_buf.push(mitem);
                        }
                    }
                    std::mem::swap(&mut batch.items, &mut steal_buf);
                    if taken == 0 {
                        steal_stale[s] = true;
                    } else {
                        shard_steals += taken;
                    }
                    fabric.requeue_tail(batch);
                }
                Action::Run => {
                    let unit = local[s].pop_front().expect("run action implies a unit");
                    // Commit the unit's outcome: the one computed ahead,
                    // unless a fail-stop discarded it, or run it now.
                    let ahead_out = match unit.work {
                        UnitWork::Anchor(_, order) => {
                            ahead.get_mut(order as usize).and_then(Option::take)
                        }
                        UnitWork::Mig(_) => None,
                    };
                    let mut out = ahead_out.unwrap_or_else(|| run_unit(&env, s, unit.work));
                    let completion = lanes[s].run(unit.ready, out.cycles);
                    busy[s] += out.cycles;
                    units_run[s] += 1;
                    agg.global_transactions += out.global_transactions;
                    agg.shared_accesses += out.shared_accesses;
                    agg.buf_reuse += out.buf_reuse;
                    agg.buf_alloc += out.buf_alloc;
                    sink.append(&mut out.matches);
                    match_count += out.count;
                    if match_count > phase.match_limit {
                        abort.store(true, Ordering::Relaxed);
                    }
                    // Stage produced migrants; a buffer hitting capacity
                    // publishes immediately (ship cost on the producer).
                    let mut published = false;
                    for (dst, mig) in out.migrants {
                        migrations += 1;
                        if fabric.push(s, dst, mig, completion) {
                            let ship = cost.migrant_ship(MIGRANT_BATCH as u64, nv_words, warp_size);
                            fabric.publish(s, dst, ship);
                            busy[s] += ship;
                            published = true;
                        }
                    }
                    // A producer going idle flushes its partial batches —
                    // consumers never wait on work the producer has
                    // finished staging.
                    if local[s].is_empty() {
                        let busy_s = &mut busy[s];
                        fabric.flush_src(s, |len| {
                            published = true;
                            let ship = cost.migrant_ship(len as u64, nv_words, warp_size);
                            *busy_s += ship;
                            ship
                        });
                    }
                    if published {
                        steal_stale.iter_mut().for_each(|f| *f = false);
                    }
                }
            }
        }

        // Merge telemetry in shard order (order-independent accounting:
        // there is only one order).
        let comm = fabric.stats();
        self.stats.migrations += migrations;
        self.stats.shard_steals += shard_steals;
        self.stats.faults_injected += faults_injected;
        self.stats.failovers += failovers;
        self.stats.requeued_units += requeued_units;
        self.stats.migrant_batches += comm.batches_published;
        self.stats.drains += drains;
        self.stats.inbox_high_water = self.stats.inbox_high_water.max(comm.inbox_high_water);
        if self.stats.pair_migrants.len() != num_shards * num_shards {
            self.stats.pair_migrants = vec![0; num_shards * num_shards];
        }
        for (acc, &x) in self.stats.pair_migrants.iter_mut().zip(&comm.pair_items) {
            *acc += x;
        }

        let mut device_cycles = 0u64;
        for (s, lane) in lanes.iter().enumerate() {
            let mk = lane.makespan();
            device_cycles = device_cycles.max(mk);
            agg.total_block_cycles += mk;
            agg.resident_warp_cycles += lanes_per_shard as u64 * mk;
            agg.num_tasks += units_run[s] as usize;
            agg.num_blocks += units_run[s].div_ceil(device.warps_per_block.max(1) as u64) as usize;
            agg.busy_cycles += busy[s];
        }
        agg.device_cycles = device_cycles;
        agg.steals = shard_steals;
        agg.wall_seconds = wall_t0.elapsed().as_secs_f64();

        // Every job of the wave has retired, so the phase holds the only
        // reference to its environment, and the table goes back.
        let env = Arc::into_inner(env).expect("every unit has retired");
        (env.table, sink, match_count, agg)
    }
}

// ---------------------------------------------------------------------------
// The engine view
// ---------------------------------------------------------------------------

/// The batch-dynamic subgraph matching engine over N partitioned devices:
/// a view of a [`QueryRegistry`] on the shard executor that holds exactly
/// one registration, whose id is [`ShardedConfig::query_id`].
///
/// Drop-in compatible with [`GammaEngine`]'s batch API and bit-identical
/// in its reported deltas; see the module docs for the distribution model.
///
/// [`GammaEngine`]: crate::GammaEngine
pub struct ShardedEngine {
    registry: QueryRegistry,
    config: ShardedConfig,
}

impl ShardedEngine {
    /// Partitions `graph`, builds every shard's resident set (owned +
    /// one-hop boundary), the shared store and the shared encoder/table,
    /// and derives the per-edge matching orders (coalesced search off —
    /// one seed per query edge keeps the distributed dedup rule identical
    /// to the single-device engine's match attribution).
    pub fn new(graph: DynamicGraph, query: &QueryGraph, config: ShardedConfig) -> Self {
        let partition = Partition::build(config.strategy, config.num_shards, &graph);
        Self::with_partition(graph, query, config, partition)
    }

    /// [`ShardedEngine::new`] with a caller-supplied partition (to pin a
    /// placement).
    pub fn with_partition(
        graph: DynamicGraph,
        query: &QueryGraph,
        config: ShardedConfig,
        partition: Partition,
    ) -> Self {
        let registry = QueryRegistry::sharded(graph, &config, partition);
        Self::from_registry(registry, query, config)
    }

    /// Wraps a shard-executor registry with no registration yet as the
    /// engine for `query`.
    pub(crate) fn from_registry(
        mut registry: QueryRegistry,
        query: &QueryGraph,
        config: ShardedConfig,
    ) -> Self {
        registry.register_with_id(QueryId(config.query_id), query, QueryConfig::default());
        Self { registry, config }
    }

    fn runtime(&self) -> &ShardRuntime {
        self.registry
            .shard_runtime()
            .expect("a sharded engine's registry runs on the shard executor")
    }

    /// Read access to the host mirror of the data graph.
    pub fn graph(&self) -> &DynamicGraph {
        self.registry.graph()
    }

    /// The vertex partition.
    pub fn partition(&self) -> &Partition {
        &self.runtime().partition
    }

    /// Cumulative cross-shard statistics.
    pub fn shard_stats(&self) -> ShardStats {
        self.runtime().stats.clone()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// Number of batches processed so far.
    pub fn batches_processed(&self) -> u64 {
        self.registry.batches_processed()
    }

    /// Live-shard mask (all-true until a configured fault fires).
    pub fn alive(&self) -> &[bool] {
        &self.runtime().alive
    }

    /// Adds a fresh vertex (owned by its partition shard, resident there).
    pub fn add_vertex(&mut self, label: VLabel) -> VertexId {
        self.registry.add_vertex(label)
    }

    /// Applies one update batch and returns the incremental matches —
    /// the registry pipeline with the structural update charged per shard
    /// and both kernels distributed.
    pub fn apply_batch(&mut self, raw: &[Update]) -> BatchResult {
        self.registry.apply_batch(raw).into_single()
    }

    /// Applies an already-canonicalized batch (must be canonical w.r.t.
    /// this engine's current graph).
    pub fn apply_canonical_batch(&mut self, batch: &UpdateBatch) -> BatchResult {
        self.registry.apply_canonical_batch(batch).into_single()
    }
}

impl DurableView for ShardedEngine {
    type Result = BatchResult;

    fn registry(&self) -> &QueryRegistry {
        &self.registry
    }

    fn apply(&mut self, raw: &[Update]) -> BatchResult {
        self.apply_batch(raw)
    }
}
