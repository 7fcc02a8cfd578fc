//! The multi-device shard executor: the data graph partitioned across N
//! simulated devices, driven by a barrier-free virtual-time runtime.
//!
//! The batch pipeline itself lives in [`crate::registry`]: a
//! [`QueryRegistry`] runs its launches either on one simulated device or
//! on this module's shard runtime, chosen by its constructor.
//! [`ShardedEngine`] is a one-registration view of a registry on the
//! shard runtime, and [`QueryRegistry::sharded`] serves K patterns over
//! the same one partition, resident sets and store.
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
//! * **Owner-compute rule** — a shard runs the single-device kernel
//!   itself (the search of [`crate::wbm`]), which generates the candidates
//!   of a level by scanning the run of one matched *base* vertex, the
//!   backward vertex with the least `(degree, id)`. Before every scan the
//!   search checks the launch's [`Residency`]: the scan runs here when the
//!   base's live owner is this shard or every backward vertex is resident
//!   here. Verification then probes the backward vertices' runs with
//!   monotone merge cursors when they are all resident, and flips onto each
//!   candidate's own run, which the owner's boundary replication
//!   guarantees complete, when they are not. Otherwise the partial
//!   embedding **migrates** to the base's owner.
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
//! * **Units that split** — a unit (an anchor's seed sweep, an arrived
//!   migrant's subtree, or a part split off a unit) is one search of that
//!   kernel on one warp context. With device stealing on, a unit that has
//!   spent [`UNIT_SPLIT_BUDGET`] (12,288) cycles since it started or last
//!   split hands off whatever its task offers as soon as it offers any,
//!   through the split a device thief takes (`WarpTask::try_split`: half
//!   the shallowest frame with two or more unexplored candidates and no
//!   count-only memo, else half the pending partials, else half the
//!   unstarted seeds). A device block splits by the same rule, but every
//!   `gamma_gpu::SPLIT_BUDGET` (65,536) cycles, since a split block
//!   occupies a new SM. The part becomes a new unit of the same shard,
//!   ready at the unit's start plus the cycle offset at which it left, so
//!   a phase does not wait for its heaviest anchor on one lane. A shard's
//!   lanes span SMs and share no shared memory, so the hand-off is one
//!   coalesced global transfer of the offer's words on each side, as a
//!   block split's. With device stealing off every unit runs whole, as
//!   the device's warps do.
//! * **Host work on both launch threads** — a unit's outcome (its cycles,
//!   counter deltas, matches, the migrants it ships, in order, and the
//!   parts it split off) depends only on the unit and the shard that runs
//!   it: within a phase a unit reads fixed state and its thread's scratch,
//!   which it clears before use, and it keeps its matches and count
//!   instead of flushing them. So before the first scheduling step every
//!   anchor unit runs ahead, then every part it split off and theirs in
//!   turn, as one job per anchor, on the calling thread and the
//!   process-wide launch pool ([`gamma_gpu::run_jobs`]) that serves device
//!   launches, heaviest anchors first by their endpoints' degrees. A
//!   job's outcomes are flat: one record per unit (offset,
//!   cycles, count, counters) in one buffer, in the order the units ran,
//!   beside the lists of matches and migrants the units produced, which a
//!   record names by index. The scheduler, on the calling thread alone,
//!   commits each record when it reaches the unit, moving its matches to
//!   the sink and its migrants to the fabric, and queues the unit's parts
//!   as references to their records; migrant units (and their parts) run
//!   inline into buffers of their own, and a buffer is freed once its last
//!   record commits. Lane
//!   stamps, the fabric, steals, the sink and every cycle counter see the
//!   sequence a one-thread run sees. A fail-stop discards every record
//!   not yet committed, queued parts' included, since it changes the
//!   partition and residency they read: a discarded unit reruns from the
//!   work its record keeps under a fault plan. Each buffer carries the
//!   failover epoch its records were computed under, and debug builds
//!   assert it at the commit.
//!
//! Results are bit-identical to [`GammaEngine`](crate::GammaEngine):
//! candidate generation at any level reads complete local information
//! wherever it executes, and every filter (signature, chunked mask,
//! incident-range dedup) is exact — so the distributed DFS enumerates
//! exactly the single-device match set. `tests/differential.rs` replays
//! every workload through 1/2/4 shards under the same oracle.
//!
//! [`CostModel::migrant_ship`]: gamma_gpu::CostModel::migrant_ship

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use gamma_gpma::Gpma;
use gamma_gpu::{lock, run_jobs, CostModel, DeviceConfig, Job, KernelStats, Stealing, WarpCtx};
use gamma_graph::{
    DynamicGraph, ELabel, QueryGraph, Update, UpdateBatch, VLabel, VMatch, VertexId,
};

use crate::comm::{CommFabric, MIGRANT_BATCH};
use crate::durable::DurableView;
use crate::engine::{BatchResult, GammaConfig};
use crate::fault::FaultPlan;
use crate::registry::{QueryConfig, QueryId, QueryRegistry};
use crate::wbm::{self, backward_set, poll_deadline, KernelShared, Part, QueryMeta, UnitRun};

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

/// The greedy partitioner's scoring, shared by the streaming placement,
/// its refinement sweeps and failover repair. An edge weighs `1 +
/// scale/freq(label(u)) + scale/freq(label(v))` with `scale = |V|`, so
/// rare-label edges — the selective ones the matching orders chase — are
/// the costliest to cut. Integer arithmetic throughout (scores must be
/// platform-exact for the replay gate).
struct GreedyScore<'g> {
    graph: &'g DynamicGraph,
    /// `scale / freq(l)` per vertex label `l`.
    rarity: Vec<u64>,
    /// Per-shard neighborhood weight of the vertex last gathered.
    gain: Vec<u64>,
}

impl<'g> GreedyScore<'g> {
    fn new(graph: &'g DynamicGraph, num_shards: usize) -> Self {
        let max_label = graph.labels().iter().copied().max().unwrap_or(0) as usize;
        let mut freq = vec![0u64; max_label + 1];
        for &l in graph.labels() {
            freq[l as usize] += 1;
        }
        let scale = graph.num_vertices() as u64;
        Self {
            graph,
            rarity: freq.iter().map(|&f| scale / f.max(1)).collect(),
            gain: vec![0; num_shards],
        }
    }

    /// Sets each shard's gain to the weight of `v`'s edges to the
    /// neighbors `owner` places on it (`None`: the neighbor counts for no
    /// shard) and returns the gains.
    fn gather(&mut self, v: VertexId, owner: impl Fn(VertexId) -> Option<usize>) -> &[u64] {
        self.gain.iter_mut().for_each(|g| *g = 0);
        let rv = self.rarity[self.graph.label(v) as usize];
        for &(w, _) in self.graph.neighbors(v) {
            if let Some(s) = owner(w) {
                self.gain[s] += 1 + rv + self.rarity[self.graph.label(w) as usize];
            }
        }
        &self.gain
    }

    /// The shard to place the last gathered vertex on: the highest
    /// `gain × remaining capacity` among the `eligible` shards under
    /// `cap`. Ties between equally attractive shards break toward the
    /// emptier one, then the lower id; a full shard is ineligible. `None`
    /// when no eligible shard has room.
    fn pick(&self, load: &[u64], cap: u64, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<(u128, u64, usize)> = None;
        for (s, (&g, &l)) in self.gain.iter().zip(load).enumerate() {
            if !eligible(s) || l >= cap {
                continue;
            }
            let score = g as u128 * (cap - l) as u128;
            if best.is_none_or(|(bs, bl, _)| score > bs || (score == bs && l < bl)) {
                best = Some((score, l, s));
            }
        }
        best.map(|(_, _, s)| s)
    }
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
    let mut score = GreedyScore::new(graph, num_shards);
    let cap = n.div_ceil(num_shards) as u64;
    let mut load = vec![0u64; num_shards];
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
            score.gather(v, |w| {
                placed[w as usize].then(|| owners[w as usize] as usize)
            });
            // Σ caps ≥ |V| guarantees a slot.
            let s = score
                .pick(&load, cap, |_| true)
                .expect("total capacity covers all vertices");
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
            let gain = score.gather(v, |w| Some(owners[w as usize] as usize));
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
            let live = |s: usize| s != dead && alive.get(s).copied().unwrap_or(false);
            let mut score = GreedyScore::new(graph, num_shards);
            let cap = greedy_capacity(n, num_alive) as u64;
            let mut load = vec![0u64; num_shards];
            for &o in &table {
                load[o as usize] += 1;
            }
            for v in 0..n as VertexId {
                if table[v as usize] as usize != dead {
                    continue;
                }
                score.gather(v, |w| Some(table[w as usize] as usize));
                // The relaxed capacity leaves (S−1)·cap ≥ n·9/8 > n slots,
                // so the fallback only triggers in degenerate tiny-graph
                // corners: place on the least-loaded survivor.
                let s = score.pick(&load, cap, live).unwrap_or_else(|| {
                    (0..num_shards)
                        .filter(|&s| live(s))
                        .min_by_key(|&s| (load[s], s))
                        .expect("at least one survivor")
                });
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
    /// collection, limits, coalesced search). Its device's `stealing`
    /// also decides whether shard units split: with `Off` every unit runs
    /// whole. With `coalesced_search` on, the shard executor's registry
    /// plans the device's coalesced classes capped at whole-query (k = 0)
    /// ones; `max_degenerate_k` stays a device setting. That is registry
    /// policy, not a limit of the kernel, which shards share with the
    /// single device: a k = 0 class only removes scans, while a k > 0
    /// class queues permuted partials. Shard units split those off as
    /// they split any work, yet lifting the cap makes 6 of the 27 SHARD
    /// cells of the fixed-trace replay do more simulated work (GH Dense
    /// 76% more, GH Tree 20–23% more).
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
    /// A registry built by [`QueryRegistry::sharded`] ignores it: its ids
    /// start at 0 and each launch is stamped with its group
    /// representative's id. Purely an envelope tag — it never influences
    /// routing, costs, or results — so standalone engines leave the
    /// default `0`.
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
    /// Parts split off units: with device stealing on, a unit that has
    /// run [`UNIT_SPLIT_BUDGET`] (12,288) cycles since it started or last
    /// split hands what a device thief would take (half of one DFS level's
    /// unexplored candidates, of its pending partials or of its unstarted
    /// seeds) to a new unit of its shard as soon as its task offers any.
    /// Counted when the unit that split commits.
    pub unit_splits: u64,
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
    pub(crate) anchor: (VertexId, VertexId, ELabel),
    pub(crate) anchor_order: u32,
    pub(crate) seed: usize,
    pub(crate) base_level: usize,
    pub(crate) m: VMatch,
    /// Serving-tier envelope tag ([`ShardedConfig::query_id`]); carried
    /// so multi-registry deployments can route and audit in-flight
    /// partials per standing query.
    pub(crate) qid: u64,
}

impl Migrant {
    /// The backward set of the migrant's pending scan into `scratch`, and
    /// its base ([`backward_set`], exactly as the scan will pick it).
    fn base(
        &self,
        meta: &QueryMeta,
        gpma: &Gpma,
        scratch: &mut Vec<(VertexId, ELabel)>,
    ) -> VertexId {
        let qv = meta.seeds[self.seed].order[self.base_level];
        let bi = backward_set(&meta.q, qv, &self.m, gpma, scratch);
        scratch[bi].0
    }

    /// Whether batch-stealing may run this migrant on a thief with the
    /// given resident set: the base run must be locally complete, and the
    /// pending level must have no secondary backward edges (their
    /// verification reads candidate runs, which only the owner's boundary
    /// replication guarantees).
    fn steal_eligible(
        &self,
        meta: &QueryMeta,
        gpma: &Gpma,
        resident: &[bool],
        scratch: &mut Vec<(VertexId, ELabel)>,
    ) -> bool {
        let base = self.base(meta, gpma, scratch);
        scratch.len() == 1 && resident.get(base as usize).copied().unwrap_or(false)
    }
}

/// The live shard a migrant must be (re)delivered to: the live owner of
/// its pending scan's base — the base the scan itself picks, or a
/// failover-requeued migrant would bounce between shards forever.
fn migrant_dest(
    meta: &QueryMeta,
    gpma: &Gpma,
    partition: &Partition,
    alive: &[bool],
    mig: &Migrant,
    scratch: &mut Vec<(VertexId, ELabel)>,
) -> usize {
    live_owner(partition, alive, mig.base(meta, gpma, scratch))
}

/// The residency context of a launch on the shard executor
/// ([`KernelShared::residency`]): the partition and live-shard mask that
/// name each vertex's live owner, every shard's resident set, and the
/// envelope tag shipped migrants carry. A search running on a shard reads
/// it before every scan (the license check, then the probe direction).
/// Only the executor builds one; a fail-stop refreshes it between two
/// scheduling steps.
pub struct Residency {
    pub(crate) partition: Partition,
    /// Live-shard mask — migration destinations are always computed
    /// among survivors (all-true with no faults, where `live_owner`
    /// degenerates to `Partition::owner`).
    pub(crate) alive: Vec<bool>,
    /// Every shard's resident set, in shard order.
    pub(crate) residents: Vec<Arc<Vec<bool>>>,
    /// Envelope tag stamped on shipped migrants.
    pub(crate) query_id: u64,
}

impl Residency {
    /// The live owner of `v`.
    #[inline]
    pub(crate) fn owner(&self, v: VertexId) -> usize {
        live_owner(&self.partition, &self.alive, v)
    }

    /// Whether `v`'s run is complete on `shard`.
    #[inline]
    pub(crate) fn is_resident(&self, shard: usize, v: VertexId) -> bool {
        self.residents[shard]
            .get(v as usize)
            .copied()
            .unwrap_or(false)
    }
}

/// One unit's outcome, a flat record in an [`Outcomes`] buffer: its
/// cycles, its counter deltas and its match count, which of the buffer's
/// lists hold its matches and its migrants, and where its parts' records
/// lie. The scheduler commits it when it reaches the unit and queues its
/// parts.
#[derive(Clone, Copy)]
struct Rec {
    /// For a part, the cycles into its unit at which it left: it is ready
    /// at the unit's start plus this. 0 for the buffer's first unit.
    offset: u64,
    cycles: u64,
    count: u64,
    global_transactions: u64,
    shared_accesses: u64,
    buf_reuse: u64,
    buf_alloc: u64,
    /// Its list in [`Outcomes::matches`] and in [`Outcomes::migrants`],
    /// or [`NO_LIST`] for a unit that found or shipped none.
    matches: u32,
    migrants: u32,
    /// Records in its subtree, itself included: its parts' records follow
    /// it in the order it split them off, each followed by its own
    /// subtree.
    span: u32,
}

/// A record's list index when the unit has nothing to list.
const NO_LIST: u32 = u32::MAX;

/// The outcomes of one unit run ahead (an anchor's in the wave, or a unit
/// run inline) and of every part it and its parts split off, one [`Rec`]
/// each in the order they ran: the unit, then each part's subtree in turn.
/// A unit's matches and its migrants (`(owner shard, migrant)`) stay in
/// the lists it produced them in, which its commit moves out: a match or
/// a migrant is held once, and only until its unit commits.
#[derive(Default)]
struct Outcomes {
    /// The failover epoch (the phase's failover count) the records were
    /// computed under. A fail-stop discards every buffer, so a commit only
    /// ever sees the current epoch.
    epoch: u64,
    recs: Vec<Rec>,
    matches: Vec<Vec<VMatch>>,
    migrants: Vec<Vec<(usize, Migrant)>>,
    /// Under a fault plan, what each record's unit reruns once a fail-stop
    /// has discarded the buffer: an anchor's update edge, a part's copy as
    /// it left. `None` for a unit run inline, which commits at once; empty
    /// without a fault plan.
    kept: Vec<Option<UnitWork>>,
    /// Records not yet committed.
    left: u32,
}

thread_local! {
    /// Each thread's record list under construction ([`Outcomes::run`]),
    /// reused job after job, so that a buffer's records take one
    /// allocation of the size they need.
    static RECS: Cell<Vec<Rec>> = const { Cell::new(Vec::new()) };
}

/// An index of an outcome buffer, or into one, as stored: a `u32`.
fn index32(n: usize) -> u32 {
    u32::try_from(n).expect("a unit's outcomes fit u32 indices")
}

/// Appends `list` to `lists` unless it is empty: its index, else
/// [`NO_LIST`].
fn file<T>(lists: &mut Vec<Vec<T>>, list: Vec<T>) -> u32 {
    if list.is_empty() {
        return NO_LIST;
    }
    lists.push(list);
    index32(lists.len() - 1)
}

impl Outcomes {
    /// Runs `work` on `shard` under failover `epoch`, and then, depth-first
    /// on the same thread, every part it split off and theirs. `kept` is
    /// what the unit reruns after a fail-stop (see [`Outcomes::kept`]). A
    /// part takes at most half of what its unit had left of one DFS
    /// level's candidates, its pending partials or its unstarted seeds, so
    /// the recursion is only as deep as the logarithms of those sizes add
    /// up to, however long the unit runs.
    fn run(
        sh: &KernelShared,
        shard: usize,
        work: UnitWork,
        kept: Option<UnitWork>,
        cfg: UnitCfg,
        epoch: u64,
    ) -> Self {
        let mut out = Outcomes {
            epoch,
            recs: RECS.take(),
            ..Outcomes::default()
        };
        let mut ctx = WarpCtx::new(cfg.cost, cfg.warp_size);
        let run = wbm::run_unit(sh, shard, work, cfg.split, &mut ctx);
        out.push(sh, shard, run, &ctx, 0, kept, cfg);
        // The buffer keeps a right-sized copy; the list goes back.
        let mut built = std::mem::take(&mut out.recs);
        out.recs = built.to_vec();
        built.clear();
        RECS.set(built);
        out.left = index32(out.recs.len());
        out
    }

    /// Appends the record of a unit that ran on `shard`, metered on `ctx`,
    /// and then runs its parts ([`wbm::run_part`]), each on a fresh
    /// [`WarpCtx`], and appends their subtrees.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        sh: &KernelShared,
        shard: usize,
        run: UnitRun,
        ctx: &WarpCtx,
        offset: u64,
        kept: Option<UnitWork>,
        cfg: UnitCfg,
    ) {
        let at = self.recs.len();
        self.recs.push(Rec {
            offset,
            cycles: run.cycles,
            count: run.count,
            global_transactions: ctx.global_transactions,
            shared_accesses: ctx.shared_accesses,
            buf_reuse: ctx.buf_reuse,
            buf_alloc: ctx.buf_alloc,
            matches: file(&mut self.matches, run.matches),
            migrants: file(&mut self.migrants, run.migrants),
            span: 1,
        });
        if cfg.keep {
            self.kept.push(kept);
        }
        let mut parts = run.parts;
        for (offset, part) in parts.drain(..) {
            let kept = cfg.keep.then(|| UnitWork::Part(Box::new(part.clone())));
            let mut ctx = WarpCtx::new(cfg.cost, cfg.warp_size);
            let run = wbm::run_part(sh, shard, part, cfg.split, &mut ctx);
            self.push(sh, shard, run, &ctx, offset, kept, cfg);
        }
        wbm::recycle_parts(parts);
        self.recs[at].span = index32(self.recs.len() - at);
    }
}

/// How a phase's units run.
#[derive(Clone, Copy)]
struct UnitCfg {
    cost: CostModel,
    warp_size: u32,
    /// Whether units split ([`wbm::run_unit`]): device stealing is on.
    /// `false` runs every unit whole.
    split: bool,
    /// Keep what every record's unit reruns ([`Outcomes::kept`]): under a
    /// fault plan a fail-stop may discard records before they commit.
    keep: bool,
}

// ---------------------------------------------------------------------------
// The virtual-time executor
// ---------------------------------------------------------------------------

/// Cycles a shard unit runs between two hand-offs: with device stealing
/// on, a unit that has spent this many since it started or last handed
/// off gives what its task's `WarpTask::try_split` takes to a new unit of
/// its shard as soon as the task offers anything (`wbm::run_unit`).
/// Device blocks split at `gamma_gpu::SPLIT_BUDGET` (65,536) instead: a
/// block split occupies a new SM with a new block, and a shorter block
/// cadence grows the fixed-trace replay's small Tree grids, while a unit's
/// hand-off is one transfer to another lane of its shard.
///
/// Picked from a sweep on the `sharded` benchmark stream at seed 1,
/// against 65,536: 16,384 cuts the simulated cycles by 46.6%, which
/// leaves `sharded` above `tree-churn`'s 150.4M, 12,288 by 52.5% (149.6M)
/// and 8,192 by 61.1%. Each part costs host time the simulation does not
/// price, and a phase splits 392 parts at 12,288, 531 at 8,192 and 94 at
/// 65,536. In 10 alternating pairs of 22 s runs against 65,536, 12,288
/// won 6 on updates/s, p50, p95 and `recover_s` (medians +6.3%, −5.9%,
/// −7.9%, −3.6%; heap +2.5%), while 8,192 won at most 2 (updates/s
/// −8.4%, p50 +9.6%; heap +5.8%).
pub const UNIT_SPLIT_BUDGET: u64 = 12_288;

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
        let mut lane = self.t.peek_mut().expect("a shard has lanes");
        let stamp = lane.0.max(ready) + cycles;
        *lane = std::cmp::Reverse(stamp);
        drop(lane);
        self.high = self.high.max(stamp);
        stamp
    }
}

/// A schedulable unit, available from virtual cycle `ready`.
struct Unit {
    ready: u64,
    out: Out,
}

/// Where a queued unit's outcome comes from.
enum Out {
    /// Record `rec` of outcome buffer `buf`, run ahead: an anchor's in the
    /// wave, a part's with the unit it left.
    Ahead { buf: u32, rec: u32 },
    /// Running the unit inline when the scheduler reaches it: an arrived
    /// migrant, or a unit whose record a fail-stop discarded.
    Inline(UnitWork),
}

/// What a unit runs.
pub(crate) enum UnitWork {
    /// An update edge with its batch order: every seed, both orientations.
    Anchor(Update, u32),
    /// An arrived migrant: its subtree.
    Mig(Migrant),
    /// Work split off a unit, boxed so that a queued unit stays small.
    Part(Box<Part>),
}

/// Why a queued record has its unit's work kept.
const KEPT: &str = "only a fail-stop discards records, and under a fault plan each keeps its work";

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
/// resident set, the live-shard mask and the cumulative cross-shard
/// statistics. The registry owns the graph mirror,
/// the one shared store, the encoders and the candidate tables, and lends
/// them to [`ShardRuntime::kernel_phase`] per launch — so every registered
/// pattern runs on the same partition and resident sets.
pub(crate) struct ShardRuntime {
    partition: Partition,
    shards: Vec<Shard>,
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
    /// Cumulative cross-shard statistics.
    pub(crate) fn stats(&self) -> &ShardStats {
        &self.stats
    }

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
        let num_shards = config.num_shards;
        Self {
            partition,
            shards,
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

    /// Registers a freshly added vertex `v`: resident on its live owner.
    pub(crate) fn add_vertex(&mut self, v: VertexId) {
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
    /// full measured cost exactly.
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
        max_update_cycles
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
    /// launch of a registered pattern (`shared`, from
    /// [`Phase::shared`](crate::wbm::Phase::shared), over the phase's
    /// store and `anchors`; `graph` is the registry's mirror): anchors
    /// start on the shard owning their canonical endpoint; units run on
    /// per-shard lane clocks, splitting parts off at the unit cadence when
    /// device stealing is on; migrants — stamped `query_id` — flow through
    /// the batched comm fabric mid-phase (no barriers); idle shards steal
    /// eligible published batches; the phase ends at quiescence. Every
    /// scheduling decision reads virtual state only — the whole phase is
    /// bit-reproducible, including all cycle counters.
    ///
    /// Before the first scheduling step, every anchor unit runs ahead on
    /// the launch pool ([`run_jobs`], on `min(num_sms, host parallelism,
    /// anchors)` threads) against its routed shard, with the parts it
    /// splits off; the scheduler commits each outcome when it reaches the
    /// unit, into the launch's sink and match count, queues its parts, and
    /// runs migrant units inline. The launch state comes back for
    /// [`finish_grid`](crate::wbm::finish_grid).
    pub(crate) fn kernel_phase(
        &mut self,
        graph: &DynamicGraph,
        anchors: &[Update],
        mut shared: KernelShared,
        device: &DeviceConfig,
        query_id: u64,
    ) -> (Arc<KernelShared>, KernelStats) {
        let wall_t0 = Instant::now();
        let num_shards = self.shards.len();
        let lanes_per_shard = (device.num_sms * device.warps_per_block).max(1);
        let cost = device.cost;
        let warp_size = device.warp_size;
        let cfg = UnitCfg {
            cost,
            warp_size,
            split: device.stealing != Stealing::Off,
            keep: self.faults.is_some(),
        };
        let nv_words = shared.meta.q.num_vertices() as u64;
        let stealing = self.stealing;
        let (abort, deadline) = (Arc::clone(&shared.abort), shared.deadline);
        shared.residency = Some(Residency {
            partition: self.partition.clone(),
            alive: self.alive.clone(),
            residents: self.resident_sets(),
            query_id,
        });
        let mut env = Arc::new(shared);

        // Anchor routing: an update edge starts on the shard owning its
        // canonical (smaller-id) endpoint — both endpoints are resident
        // there, and the first scan migrates on its own if its base lands
        // elsewhere.
        let route = |a: &Update| live_owner(&self.partition, &self.alive, a.endpoints().0);
        // The wave: a unit's outcome depends only on the unit and its
        // shard, so every anchor unit runs ahead, with the parts it splits
        // off, as one job each on the calling thread and the launch pool's
        // helpers. The threads claim the jobs in order, so the anchors
        // whose endpoints have the most neighbors, a proxy for the most
        // search, go first: a heavy anchor claimed last would leave the
        // other threads idle while it runs. Host-only: the outcomes do not
        // depend on the order.
        let mut heavy_first: Vec<(std::cmp::Reverse<usize>, u32)> = anchors
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let size = env.gpma.degree(a.u) + env.gpma.degree(a.v);
                (std::cmp::Reverse(size), index32(i))
            })
            .collect();
        heavy_first.sort_unstable();
        let wave: Vec<Job<Outcomes>> = heavy_first
            .iter()
            .map(|&(_, o)| {
                let a = anchors[o as usize];
                let (env, s) = (Arc::clone(&env), route(&a));
                Box::new(move || {
                    let kept = cfg.keep.then_some(UnitWork::Anchor(a, o));
                    Outcomes::run(&env, s, UnitWork::Anchor(a, o), kept, cfg, 0)
                }) as _
            })
            .collect();
        // Outcome buffers by index: the anchors' first, in order, then
        // those of units run inline, each in a slot a fully committed
        // buffer freed (`free`) if there is one.
        let mut outs: Vec<Outcomes> = anchors.iter().map(|_| Outcomes::default()).collect();
        for ((_, o), out) in heavy_first.iter().zip(run_jobs(wave, device.num_sms)) {
            outs[*o as usize] = out;
        }
        let mut free: Vec<u32> = Vec::new();
        let mut local: Vec<VecDeque<Unit>> = (0..num_shards).map(|_| VecDeque::new()).collect();
        for (i, a) in anchors.iter().enumerate() {
            local[route(a)].push_back(Unit {
                ready: 0,
                out: Out::Ahead {
                    buf: index32(i),
                    rec: 0,
                },
            });
        }

        let mut fabric: CommFabric<Migrant> = CommFabric::new(num_shards, MIGRANT_BATCH);
        let mut lanes: Vec<Lanes> = vec![Lanes::new(lanes_per_shard); num_shards];
        let mut agg = KernelStats::default();
        let mut steal_buf: Vec<Migrant> = Vec::new();
        let mut elig_buf: Vec<(VertexId, ELabel)> = Vec::new();
        // A thief that found nothing stealable stays idle until the next
        // publish event (avoids rescanning the same unstealable batches).
        let mut steal_stale = vec![false; num_shards];
        let mut units_run = vec![0u64; num_shards];
        let mut busy = vec![0u64; num_shards];
        let mut migrations = 0u64;
        let mut shard_steals = 0u64;
        let mut drains = 0u64;
        let mut unit_splits = 0u64;

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
            poll_deadline(deadline, &mut loop_steps, &abort);
            if abort.load(Ordering::Relaxed) {
                break;
            }
            // Fail-stop injection: a scheduled death lands *between*
            // scheduling steps — units are atomic, so the dead shard has
            // no half-executed work, and everything it had emitted is
            // already committed to the launch's sink. The executor
            // quarantines the shard's lanes (never scheduled again),
            // repairs the
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
                    // this fail-stop changes: discard them all (a queued
                    // unit's, and with it the parts it split off), so
                    // their units run inline, on their new shards, against
                    // the repaired state. The wave has retired, so the
                    // phase holds the only reference to its environment;
                    // its resident sets are released first, so that
                    // marking new residents below copies no bitmap.
                    for unit in local.iter_mut().flatten() {
                        if let Out::Ahead { buf, rec } = unit.out {
                            let kept = outs[buf as usize].kept[rec as usize].take();
                            unit.out = Out::Inline(kept.expect(KEPT));
                        }
                    }
                    outs.clear();
                    free.clear();
                    let e = Arc::get_mut(&mut env).expect("no unit runs between scheduling steps");
                    let res = e
                        .residency
                        .as_mut()
                        .expect("a shard launch has a residency");
                    res.residents.clear();
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
                    // simply adopt them). A part goes where its anchor
                    // would: any live shard may run it, since its next
                    // scan runs the license check.
                    let orphaned: Vec<Unit> = local[dead].drain(..).collect();
                    for unit in orphaned {
                        let Out::Inline(work) = &unit.out else {
                            unreachable!("every record was discarded above");
                        };
                        let dst = match work {
                            UnitWork::Anchor(a, _) => {
                                let (lo, _) = a.endpoints();
                                live_owner(&self.partition, &self.alive, lo)
                            }
                            UnitWork::Mig(mig) => migrant_dest(
                                &e.meta,
                                &e.gpma,
                                &self.partition,
                                &self.alive,
                                mig,
                                &mut elig_buf,
                            ),
                            UnitWork::Part(part) => {
                                live_owner(&self.partition, &self.alive, part.anchor_lo())
                            }
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
                            &e.meta,
                            &e.gpma,
                            &self.partition,
                            &self.alive,
                            &mig,
                            &mut elig_buf,
                        );
                        requeued_units += 1;
                        local[dst].push_back(Unit {
                            ready: stamp,
                            out: Out::Inline(UnitWork::Mig(mig)),
                        });
                    }
                    // Queues changed shape — every stale-steal verdict
                    // is void.
                    steal_stale.iter_mut().for_each(|f| *f = false);
                    res.partition = self.partition.clone();
                    res.alive = self.alive.clone();
                    res.residents = self.resident_sets();
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
                            out: Out::Inline(UnitWork::Mig(mitem)),
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
                        if mitem.steal_eligible(&env.meta, &env.gpma, resident, &mut elig_buf) {
                            taken += 1;
                            local[s].push_back(Unit {
                                ready,
                                out: Out::Inline(UnitWork::Mig(mitem)),
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
                    // Commit the unit's record: the one run ahead, unless
                    // a fail-stop discarded it, or one run now.
                    let (buf, rec) = match unit.out {
                        Out::Ahead { buf, rec } => (buf as usize, rec as usize),
                        Out::Inline(work) => {
                            let o = Outcomes::run(&env, s, work, None, cfg, failovers);
                            let buf = match free.pop() {
                                Some(b) => {
                                    outs[b as usize] = o;
                                    b as usize
                                }
                                None => {
                                    outs.push(o);
                                    outs.len() - 1
                                }
                            };
                            (buf, 0)
                        }
                    };
                    let o = &mut outs[buf];
                    debug_assert_eq!(
                        o.epoch, failovers,
                        "a record computed before a fail-stop outlived it"
                    );
                    let r = o.recs[rec];
                    let completion = lanes[s].run(unit.ready, r.cycles);
                    // The parts it split off join its shard's queue, in
                    // the order they left, each ready when it left.
                    let start = completion - r.cycles;
                    let mut part = rec + 1;
                    while part < rec + r.span as usize {
                        unit_splits += 1;
                        local[s].push_back(Unit {
                            ready: start + o.recs[part].offset,
                            out: Out::Ahead {
                                buf: index32(buf),
                                rec: index32(part),
                            },
                        });
                        part += o.recs[part].span as usize;
                    }
                    busy[s] += r.cycles;
                    units_run[s] += 1;
                    agg.global_transactions += r.global_transactions;
                    agg.shared_accesses += r.shared_accesses;
                    agg.buf_reuse += r.buf_reuse;
                    agg.buf_alloc += r.buf_alloc;
                    if r.matches != NO_LIST {
                        let found = &mut o.matches[r.matches as usize];
                        lock(&env.sink).append(found);
                        *found = Vec::new();
                    }
                    env.note_matches(r.count);
                    // Stage produced migrants; a buffer hitting capacity
                    // publishes immediately (ship cost on the producer).
                    let mut published = false;
                    let shipped = match r.migrants {
                        NO_LIST => Vec::new(),
                        i => std::mem::take(&mut o.migrants[i as usize]),
                    };
                    for (dst, mig) in shipped {
                        migrations += 1;
                        if fabric.push(s, dst, mig, completion) {
                            let ship = cost.migrant_ship(MIGRANT_BATCH as u64, nv_words, warp_size);
                            fabric.publish(s, dst, ship);
                            busy[s] += ship;
                            published = true;
                        }
                    }
                    // A buffer whose every record has committed frees its
                    // slot.
                    o.left -= 1;
                    if o.left == 0 {
                        *o = Outcomes::default();
                        free.push(index32(buf));
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
        self.stats.unit_splits += unit_splits;
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

        (env, agg)
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
    /// and derives the matching orders. With `config.base.coalesced_search`
    /// on, the seeds are the single-device engine's coalesced plan capped
    /// at whole-query (k = 0) classes, by the shard executor's registry
    /// policy (the kernel is the single device's); otherwise one seed per
    /// query edge.
    pub fn new(graph: DynamicGraph, query: &QueryGraph, config: ShardedConfig) -> Self {
        let registry = QueryRegistry::sharded(graph, &config);
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
