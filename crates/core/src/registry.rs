//! The standing-query serving tier: many registered patterns, one graph.
//!
//! Production continuous subgraph matching serves thousands of *registered*
//! standing queries over a single dynamic data graph — not one query per
//! engine. [`QueryRegistry`] holds N registered patterns and evaluates each
//! update batch once per *group*:
//!
//! * **Encoder sharing** — queries with equal distinct-label sets share one
//!   [`IncrementalEncoder`]: the per-batch re-encode of touched data
//!   vertices runs once per label-set class, not once per query (the
//!   NLF layout — and hence every data-vertex code — is a function of the
//!   label set and counter width only; see [`EncodingScheme::labels`]).
//! * **One launch per pattern** — a *group* is the subscriptions of one
//!   pattern (graph equality), on both executors. Each kernel phase
//!   launches the pattern's own full plan once, coalesced search included,
//!   exactly as a dedicated engine runs it: with the representative's
//!   (first subscriber's) matching orders and candidate table, collecting
//!   matches if any subscriber collects. Every subscriber gets the count,
//!   and each collecting subscriber a copy of the matches.
//! * **One launch call per phase** — on the single device, each kernel
//!   phase is one [`Device::launch_grids`] call with one grid per group,
//!   over one store shared as `Arc<Gpma>`. The host threads overlap the
//!   groups' blocks, while the simulated device still runs each grid as a
//!   serial kernel of its own, so every group's simulated stats equal
//!   those of a launch of its own. On the shard executor each group's
//!   launch is one distributed kernel phase, in turn.
//! * **Per-query routing** — every query gets its own delta stream and
//!   [`QueryStats`] telemetry (a group keeps one candidate table, on its
//!   representative); match vectors are bit-identical to what a dedicated
//!   [`GammaEngine`](crate::GammaEngine) would produce for the same update
//!   stream (modulo match *order*, which is compared sorted-unique
//!   throughout this codebase).
//!
//! Telemetry attribution: a group's launch is one pattern's launch, and
//! its stats are attributed whole to *each* subscriber. Matching orders
//! are chosen at registration from the candidate counts of that moment,
//! so a subscriber registered on the same graph as its representative
//! sees exactly the simulated stats of its own dedicated engine (when the
//! group's collect setting is its own). A group's `wall_seconds` is its
//! grid's share of the launch call's elapsed time, in proportion to the
//! host time its blocks ran. The shares of one call sum to its elapsed
//! time, so [`RegistryBatchResult::kernel`] reports the batch's elapsed
//! launch time.
//!
//! Aborts stop the whole batch. A passed deadline
//! ([`GammaConfig::timeout`]) or one pattern's launch passing
//! [`GammaConfig::match_limit`] raises the batch's one abort flag, which
//! stops every launch still running and every launch after it. On the
//! single device a phase is one launch call, so that is every group of
//! the phase (on the shard executor the groups launched before
//! complete). A shard launch stops at a unit boundary, in commit order:
//! its anchor units run ahead on the launch pool, each raising the abort
//! once its own match count passes the limit, and the scheduler raises it
//! once the count it has committed does, so the launch keeps the matches
//! of the units committed before.
//! [`RegistryBatchResult::timed_out`] then marks every delta of the batch
//! as partial; the structural update still lands.
//!
//! [`QueryRegistry::apply_canonical_batch`] is also the only batch
//! pipeline in the crate (Figure 3: negative launches, store update,
//! mirror apply, re-encode and candidate refresh, positive launches, under
//! one per-batch deadline). Its launches run on one of two executors,
//! fixed by the constructor: one simulated device
//! ([`QueryRegistry::new`]), or the partitioned shard runtime of
//! [`crate::shard`] ([`QueryRegistry::sharded`]). Grouping, routing and
//! the pipeline are the same on both. [`GammaEngine`](crate::GammaEngine)
//! and [`ShardedEngine`](crate::ShardedEngine) are views that hold a
//! registry with exactly one registration.
//!
//! # Example
//!
//! ```
//! use gamma_core::registry::{QueryConfig, QueryRegistry};
//! use gamma_core::GammaConfig;
//! use gamma_graph::{DynamicGraph, QueryGraph, Update, NO_ELABEL};
//!
//! // Figure 1's data graph (labels A=0, B=1, C=2).
//! let mut g = DynamicGraph::new();
//! for &l in &[0, 0, 1, 1, 1, 1, 1, 2, 2, 2] {
//!     g.add_vertex(l);
//! }
//! for &(u, v) in &[(0, 3), (0, 4), (2, 3), (2, 4), (3, 7), (2, 8),
//!                  (1, 5), (1, 6), (5, 6), (5, 9), (4, 7)] {
//!     g.insert_edge(u, v, NO_ELABEL);
//! }
//!
//! // Two standing queries: the A-B-B triangle with a C tail (Figure 1's
//! // Q) and the bare A-B-B triangle.
//! let mut b = QueryGraph::builder();
//! let (u0, u1, u2, u3) = (b.vertex(0), b.vertex(1), b.vertex(1), b.vertex(2));
//! b.edge(u0, u1).edge(u0, u2).edge(u1, u2).edge(u1, u3);
//! let q_tail = b.build();
//! let mut b = QueryGraph::builder();
//! let (u0, u1, u2) = (b.vertex(0), b.vertex(1), b.vertex(1));
//! b.edge(u0, u1).edge(u0, u2).edge(u1, u2);
//! let q_tri = b.build();
//!
//! let mut reg = QueryRegistry::new(g, GammaConfig::default());
//! let id_tail = reg.register(&q_tail, QueryConfig::default());
//! let id_tri = reg.register(&q_tri, QueryConfig::default());
//!
//! let result = reg.apply_batch(&[Update::insert(0, 2)]);
//! let tail = result.delta(id_tail).unwrap();
//! let tri = result.delta(id_tri).unwrap();
//! assert_eq!(tail.positive_count, 4); // M1..M4 of Figure 1
//! assert_eq!(tri.positive_count, 4); // 2 new triangles x the B-B symmetry
//!
//! reg.unregister(id_tri);
//! assert_eq!(reg.num_queries(), 1);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gamma_gpma::Gpma;
use gamma_gpu::{Device, KernelStats};
use gamma_graph::{
    DynamicGraph, ELabel, QueryGraph, Update, UpdateBatch, VLabel, VMatch, VertexId,
};

use crate::encoding::{CandidateTable, EncodingScheme, IncrementalEncoder};
use crate::engine::{BatchResult, BatchStats, GammaConfig};
use crate::shard::{Partition, ShardRuntime, ShardStats, ShardedConfig};
use crate::wbm::{finish_grid, KernelShared, Phase, QueryMeta};

/// Opaque handle to a registered standing query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

/// Per-query registration options.
#[derive(Clone, Debug, Default)]
pub struct QueryConfig {
    /// Materialize this query's match deltas (`None` inherits the
    /// registry-wide [`GammaConfig::collect_matches`]). Counts are always
    /// maintained either way.
    pub collect_matches: Option<bool>,
}

/// Cumulative per-query telemetry.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Batches this query was registered for.
    pub batches: u64,
    /// Total positive (insert-side) matches delivered.
    pub positive_total: u64,
    /// Total negative (delete-side) matches delivered.
    pub negative_total: u64,
    /// Kernel stats of its group's launches, each attributed whole to
    /// every subscriber (see the module docs on attribution).
    pub kernel: KernelStats,
}

/// One query's slice of a batch result.
#[derive(Clone, Debug, Default)]
pub struct QueryDelta {
    /// The query this delta belongs to.
    pub id: QueryId,
    /// Positive incremental matches (present in `G'`, absent in `G`).
    pub positive: Vec<VMatch>,
    /// Negative incremental matches (present in `G`, absent in `G'`).
    pub negative: Vec<VMatch>,
    /// Positive count (maintained even when collection is off).
    pub positive_count: u64,
    /// Negative count.
    pub negative_count: u64,
    /// Kernel stats of the group launches that produced this delta.
    pub kernel: KernelStats,
}

/// Result of one registry batch: per-query deltas plus the shared costs.
#[derive(Clone, Debug, Default)]
pub struct RegistryBatchResult {
    /// Per-query deltas, in [`QueryId`] order.
    pub deltas: Vec<QueryDelta>,
    /// Simulated cycles of the (single, shared) GPMA structural update.
    pub update_cycles: u64,
    /// Host preprocessing seconds (canonicalize + re-encode + refresh).
    pub preprocess_seconds: f64,
    /// Data vertices whose encoding changed, summed over encoder slots.
    pub dirty_vertices: usize,
    /// Merged kernel stats across every launch of the batch.
    pub kernel: KernelStats,
    /// Whether any launch hit the timeout or match limit. Every launch of
    /// the batch shares one abort flag, so every delta of the batch may
    /// then be partial, not only the tripping pattern's (see the module
    /// docs).
    pub timed_out: bool,
    /// Net updates after canonicalization.
    pub net_updates: usize,
}

impl RegistryBatchResult {
    /// This batch's delta for `id`, if the query was registered.
    pub fn delta(&self, id: QueryId) -> Option<&QueryDelta> {
        self.deltas.iter().find(|d| d.id == id)
    }

    /// The result as a one-registration view reports it: the single
    /// delta plus the batch's shared costs.
    pub(crate) fn into_single(mut self) -> BatchResult {
        debug_assert_eq!(self.deltas.len(), 1, "a view holds one registration");
        let d = self.deltas.pop().unwrap_or_default();
        BatchResult {
            positive: d.positive,
            negative: d.negative,
            positive_count: d.positive_count,
            negative_count: d.negative_count,
            stats: BatchStats {
                preprocess_seconds: self.preprocess_seconds,
                update_cycles: self.update_cycles,
                kernel: self.kernel,
                dirty_vertices: self.dirty_vertices,
                timed_out: self.timed_out,
                net_updates: self.net_updates,
            },
        }
    }
}

/// One shared [`IncrementalEncoder`] per distinct (label set, counter
/// width) class of registered queries. Slots with `refs == 0` are kept as
/// tombstones (bounded by the number of distinct label sets ever seen):
/// dead slots are skipped per batch, and a matching registration rebuilds
/// one in place.
struct EncoderSlot {
    enc: IncrementalEncoder,
    refs: usize,
}

/// Frozen per-query serving state.
struct QueryState {
    id: QueryId,
    q: QueryGraph,
    collect: bool,
    /// Index into [`QueryRegistry::slots`].
    slot: usize,
    /// NLF query-vertex codes under the slot's shared scheme.
    qcodes: Vec<u64>,
    /// Its group's candidate table, held by the group's representative
    /// only (`None` on every other subscriber, and while a launch borrows
    /// it): the launches read only the representative's, so only it is
    /// refreshed each batch.
    table: Option<CandidateTable>,
    /// The kernel plan its group launches while this query is the
    /// group's representative. It honors the registry's coalesced
    /// setting: on the single device with `max_degenerate_k`, so a group
    /// serves exactly like a dedicated engine; on the shard executor
    /// capped at whole-query (k = 0) classes. Every subscriber keeps its
    /// own, so one promoted by [`QueryRegistry::unregister`] launches the
    /// plan its dedicated engine would.
    meta: Arc<QueryMeta>,
    stats: QueryStats,
}

/// Where a registry's kernel launches run, fixed by its constructor.
enum Executor {
    /// One simulated device: each phase is one [`Device::launch_grids`]
    /// call, with one grid per group ([`Phase::grid`]).
    Device(Device),
    /// The partitioned multi-device runtime of [`crate::shard`]: one
    /// distributed kernel phase per group.
    Shards(ShardRuntime),
}

/// The standing-query serving tier over one dynamic data graph — and the
/// one batch pipeline every engine runs through. See the
/// [module docs](self) for the sharing model and a worked example.
pub struct QueryRegistry {
    graph: DynamicGraph,
    gpma: Option<Gpma>,
    exec: Executor,
    config: GammaConfig,
    slots: Vec<EncoderSlot>,
    /// Registered queries in [`QueryId`] order.
    queries: Vec<QueryState>,
    /// The subscriptions of each registered pattern, as indices into
    /// `queries`, representative (first registered) first.
    groups: Vec<Vec<usize>>,
    next_id: u64,
    batches_processed: u64,
}

impl QueryRegistry {
    /// Builds an empty registry over `graph` on one simulated device.
    pub fn new(graph: DynamicGraph, config: GammaConfig) -> Self {
        let gpma = Gpma::from_graph(&graph, config.gpma.clone());
        Self::restore(graph, config, gpma, 0)
    }

    /// Rebuilds a registry from recovered state: the host graph mirror and
    /// the restored GPMA device store, with no queries yet — the durable
    /// layer re-registers the persisted query set in id order (grouping is
    /// a deterministic function of the registration sequence). Matching
    /// orders are recomputed against the recovered graph, so they can
    /// differ from the original registration-time orders — match *sets*
    /// are order-invariant, so delta streams still agree sorted-unique.
    pub fn restore(
        graph: DynamicGraph,
        config: GammaConfig,
        gpma: Gpma,
        batches_processed: u64,
    ) -> Self {
        let device = Device::new(config.device.clone());
        Self::assemble(
            graph,
            gpma,
            Executor::Device(device),
            config,
            batches_processed,
        )
    }

    /// Builds an empty registry over `graph` on the shard executor,
    /// partitioned once by `config.strategy` into `config.num_shards` for
    /// every pattern registered later: one graph mirror, one store and one
    /// partition with its resident sets. The shard runtime builds its own
    /// store (see `ShardRuntime::build`). With
    /// `config.base.coalesced_search` on, queries plan only their
    /// whole-query (k = 0) coalesced classes (see [`ShardedConfig::base`]),
    /// by registry policy: shards run the single device's kernel, and
    /// k > 0 classes on shards wait for a measured case of their own.
    /// `config.query_id` is ignored: ids start at 0, and each group's
    /// migrant envelopes are stamped with its representative's id.
    pub fn sharded(graph: DynamicGraph, config: &ShardedConfig) -> Self {
        let partition = Partition::build(config.strategy, config.num_shards, &graph);
        let (runtime, store) = ShardRuntime::build(&graph, config, partition);
        Self::assemble(
            graph,
            store,
            Executor::Shards(runtime),
            config.base.clone(),
            0,
        )
    }

    /// [`sharded`](Self::sharded) from recovered state: the snapshotted
    /// partition, shared store and per-shard resident sets.
    pub(crate) fn restore_sharded(
        graph: DynamicGraph,
        config: &ShardedConfig,
        partition: Partition,
        store: Gpma,
        residents: Vec<Vec<bool>>,
        batches_processed: u64,
    ) -> Self {
        let runtime = ShardRuntime::restore(&graph, config, partition, residents);
        Self::assemble(
            graph,
            store,
            Executor::Shards(runtime),
            config.base.clone(),
            batches_processed,
        )
    }

    fn assemble(
        graph: DynamicGraph,
        gpma: Gpma,
        exec: Executor,
        config: GammaConfig,
        batches_processed: u64,
    ) -> Self {
        assert_eq!(
            gpma.num_edges(),
            graph.num_edges(),
            "gpma and graph mirror disagree on edge count"
        );
        Self {
            graph,
            gpma: Some(gpma),
            exec,
            config,
            slots: Vec::new(),
            queries: Vec::new(),
            groups: Vec::new(),
            next_id: 0,
            batches_processed,
        }
    }

    /// Registers a query under a chosen id (ids must arrive in increasing
    /// order): recovered queries keep their original ids, and a sharded
    /// engine view's one registration takes [`ShardedConfig::query_id`].
    pub(crate) fn register_with_id(&mut self, id: QueryId, query: &QueryGraph, qcfg: QueryConfig) {
        assert!(
            id.0 >= self.next_id,
            "registered query ids must be increasing"
        );
        self.next_id = id.0;
        let got = self.register(query, qcfg);
        debug_assert_eq!(got, id);
    }

    /// Restores the id allocator past every id ever handed out.
    pub(crate) fn set_next_id(&mut self, next_id: u64) {
        assert!(next_id >= self.next_id);
        self.next_id = next_id;
    }

    /// Registers a standing query; its deltas appear in every subsequent
    /// [`apply_batch`](Self::apply_batch) result until unregistered.
    pub fn register(&mut self, query: &QueryGraph, qcfg: QueryConfig) -> QueryId {
        let mut want: Vec<VLabel> = query.labels().to_vec();
        want.sort_unstable();
        want.dedup();

        let found = self
            .slots
            .iter()
            .position(|s| s.enc.scheme().labels() == want.as_slice());
        // A fresh encoder build derives this query's candidate table too.
        // Tombstones are rebuilt: batches skipped them while they were dead.
        let (slot, built) = match found {
            Some(i) if self.slots[i].refs > 0 => {
                self.slots[i].refs += 1;
                (i, None)
            }
            _ => {
                let (enc, table) =
                    IncrementalEncoder::build(&self.graph, query, self.config.counter_bits);
                let fresh = EncoderSlot { enc, refs: 1 };
                let i = match found {
                    Some(i) => {
                        self.slots[i] = fresh;
                        i
                    }
                    None => {
                        self.slots.push(fresh);
                        self.slots.len() - 1
                    }
                };
                (i, Some(table))
            }
        };

        let scheme = self.slots[slot].enc.scheme();
        let qcodes: Vec<u64> = (0..query.num_vertices() as u8)
            .map(|u| scheme.encode_query_vertex(query, u))
            .collect();
        let table = built.unwrap_or_else(|| {
            CandidateTable::from_encodings(&self.slots[slot].enc.encodings, &qcodes)
        });
        // Registry policy: the shard executor plans the device's coalesced
        // classes capped at k = 0. A whole-query class only removes scans.
        // A k > 0 class queues permuted partials, which shard units split
        // off like device warps do, yet lifting the cap grows 9 of the 27
        // SHARD cells of the fixed-trace replay (GH Dense by 67%; summed
        // 250.1M -> 271.8M sim-cycles) while `sharded` gains 1.4%.
        let max_k = match self.exec {
            Executor::Device(_) => self.config.max_degenerate_k,
            Executor::Shards(_) => 0,
        };
        let meta = Arc::new(QueryMeta::build(
            query,
            &table,
            scheme,
            self.config.coalesced_search,
            max_k,
        ));

        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.queries.push(QueryState {
            id,
            q: query.clone(),
            collect: qcfg.collect_matches.unwrap_or(self.config.collect_matches),
            slot,
            qcodes,
            table: Some(table),
            meta,
            stats: QueryStats::default(),
        });
        self.rebuild_groups();
        id
    }

    /// Removes a standing query. Returns `false` if `id` is unknown.
    pub fn unregister(&mut self, id: QueryId) -> bool {
        let Some(pos) = self.queries.iter().position(|s| s.id == id) else {
            return false;
        };
        let st = self.queries.remove(pos);
        self.slots[st.slot].refs -= 1;
        self.rebuild_groups();
        true
    }

    /// Regroups from scratch, in registration order: a query joins the
    /// group of the first query with an identical pattern. Identical
    /// patterns share their label set, hence their encoder slot. Only
    /// representatives keep a candidate table; one promoted by an
    /// unregistration builds its table from its slot's current encodings.
    fn rebuild_groups(&mut self) {
        self.groups.clear();
        for qi in 0..self.queries.len() {
            let q = &self.queries[qi].q;
            match self.groups.iter_mut().find(|g| self.queries[g[0]].q == *q) {
                Some(g) => {
                    g.push(qi);
                    self.queries[qi].table = None;
                }
                None => {
                    self.groups.push(vec![qi]);
                    let st = &mut self.queries[qi];
                    if st.table.is_none() {
                        let encodings = &self.slots[st.slot].enc.encodings;
                        st.table = Some(CandidateTable::from_encodings(encodings, &st.qcodes));
                    }
                }
            }
        }
    }

    /// Applies one update batch, serving every registered query.
    pub fn apply_batch(&mut self, raw: &[Update]) -> RegistryBatchResult {
        let t0 = Instant::now();
        let batch = UpdateBatch::canonicalize(&self.graph, raw);
        let canon = t0.elapsed().as_secs_f64();
        let mut r = self.apply_canonical_batch(&batch);
        r.preprocess_seconds += canon;
        r
    }

    /// Applies an already-canonicalized batch (must be canonical w.r.t.
    /// the registry's current graph). This is the four-stage pipeline of
    /// Figure 3 that every engine runs: negative launches on the
    /// pre-update graph, one shared structural update, one re-encode per
    /// live encoder slot, a candidate refresh per group, positive launches
    /// on the post-update graph.
    pub fn apply_canonical_batch(&mut self, batch: &UpdateBatch) -> RegistryBatchResult {
        let mut result = RegistryBatchResult {
            deltas: self
                .queries
                .iter()
                .map(|s| QueryDelta {
                    id: s.id,
                    ..QueryDelta::default()
                })
                .collect(),
            net_updates: batch.len(),
            ..RegistryBatchResult::default()
        };
        if batch.is_empty() {
            self.batches_processed += 1;
            for st in &mut self.queries {
                st.stats.batches += 1;
            }
            return result;
        }

        // The kernels poll the deadline and raise `abort` once it has
        // passed. A timeout too large to add (`Duration::MAX`) is none.
        let abort = Arc::new(AtomicBool::new(false));
        let deadline = self
            .config
            .timeout
            .and_then(|t| Instant::now().checked_add(t));

        // Negative matches on the pre-update graph, anchored at net
        // deletions.
        if !batch.deletes.is_empty() {
            self.run_groups(&batch.deletes, &abort, deadline, &mut result, false);
        }

        // Structural update: the batch lands once on the shared store,
        // then on the host mirror. The shard executor charges each
        // simulated device its share of the measured cycles.
        let gpma = self.gpma.as_mut().expect("gpma present between batches");
        let dels: Vec<(VertexId, VertexId)> = batch.deletes.iter().map(|d| (d.u, d.v)).collect();
        let ins: Vec<(VertexId, VertexId, ELabel)> =
            batch.inserts.iter().map(|i| (i.u, i.v, i.label)).collect();
        let pre = gpma.stats().sim_cycles;
        gpma.delete_edges(&dels);
        let after_del = gpma.stats().sim_cycles;
        gpma.insert_edges(&ins);
        let (del_cycles, ins_cycles) = (after_del - pre, gpma.stats().sim_cycles - after_del);
        result.update_cycles = match &mut self.exec {
            Executor::Device(_) => del_cycles + ins_cycles,
            Executor::Shards(rt) => rt.charge_update(&self.graph, batch, del_cycles, ins_cycles),
        };
        batch.apply(&mut self.graph);

        // Preprocess for the next kernel: re-encode touched vertices once
        // per live encoder slot, refresh every group's dirty rows.
        let pre_t = Instant::now();
        let mut touched: Vec<VertexId> = batch
            .deletes
            .iter()
            .chain(batch.inserts.iter())
            .flat_map(|u| [u.u, u.v])
            .collect();
        touched.sort_unstable();
        touched.dedup();
        result.dirty_vertices = self.reencode(&touched);
        result.preprocess_seconds = pre_t.elapsed().as_secs_f64();

        // Positive matches on the post-update graph, anchored at net
        // insertions.
        if !batch.inserts.is_empty() {
            self.run_groups(&batch.inserts, &abort, deadline, &mut result, true);
        }

        result.timed_out = abort.load(Ordering::Relaxed);
        self.batches_processed += 1;
        for (st, d) in self.queries.iter_mut().zip(&result.deltas) {
            st.stats.batches += 1;
            st.stats.positive_total += d.positive_count;
            st.stats.negative_total += d.negative_count;
            st.stats.kernel.absorb(&d.kernel);
        }
        result
    }

    /// Runs one kernel phase (negative or positive) for every group on
    /// the registry's executor, routing each launch's count to every
    /// subscriber of its pattern and its matches to each that collects.
    /// Each group's launch state is its representative's plan and table,
    /// collecting if any subscriber does. On the single device the whole
    /// phase is one [`Device::launch_grids`] call, one grid per group over
    /// the one store; on the shard executor each group launches in turn.
    fn run_groups(
        &mut self,
        anchors: &[Update],
        abort: &Arc<AtomicBool>,
        deadline: Option<Instant>,
        result: &mut RegistryBatchResult,
        positive: bool,
    ) {
        // Both executors borrow the store as owned state and hand it back
        // once every launch of the phase has released it.
        let phase = Phase {
            gpma: Arc::new(self.gpma.take().expect("gpma present")),
            anchors,
            match_limit: self.config.match_limit,
            abort: Arc::clone(abort),
            deadline,
            signatures: self.config.bitmap_intersect,
        };
        let states: Vec<KernelShared> = self
            .groups
            .iter()
            .map(|g| {
                let collect = g.iter().any(|&qi| self.queries[qi].collect);
                let rep = &mut self.queries[g[0]];
                phase.shared(
                    Arc::clone(&rep.meta),
                    rep.table.take().expect("table present"),
                    Arc::clone(&self.slots[rep.slot].enc.encodings),
                    collect,
                )
            })
            .collect();
        let launched: Vec<(Arc<KernelShared>, KernelStats)> = match &mut self.exec {
            Executor::Device(device) => {
                let (shared, grids): (Vec<_>, Vec<_>) =
                    states.into_iter().map(|st| phase.grid(st)).unzip();
                let stats = device.launch_grids(shared.iter().zip(grids).collect());
                shared.into_iter().zip(stats).collect()
            }
            Executor::Shards(rt) => states
                .into_iter()
                .zip(&self.groups)
                .map(|(st, g)| {
                    let qid = self.queries[g[0]].id.0;
                    rt.kernel_phase(&self.graph, anchors, st, &self.config.device, qid)
                })
                .collect(),
        };
        for (g, (shared, stats)) in self.groups.iter().zip(launched) {
            let (table, mut matches, count) = finish_grid(shared);
            self.queries[g[0]].table = Some(table);
            // The last collecting subscriber takes the matches, the others
            // a copy.
            let last = g.iter().rposition(|&qi| self.queries[qi].collect);
            for (k, &qi) in g.iter().enumerate() {
                let ms = if Some(k) == last {
                    std::mem::take(&mut matches)
                } else if self.queries[qi].collect {
                    matches.clone()
                } else {
                    Vec::new()
                };
                Self::route(&mut result.deltas[qi], ms, count, &stats, positive);
            }
            result.kernel.absorb(&stats);
        }
        self.gpma = Some(phase.into_store());
    }

    fn route(
        delta: &mut QueryDelta,
        matches: Vec<VMatch>,
        count: u64,
        stats: &KernelStats,
        positive: bool,
    ) {
        if positive {
            delta.positive = matches;
            delta.positive_count = count;
        } else {
            delta.negative = matches;
            delta.negative_count = count;
        }
        delta.kernel.absorb(stats);
    }

    /// Adds a fresh data vertex (vertex insertions are a vertex plus edge
    /// insertions, §II-A): encoded under every live slot, with a candidate
    /// row in every group's table (and, on the shard executor, resident
    /// on its owner).
    pub fn add_vertex(&mut self, label: VLabel) -> VertexId {
        let v = self.graph.add_vertex(label);
        let n = self.graph.num_vertices();
        self.gpma
            .as_mut()
            .expect("gpma present between batches")
            .ensure_vertices(n);
        if let Executor::Shards(rt) = &mut self.exec {
            rt.add_vertex(v);
        }
        self.reencode(&[v]);
        v
    }

    /// Re-encodes `touched` under every live encoder slot and refreshes
    /// the dirty candidate rows of every group's table; returns the number
    /// of dirty vertices summed over slots.
    fn reencode(&mut self, touched: &[VertexId]) -> usize {
        let mut dirty_total = 0;
        for si in 0..self.slots.len() {
            if self.slots[si].refs == 0 {
                continue;
            }
            let dirty = self.slots[si].enc.reencode(&self.graph, touched);
            dirty_total += dirty.len();
            let encodings = Arc::clone(&self.slots[si].enc.encodings);
            for st in self.queries.iter_mut().filter(|s| s.slot == si) {
                if let Some(table) = st.table.as_mut() {
                    table.refresh(&dirty, &encodings, &st.qcodes);
                }
            }
        }
        dirty_total
    }

    /// Number of currently registered queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of groups, one per distinct registered pattern (≤
    /// [`num_queries`](Self::num_queries); lower means more sharing).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The current grouping, each group's subscriptions in [`QueryId`]
    /// order with the representative first.
    pub fn groups(&self) -> Vec<Vec<QueryId>> {
        self.groups
            .iter()
            .map(|g| g.iter().map(|&qi| self.queries[qi].id).collect())
            .collect()
    }

    /// Registered query ids, in registration order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries.iter().map(|s| s.id).collect()
    }

    /// Cumulative telemetry for `id`.
    pub fn stats(&self, id: QueryId) -> Option<&QueryStats> {
        self.queries.iter().find(|s| s.id == id).map(|s| &s.stats)
    }

    /// The registered pattern behind `id`.
    pub fn query(&self, id: QueryId) -> Option<&QueryGraph> {
        self.queries.iter().find(|s| s.id == id).map(|s| &s.q)
    }

    /// The kernel metadata (seeds, coalesced plan) the launches of a
    /// group `id` represents run under.
    pub(crate) fn meta(&self, id: QueryId) -> Option<&QueryMeta> {
        self.queries
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.meta.as_ref())
    }

    /// Whether `id` materializes its match deltas.
    pub fn collects(&self, id: QueryId) -> Option<bool> {
        self.queries.iter().find(|s| s.id == id).map(|s| s.collect)
    }

    /// The id the next registration will receive.
    pub fn next_query_id(&self) -> u64 {
        self.next_id
    }

    /// Read access to the host mirror of the data graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Read access to the GPMA device store (snapshot support).
    pub fn gpma(&self) -> &Gpma {
        self.gpma.as_ref().expect("gpma present between batches")
    }

    /// The shard runtime, if this registry runs on the shard executor.
    pub(crate) fn shard_runtime(&self) -> Option<&ShardRuntime> {
        match &self.exec {
            Executor::Shards(rt) => Some(rt),
            Executor::Device(_) => None,
        }
    }

    /// Cumulative cross-shard statistics, if this registry runs on the
    /// shard executor.
    pub fn shard_stats(&self) -> Option<&ShardStats> {
        self.shard_runtime().map(ShardRuntime::stats)
    }

    /// The registry-wide configuration.
    pub fn config(&self) -> &GammaConfig {
        &self.config
    }

    /// Number of batches processed so far.
    pub fn batches_processed(&self) -> u64 {
        self.batches_processed
    }

    /// Simulated seconds for a cycle count under this registry's clock.
    pub fn seconds(&self, cycles: u64) -> f64 {
        self.config.device.cycles_to_seconds(cycles)
    }

    /// Live encoder slots (label-set classes with ≥ 1 registered query).
    pub fn encoder_count(&self) -> usize {
        self.slots.iter().filter(|s| s.refs > 0).count()
    }

    /// The shared encoding scheme serving `id`.
    pub fn scheme(&self, id: QueryId) -> Option<&EncodingScheme> {
        self.queries
            .iter()
            .find(|s| s.id == id)
            .map(|s| self.slots[s.slot].enc.scheme())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamma_graph::NO_ELABEL;

    fn fig1() -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for &l in &[0u16, 0, 1, 1, 1, 1, 1, 2, 2, 2] {
            g.add_vertex(l);
        }
        for &(u, v) in &[
            (0, 3),
            (0, 4),
            (2, 3),
            (2, 4),
            (3, 7),
            (2, 8),
            (1, 5),
            (1, 6),
            (5, 6),
            (5, 9),
            (4, 7),
        ] {
            g.insert_edge(u, v, NO_ELABEL);
        }
        g
    }

    fn triangle_with_tail() -> QueryGraph {
        let mut b = QueryGraph::builder();
        let u0 = b.vertex(0);
        let u1 = b.vertex(1);
        let u2 = b.vertex(1);
        let u3 = b.vertex(2);
        b.edge(u0, u1).edge(u0, u2).edge(u1, u2).edge(u1, u3);
        b.build()
    }

    fn triangle() -> QueryGraph {
        let mut b = QueryGraph::builder();
        let u0 = b.vertex(0);
        let u1 = b.vertex(1);
        let u2 = b.vertex(1);
        b.edge(u0, u1).edge(u0, u2).edge(u1, u2);
        b.build()
    }

    fn sorted(mut v: Vec<VMatch>) -> Vec<VMatch> {
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn identical_queries_share_one_group() {
        let q = triangle_with_tail();
        let mut reg = QueryRegistry::new(fig1(), GammaConfig::default());
        let a = reg.register(&q, QueryConfig::default());
        let b = reg.register(&q, QueryConfig::default());
        assert_eq!(reg.num_queries(), 2);
        assert_eq!(reg.group_count(), 1);
        assert_eq!(reg.encoder_count(), 1);

        let r = reg.apply_batch(&[Update::insert(0, 2)]);
        let da = r.delta(a).unwrap();
        let db = r.delta(b).unwrap();
        assert_eq!(da.positive_count, 4);
        assert_eq!(db.positive_count, 4);
        assert_eq!(sorted(da.positive.clone()), sorted(db.positive.clone()));
    }

    #[test]
    fn registry_matches_dedicated_engine() {
        let q = triangle_with_tail();
        let mut engine = crate::GammaEngine::new(fig1(), &q, GammaConfig::default());
        let mut reg = QueryRegistry::new(fig1(), GammaConfig::default());
        let id = reg.register(&q, QueryConfig::default());

        for batch in [
            vec![Update::insert(0, 2)],
            vec![Update::delete(0, 3), Update::insert(6, 9)],
            vec![Update::insert(0, 3), Update::delete(0, 2)],
        ] {
            let e = engine.apply_batch(&batch);
            let r = reg.apply_batch(&batch);
            let d = r.delta(id).unwrap();
            assert_eq!(e.positive_count, d.positive_count);
            assert_eq!(e.negative_count, d.negative_count);
            assert_eq!(sorted(e.positive.clone()), sorted(d.positive.clone()));
            assert_eq!(sorted(e.negative.clone()), sorted(d.negative.clone()));
        }
    }

    #[test]
    fn mixed_classes_get_separate_encoders() {
        let mut reg = QueryRegistry::new(fig1(), GammaConfig::default());
        let a = reg.register(&triangle_with_tail(), QueryConfig::default());
        let b = reg.register(&triangle(), QueryConfig::default());
        // {A,B,C} vs {A,B}: different label sets, different encoders.
        assert_eq!(reg.encoder_count(), 2);
        assert_ne!(
            reg.scheme(a).unwrap().labels(),
            reg.scheme(b).unwrap().labels()
        );
        let r = reg.apply_batch(&[Update::insert(0, 2)]);
        assert_eq!(r.delta(a).unwrap().positive_count, 4);
        // Two new data triangles x the u1/u2 automorphism.
        assert_eq!(r.delta(b).unwrap().positive_count, 4);
    }

    #[test]
    fn unregister_revives_slot_and_regroups() {
        let q = triangle_with_tail();
        let mut reg = QueryRegistry::new(fig1(), GammaConfig::default());
        let a = reg.register(&q, QueryConfig::default());
        let b = reg.register(&q, QueryConfig::default());
        assert_eq!(reg.group_count(), 1);
        assert!(reg.unregister(a));
        assert!(!reg.unregister(a));
        assert_eq!(reg.num_queries(), 1);
        assert_eq!(reg.group_count(), 1);
        let r = reg.apply_batch(&[Update::insert(0, 2)]);
        assert!(r.delta(a).is_none());
        assert_eq!(r.delta(b).unwrap().positive_count, 4);
        // Re-registering the same class revives the tombstoned slot.
        let c = reg.register(&q, QueryConfig::default());
        assert_eq!(reg.encoder_count(), 1);
        let r = reg.apply_batch(&[Update::delete(0, 2)]);
        assert_eq!(r.delta(b).unwrap().negative_count, 4);
        assert_eq!(r.delta(c).unwrap().negative_count, 4);
    }

    #[test]
    fn promoted_subscriber_serves_like_its_dedicated_engine() {
        // `b` subscribes to `a`'s pattern, so only `a` keeps a table. The
        // first batch gives v6 (B) a C neighbor, which makes it a u1
        // candidate; after `a` leaves, `b`'s launches need that row.
        let q = triangle_with_tail();
        let mut reg = QueryRegistry::new(fig1(), GammaConfig::default());
        let a = reg.register(&q, QueryConfig::default());
        let b = reg.register(&q, QueryConfig::default());
        let mut engine = crate::GammaEngine::new(fig1(), &q, GammaConfig::default());
        let check = |reg: &mut QueryRegistry, engine: &mut crate::GammaEngine, batch: &[Update]| {
            let e = engine.apply_batch(batch);
            let r = reg.apply_batch(batch);
            let d = r.delta(b).unwrap();
            assert_eq!(e.positive_count, d.positive_count, "{batch:?}");
            assert_eq!(e.negative_count, d.negative_count, "{batch:?}");
            assert_eq!(sorted(e.positive.clone()), sorted(d.positive.clone()));
            assert_eq!(sorted(e.negative.clone()), sorted(d.negative.clone()));
            let (ek, dk) = (&e.stats.kernel, &d.kernel);
            assert_eq!(
                (ek.device_cycles, ek.busy_cycles, ek.steals, ek.num_tasks),
                (dk.device_cycles, dk.busy_cycles, dk.steals, dk.num_tasks),
                "{batch:?}"
            );
            e.positive_count + e.negative_count
        };
        check(&mut reg, &mut engine, &[Update::insert(6, 7)]);
        check(&mut reg, &mut engine, &[Update::insert(0, 2)]);
        assert!(reg.unregister(a));
        assert_eq!(reg.groups(), vec![vec![b]]);
        // Deleting (1, 6) removes the match with v6 as u1 (u0 = v1,
        // u2 = v5, u3 = v7), which a table from before the first batch
        // would not see.
        assert!(check(&mut reg, &mut engine, &[Update::delete(1, 6)]) > 0);
        check(
            &mut reg,
            &mut engine,
            &[Update::insert(1, 6), Update::delete(0, 3)],
        );
    }

    #[test]
    fn revived_slot_sees_batches_it_skipped() {
        // The {A,B} slot dies, a batch gives v2 (B) an A neighbor while no
        // query re-encodes under it, then the class registers again.
        let tri = triangle();
        let mut reg = QueryRegistry::new(fig1(), GammaConfig::default());
        reg.register(&triangle_with_tail(), QueryConfig::default());
        let a = reg.register(&tri, QueryConfig::default());
        assert!(reg.unregister(a));
        reg.apply_batch(&[Update::insert(0, 2)]);
        let b = reg.register(&tri, QueryConfig::default());
        let mut engine = crate::GammaEngine::new(reg.graph().clone(), &tri, GammaConfig::default());
        let batch = [Update::delete(0, 2)];
        let e = engine.apply_batch(&batch);
        assert_eq!(e.negative_count, 4);
        let r = reg.apply_batch(&batch);
        assert_eq!(r.delta(b).unwrap().negative_count, e.negative_count);
    }

    #[test]
    fn collect_override_counts_only() {
        let q = triangle_with_tail();
        let mut reg = QueryRegistry::new(fig1(), GammaConfig::default());
        let a = reg.register(
            &q,
            QueryConfig {
                collect_matches: Some(false),
            },
        );
        let b = reg.register(&q, QueryConfig::default());
        let r = reg.apply_batch(&[Update::insert(0, 2)]);
        let da = r.delta(a).unwrap();
        let db = r.delta(b).unwrap();
        assert_eq!(da.positive_count, 4);
        assert!(da.positive.is_empty());
        assert_eq!(db.positive.len(), 4);
    }

    #[test]
    fn empty_batch_counts_batches() {
        let mut reg = QueryRegistry::new(fig1(), GammaConfig::default());
        let id = reg.register(&triangle(), QueryConfig::default());
        let r = reg.apply_batch(&[]);
        assert_eq!(r.deltas.len(), 1);
        assert_eq!(r.delta(id).unwrap().positive_count, 0);
        assert_eq!(reg.stats(id).unwrap().batches, 1);
    }
}
