//! Crash recovery for every view of the batch pipeline: one write-ahead
//! logging wrapper, [`Durable`], over [`GammaEngine`], [`ShardedEngine`]
//! and [`QueryRegistry`].
//!
//! Every view runs its batches through one [`QueryRegistry`], so one
//! protocol covers all three, on one device and on the shard executor
//! alike. It is classic write-ahead logging at batch granularity:
//!
//! 1. **Log first.** `apply_batch` appends the *raw* (pre-canonicalization)
//!    update batch to the log, stamped with the batch epoch, and only
//!    then applies it. The appended record is the batch's commit point.
//!    Canonicalization is deterministic against the view's graph, so
//!    replaying the raw batch from the same state reproduces the same
//!    canonical batch — and the same match deltas. A batch that names a
//!    vertex outside the graph is refused before it is logged
//!    ([`WalError::Rejected`]): applying it would panic, and so would
//!    every replay of it.
//! 2. **Snapshot to bound replay, off the batch path.** A snapshot
//!    (`snapshot.bin`) captures the registry in one layout of sections:
//!    `[graph, store, query set]` — the host graph mirror, the GPMA store
//!    (whose segment geometry is history-dependent) and the registered
//!    query set with its id allocator — followed on the shard executor by
//!    `[partition, resident × S]`, the vertex partition and each shard's
//!    monotone resident set. The log is two files, `wal.log` and
//!    `wal.1.log`: one takes the appends, the other is a *spare* that
//!    holds only its synced header. Taking a snapshot at epoch `S` is a
//!    hand-off: the batch path encodes the snapshot's file image into one
//!    buffer and switches the log to the spare (it opens the file, no
//!    `fsync`, rename or directory operation), and a background thread
//!    writes the image to a tmp file, syncs it, renames it over
//!    `snapshot.bin`, syncs the directory, and only then empties the file
//!    the log left as the next spare. A log that holds no record yet (a
//!    fresh one, or one just switched to) stays where it is, and the spare
//!    stays ready, so a run of snapshots with no batch between them, such
//!    as a serving registry's registrations, switches no file and prepares
//!    no spare. Every snapshot takes this path —
//!    automatic ones ([`DurabilityConfig::snapshot_every`]), explicit
//!    [`Durable::snapshot`] calls and the registry's registrations — and
//!    the explicit and registration snapshots then wait for the thread,
//!    since their return is their commit point. The next hand-off, and
//!    dropping the view, wait for it too. If the spare still holds
//!    records when a snapshot is due (the previous one failed), the log
//!    stays where it is, and that file holds covered records followed by
//!    newer ones. A switch under group commit owes the left file a sync,
//!    paid before the new file's first one, so a synced record never
//!    waits on an unsynced older one.
//!
//!    A failed snapshot — a torn or unsynced tmp file, an unconfirmed
//!    rename — keeps the file the log left, so nothing its records hold
//!    is lost. An explicit snapshot returns the error; an automatic one
//!    never fails the batch that handed it off (that batch is logged and
//!    applied), is reported by [`Durable::snapshot_failure`], and the next
//!    one retries. Under a [`Failpoints`] schedule the snapshot's bytes,
//!    its syncs and, when the log switches, the spare's header are charged
//!    to the byte clock at the hand-off, in the order an inline snapshot
//!    and a fresh log would write them, so a chaos run replays bit-exactly
//!    whatever the background thread's timing.
//! 3. **Recover = snapshot + log tail.** Recovery restores the snapshot on
//!    the executor the configuration names — sections that do not fit it
//!    (another executor, another shard count) are [`WalError::Corrupt`] —
//!    re-registers the query set in id order, and replays every logged
//!    batch from the snapshot's epoch on through the real batch path (so
//!    recovered in-memory state is *bit-identical* to the uninterrupted
//!    run's — `tests/recovery.rs` checks the per-batch match-delta
//!    stream). The batches come from both files in epoch order, skipping
//!    the records the snapshot covers; replay stops at the first epoch no
//!    file holds. Appends resume in the file replay ended in, its torn
//!    tail truncated. The other file is emptied when it holds records —
//!    after a snapshot of the recovered state if replay read from it.

use std::path::PathBuf;
use std::thread::JoinHandle;

use gamma_gpma::Gpma;
use gamma_graph::{DynamicGraph, QueryGraph, Update};
use gamma_wal::codec::{
    decode_graph, decode_query, encode_graph, encode_query, updates_from_bytes, updates_to_bytes,
    ByteReader, ByteWriter,
};
use gamma_wal::{
    prepare_spare, Failpoints, LogReplay, Snapshot, SnapshotImage, SyncPolicy, WalError, WalReader,
    WalWriter,
};

use crate::engine::{BatchResult, GammaConfig, GammaEngine};
use crate::registry::{QueryConfig, QueryId, QueryRegistry, RegistryBatchResult};
use crate::shard::{Partition, PartitionStrategy, ShardedConfig, ShardedEngine};

const SNAPSHOT_FILE: &str = "snapshot.bin";
/// The two log files: one takes the appends, the other is the spare the
/// log switches to at the next snapshot.
const LOG_FILES: [&str; 2] = ["wal.log", "wal.1.log"];

/// Where and how durably an engine logs.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the snapshot and the log.
    pub dir: PathBuf,
    /// `fsync` cadence of the log.
    pub sync: SyncPolicy,
    /// Automatic snapshot every `n` batches (`None` = only explicit
    /// [`Durable::snapshot`] calls). The batch that reaches a multiple of
    /// `n` hands the snapshot to a background writer and switches the log
    /// to its spare file; it waits for neither the snapshot's `fsync` nor
    /// its rename (see the module docs).
    pub snapshot_every: Option<u64>,
    /// Optional deterministic I/O fault schedule (see
    /// [`gamma_wal::Failpoints`]). Every log and snapshot write of this
    /// engine goes through the shared schedule's byte clock, so a single
    /// plan addresses faults anywhere in the durable state.
    /// `None` (the default) uses plain file I/O.
    pub failpoints: Option<Failpoints>,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with per-record `fsync`, no automatic
    /// snapshots, and no fault injection.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            sync: SyncPolicy::EveryRecord,
            snapshot_every: None,
            failpoints: None,
        }
    }
}

/// What recovery found and did. `R` is what one batch of the recovered
/// view returns.
#[derive(Debug)]
pub struct RecoveryReport<R = BatchResult> {
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Batch epoch after replay — the next batch to be applied.
    pub recovered_epoch: u64,
    /// Whether both log files ended cleanly on a record boundary (a torn
    /// tail is expected after a crash and was truncated).
    pub clean: bool,
    /// Match deltas of the replayed batches, in epoch order. Replay goes
    /// through the real batch path, so these equal the deltas the original
    /// run emitted for the same epochs (the recovery harness asserts it).
    pub replayed: Vec<R>,
}

/// What registry recovery found and did: per-query deltas of the replayed
/// batches.
pub type RegistryRecoveryReport = RecoveryReport<RegistryBatchResult>;

/// A view of the batch pipeline that [`Durable`] logs, snapshots and
/// recovers: [`GammaEngine`], [`ShardedEngine`] and [`QueryRegistry`].
/// Each runs its batches through one registry, and that registry's state
/// is everything a snapshot holds.
pub trait DurableView {
    /// What one batch returns.
    type Result;

    /// The registry the view's batches run through.
    fn registry(&self) -> &QueryRegistry;

    /// Applies one raw update batch.
    fn apply(&mut self, raw: &[Update]) -> Self::Result;
}

impl DurableView for QueryRegistry {
    type Result = RegistryBatchResult;

    fn registry(&self) -> &QueryRegistry {
        self
    }

    fn apply(&mut self, raw: &[Update]) -> RegistryBatchResult {
        self.apply_batch(raw)
    }
}

/// A view with write-ahead durability: every batch is logged before it
/// executes, and `recover` rebuilds the exact pre-crash state from the
/// latest snapshot plus the log tail (see the module docs).
/// [`DurableGammaEngine`], [`DurableShardedEngine`] and
/// [`DurableQueryRegistry`] name its three instances.
pub struct Durable<V> {
    view: V,
    wal: WalWriter,
    /// Which of [`LOG_FILES`] `wal` appends to; the other is the spare.
    active: usize,
    /// Whether the spare holds only its synced header, so the log can
    /// switch to it.
    spare_ready: bool,
    /// The snapshot a background thread is writing, if any.
    pending: Option<JoinHandle<Result<(), WalError>>>,
    /// Why the latest automatic snapshot failed, until a snapshot
    /// succeeds.
    snapshot_failure: Option<WalError>,
    durability: DurabilityConfig,
}

impl<V: DurableView> Durable<V> {
    /// Initializes the durable state of a freshly built view: an empty
    /// log, its spare, and a snapshot at the view's epoch.
    fn init(view: V, durability: DurabilityConfig) -> Result<Self, WalError> {
        std::fs::create_dir_all(&durability.dir)?;
        let wal = WalWriter::create_with(
            &durability.dir.join(LOG_FILES[0]),
            durability.sync,
            view.registry().batches_processed(),
            durability.failpoints.as_ref(),
        )?;
        prepare_spare(&durability.dir.join(LOG_FILES[1]))?;
        let this = Self::from_parts(view, wal, 0, true, durability);
        // Nothing to switch away from yet: the snapshot is written here,
        // and its directory sync makes both log files' entries durable.
        this.encode_snapshot()
            .stage(
                &this.file(SNAPSHOT_FILE),
                this.durability.failpoints.as_ref(),
            )
            .write()?;
        Ok(this)
    }

    fn from_parts(
        view: V,
        wal: WalWriter,
        active: usize,
        spare_ready: bool,
        durability: DurabilityConfig,
    ) -> Self {
        Self {
            view,
            wal,
            active,
            spare_ready,
            pending: None,
            snapshot_failure: None,
            durability,
        }
    }

    /// Recovers from `durability.dir`: `restore` rebuilds the view from
    /// the snapshot, the logged batches after it replay through the real
    /// batch path in epoch order across both log files, and whatever
    /// invalid tail the crash left is truncated.
    fn recover_with(
        durability: DurabilityConfig,
        restore: impl FnOnce(&Snapshot) -> Result<V, WalError>,
    ) -> Result<(Self, RecoveryReport<V::Result>), WalError> {
        let snap = Snapshot::read(&durability.dir.join(SNAPSHOT_FILE))?;
        let mut view = restore(&snap)?;
        let path = |i: usize| durability.dir.join(LOG_FILES[i]);
        let mut logs = [WalReader::read(&path(0))?, WalReader::read(&path(1))?];

        // The batches after the snapshot: from its epoch on, each next
        // epoch is in the file whose contiguous run holds it. A record
        // below the snapshot's epoch is one the snapshot covers.
        let mut replayed = Vec::new();
        let mut replayed_from = [false; 2];
        let mut last = None;
        let mut next = snap.epoch;
        while let Some(i) = (0..2).find(|&i| holds(&logs[i], next)) {
            let first = logs[i].records[0].epoch;
            for rec in &logs[i].records[(next - first) as usize..] {
                replayed.push(view.apply(&updates_from_bytes(&rec.payload)?));
            }
            next = logs[i].last_epoch().expect("a file holding an epoch") + 1;
            replayed_from[i] = true;
            last = Some(i);
        }
        let recovered_epoch = view.registry().batches_processed();
        let clean = logs.iter().all(|l| l.tail.is_clean());

        // Appends resume in the file the replay ended in; with nothing
        // replayed, in a file without records if there is one.
        let free = |l: &LogReplay| l.records.is_empty() && l.tail.is_clean();
        let active = last.unwrap_or(if free(&logs[0]) { 0 } else { 1 });
        if last.is_none() && !free(&logs[active]) {
            // Both files hold records, none after the snapshot: every one
            // is covered, so one file is emptied to take the appends.
            prepare_spare(&path(active))?;
            logs[active] = WalReader::read(&path(active))?;
        }
        let wal = WalWriter::open_after_replay_with(
            &path(active),
            durability.sync,
            &logs[active],
            recovered_epoch,
            durability.failpoints.as_ref(),
        )?;
        let spare = 1 - active;
        let spans_both = replayed_from[spare];
        if !spans_both && !free(&logs[spare]) {
            // The spare holds only records the snapshot covers, or records
            // past a gap the replay could not cross: none is needed.
            prepare_spare(&path(spare))?;
        }
        let mut this = Self::from_parts(view, wal, active, !spans_both, durability);
        if spans_both {
            // The spare holds replayed records: a snapshot covers them
            // before it is emptied for reuse.
            this.snapshot()?;
        }
        let report = RecoveryReport {
            snapshot_epoch: snap.epoch,
            recovered_epoch,
            clean,
            replayed,
        };
        Ok((this, report))
    }

    /// Logs `raw` (durably, per the sync policy), then applies it. A batch
    /// that names a vertex outside the graph is refused with
    /// [`WalError::Rejected`] before anything is logged or applied; a
    /// batch that could not be logged is not applied either. Once a batch
    /// is logged and applied its result is returned: an automatic
    /// snapshot it hands off never turns it into an `Err` — a failed one
    /// is reported by [`snapshot_failure`](Self::snapshot_failure).
    pub fn apply_batch(&mut self, raw: &[Update]) -> Result<V::Result, WalError> {
        let n = self.view.registry().graph().num_vertices();
        if let Some(u) = raw.iter().find(|u| u.u.max(u.v) as usize >= n) {
            return Err(WalError::Rejected(format!(
                "update ({}, {}) names a vertex outside the graph's {n}",
                u.u, u.v
            )));
        }
        self.wal.append(&updates_to_bytes(raw))?;
        let result = self.view.apply(raw);
        if let Some(every) = self.durability.snapshot_every {
            if every > 0 && self.batches_processed().is_multiple_of(every) {
                if let Err(e) = self.hand_off() {
                    self.snapshot_failure = Some(e);
                }
            }
        }
        Ok(result)
    }

    /// Writes a snapshot at the current epoch and rotates the log: the
    /// same hand-off an automatic snapshot makes, then a wait for the
    /// background write. Returns once the snapshot is durable — its
    /// commit point — or with the error that kept it from being so.
    pub fn snapshot(&mut self) -> Result<(), WalError> {
        let handed = self.hand_off();
        let written = self.join();
        handed.and(written)
    }

    /// Why the latest automatic snapshot failed, or `None` if it — or any
    /// snapshot since — succeeded. Waits for a snapshot still being
    /// written first, so the answer covers every snapshot handed off so
    /// far. A failed automatic snapshot keeps the log file it would have
    /// emptied, so recovery stays complete, and the next one retries.
    pub fn snapshot_failure(&mut self) -> Option<&WalError> {
        if let Err(e) = self.join() {
            self.snapshot_failure = Some(e);
        }
        self.snapshot_failure.as_ref()
    }

    /// Hands a snapshot at the current epoch to a background thread: waits
    /// for the previous one, encodes this one's file image, and switches
    /// the log to the spare when the spare is ready and the log holds a
    /// record. The thread writes, syncs and renames the snapshot, syncs the
    /// directory, and only then empties the file the log switched away
    /// from as the next spare. A log that holds no record stays where it
    /// is: a switch would only leave an empty file to prepare again.
    /// Under a failpoint schedule the snapshot's writes and the spare's
    /// header are charged to the byte clock here, in the order an inline
    /// snapshot and a fresh log would write them. An error here is a
    /// failed switch (appends stay where they were) or a thread that could
    /// not start; the snapshot's own outcome comes from [`join`](Self::join).
    fn hand_off(&mut self) -> Result<(), WalError> {
        if let Err(e) = self.join() {
            self.snapshot_failure = Some(e);
        }
        let failpoints = self.durability.failpoints.as_ref();
        let staged = self
            .encode_snapshot()
            .stage(&self.file(SNAPSHOT_FILE), failpoints);
        let switched = if self.spare_ready && !self.wal.is_empty() {
            let spare = self.file(LOG_FILES[1 - self.active]);
            let switched = self.wal.switch_to(&spare, failpoints);
            if switched.is_ok() {
                self.active = 1 - self.active;
                self.spare_ready = false;
            }
            switched
        } else {
            Ok(())
        };
        // The file the log is not appending to is emptied once the
        // snapshot covering its records is durable, unless it is still a
        // ready spare.
        let retired = (!self.spare_ready).then(|| self.file(LOG_FILES[1 - self.active]));
        let job = std::thread::Builder::new()
            .name("gamma-snapshot".into())
            .spawn(move || {
                staged.write()?;
                retired.map_or(Ok(()), |path| prepare_spare(&path))
            });
        self.pending = Some(job?);
        switched
    }

    /// Waits for the snapshot a background thread is writing, if any, and
    /// returns its outcome. On success the spare is ready again.
    fn join(&mut self) -> Result<(), WalError> {
        let Some(job) = self.pending.take() else {
            return Ok(());
        };
        let outcome = job
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        if outcome.is_ok() {
            self.spare_ready = true;
            self.snapshot_failure = None;
        }
        outcome
    }

    /// The snapshot's file image at the current epoch: `[graph, store,
    /// query set]`, then on the shard executor `[partition, resident × S]`,
    /// each encoded straight into the one buffer the file is written from.
    fn encode_snapshot(&self) -> SnapshotImage {
        let reg = self.view.registry();
        let mut image = SnapshotImage::new(reg.batches_processed());
        image.section(|w| encode_graph(w, reg.graph()));
        image.section(|w| reg.gpma().write_snapshot(w.vec_mut()));
        image.section(|w| encode_query_set(w, reg));
        if let Some(rt) = reg.shard_runtime() {
            image.section(|w| w.vec_mut().extend(encode_partition(rt.partition())));
            for resident in rt.residents() {
                image.section(|w| w.vec_mut().extend(encode_resident(resident)));
            }
        }
        image
    }

    fn file(&self, name: &str) -> PathBuf {
        self.durability.dir.join(name)
    }

    /// Batch epoch (batches applied since creation, across restarts).
    pub fn batches_processed(&self) -> u64 {
        self.view.registry().batches_processed()
    }
}

/// Whether `log`'s contiguous run of records holds `epoch`.
fn holds(log: &LogReplay, epoch: u64) -> bool {
    match (log.records.first(), log.last_epoch()) {
        (Some(first), Some(last)) => (first.epoch..=last).contains(&epoch),
        _ => false,
    }
}

/// Dropping a durable view finishes the snapshot it handed off, so the
/// directory it leaves recovers from that snapshot.
impl<V> Drop for Durable<V> {
    fn drop(&mut self) {
        if let Some(job) = self.pending.take() {
            let _ = job.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The three views
// ---------------------------------------------------------------------------

/// [`GammaEngine`] with write-ahead durability.
pub type DurableGammaEngine = Durable<GammaEngine>;

impl DurableGammaEngine {
    /// Builds a fresh engine and initializes its durable state: a
    /// snapshot of the starting graph at epoch 0 and an empty log.
    pub fn create(
        graph: DynamicGraph,
        query: &QueryGraph,
        config: GammaConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, WalError> {
        Self::init(GammaEngine::new(graph, query, config), durability)
    }

    /// Recovers an engine from `durability.dir` (see the module docs). The
    /// directory must hold a one-device snapshot whose only registration
    /// is `query`; anything else is [`WalError::Corrupt`].
    pub fn recover(
        query: &QueryGraph,
        config: GammaConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), WalError> {
        Self::recover_with(durability, |snap| {
            let (registry, set) = restore_registry(snap, Executor::Device(&config))?;
            set.expect_only(query)?;
            Ok(GammaEngine::from_registry(registry, query))
        })
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &GammaEngine {
        &self.view
    }
}

/// [`ShardedEngine`] with write-ahead durability: one log for every
/// shard, whose raw-batch record commits the batch on all of them.
pub type DurableShardedEngine = Durable<ShardedEngine>;

impl DurableShardedEngine {
    /// Builds a fresh sharded engine and initializes its durable state: a
    /// snapshot at epoch 0 and an empty log.
    pub fn create(
        graph: DynamicGraph,
        query: &QueryGraph,
        config: ShardedConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, WalError> {
        Self::init(ShardedEngine::new(graph, query, config), durability)
    }

    /// Recovers from `durability.dir` (see the module docs): restores the
    /// snapshot's partition, shared store and resident sets, and replays
    /// the log tail. The directory must hold a shard snapshot of
    /// `config.num_shards` shards whose only registration is `query`;
    /// anything else is [`WalError::Corrupt`].
    ///
    /// ```
    /// use gamma_core::{DurabilityConfig, DurableShardedEngine, ShardedConfig};
    /// use gamma_graph::{DynamicGraph, QueryGraph, Update, NO_ELABEL};
    /// use gamma_wal::SyncPolicy;
    ///
    /// // A 2-path data graph and a triangle query: inserting (0, 2)
    /// // completes one data triangle — 6 embeddings under the unlabeled
    /// // triangle's 3! automorphisms.
    /// let mut g = DynamicGraph::new();
    /// for _ in 0..3 {
    ///     g.add_vertex(0);
    /// }
    /// g.insert_edge(0, 1, NO_ELABEL);
    /// g.insert_edge(1, 2, NO_ELABEL);
    /// let mut b = QueryGraph::builder();
    /// let (x, y, z) = (b.vertex(0), b.vertex(0), b.vertex(0));
    /// b.edge(x, y).edge(y, z).edge(x, z);
    /// let q = b.build();
    ///
    /// let dir = std::env::temp_dir().join(format!("doc_recover_{}", std::process::id()));
    /// let durability = DurabilityConfig {
    ///     dir: dir.clone(),
    ///     sync: SyncPolicy::EveryRecord,
    ///     snapshot_every: None,
    ///     failpoints: None,
    /// };
    /// let config = ShardedConfig {
    ///     num_shards: 2,
    ///     ..ShardedConfig::default()
    /// };
    ///
    /// let mut durable =
    ///     DurableShardedEngine::create(g, &q, config.clone(), durability.clone())?;
    /// let r = durable.apply_batch(&[Update::insert(0, 2)])?; // log, then apply
    /// assert_eq!(r.positive_count, 6);
    /// drop(durable); // "crash"
    ///
    /// // Recovery replays the logged batch through the real batch path:
    /// // the replayed delta equals what the original run emitted.
    /// let (recovered, report) = DurableShardedEngine::recover(&q, config, durability)?;
    /// assert_eq!(report.recovered_epoch, 1);
    /// assert_eq!(recovered.batches_processed(), 1);
    /// assert_eq!(report.replayed[0].positive_count, 6);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), gamma_wal::WalError>(())
    /// ```
    pub fn recover(
        query: &QueryGraph,
        config: ShardedConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), WalError> {
        Self::recover_with(durability, |snap| {
            let (registry, set) = restore_registry(snap, Executor::Shards(&config))?;
            set.expect_only(query)?;
            Ok(ShardedEngine::from_registry(registry, query, config))
        })
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &ShardedEngine {
        &self.view
    }
}

/// [`QueryRegistry`] with write-ahead durability. Update batches are
/// logged before they execute, like every view's; the *registered query
/// set* is snapshot state — every [`register`](Self::register)/
/// [`unregister`](Self::unregister) takes a snapshot through the same
/// hand-off as [`Durable::snapshot`] and waits for the background write
/// to finish before returning, so the subscription change commits
/// atomically with the graph state it saw. Registration is rare next to
/// batch traffic, so the snapshot-per-change cost is the simple and safe
/// trade.
pub type DurableQueryRegistry = Durable<QueryRegistry>;

impl DurableQueryRegistry {
    /// Builds a fresh, empty registry and initializes its durable state:
    /// a snapshot of the starting graph at epoch 0 and an empty log.
    pub fn create(
        graph: DynamicGraph,
        config: GammaConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, WalError> {
        Self::init(QueryRegistry::new(graph, config), durability)
    }

    /// Recovers a registry from `durability.dir` (see the module docs).
    /// Queries are re-registered in id order, so the recovered grouping is
    /// the deterministic one the same registration sequence always
    /// produces.
    pub fn recover(
        config: GammaConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RegistryRecoveryReport), WalError> {
        Self::recover_with(durability, |snap| {
            let (mut registry, set) = restore_registry(snap, Executor::Device(&config))?;
            for (id, collect, q) in &set.queries {
                registry.register_with_id(
                    *id,
                    q,
                    QueryConfig {
                        collect_matches: Some(*collect),
                    },
                );
            }
            registry.set_next_id(set.next_id);
            Ok(registry)
        })
    }

    /// Registers a standing query and durably commits the new query set
    /// (a snapshot, waited for, and a log switch) before returning its id.
    pub fn register(&mut self, query: &QueryGraph, qcfg: QueryConfig) -> Result<QueryId, WalError> {
        let id = self.view.register(query, qcfg);
        self.snapshot()?;
        Ok(id)
    }

    /// Unregisters a standing query, durably committing the removal.
    /// Returns `Ok(false)` (with no I/O) if `id` is unknown.
    pub fn unregister(&mut self, id: QueryId) -> Result<bool, WalError> {
        if !self.view.unregister(id) {
            return Ok(false);
        }
        self.snapshot()?;
        Ok(true)
    }

    /// The wrapped registry.
    pub fn registry(&self) -> &QueryRegistry {
        &self.view
    }
}

// ---------------------------------------------------------------------------
// Snapshot sections
// ---------------------------------------------------------------------------

/// The executor a recovered registry runs on, with the configuration its
/// snapshot sections are checked against.
enum Executor<'a> {
    Device(&'a GammaConfig),
    Shards(&'a ShardedConfig),
}

/// Rebuilds the registry `snap` holds on `exec`, with no query registered
/// yet, and returns it with the persisted registrations.
fn restore_registry(
    snap: &Snapshot,
    exec: Executor<'_>,
) -> Result<(QueryRegistry, QuerySet), WalError> {
    let (gpma_config, expected) = match exec {
        Executor::Device(config) => (config.gpma.clone(), 3),
        Executor::Shards(config) => (config.base.gpma.clone(), 4 + config.num_shards),
    };
    if snap.sections.len() != expected {
        return Err(WalError::Corrupt(format!(
            "snapshot holds {} sections, the configured executor expects {expected}",
            snap.sections.len()
        )));
    }
    let graph = decode_graph(&mut ByteReader::new(&snap.sections[0]))?;
    let store =
        Gpma::from_snapshot_bytes(&snap.sections[1], gpma_config).map_err(WalError::Corrupt)?;
    let set = decode_query_set(&snap.sections[2])?;
    let registry = match exec {
        Executor::Device(config) => {
            QueryRegistry::restore(graph, config.clone(), store, snap.epoch)
        }
        Executor::Shards(config) => {
            let partition = decode_partition(&snap.sections[3], config.num_shards)?;
            let residents = snap.sections[4..]
                .iter()
                .map(|s| decode_resident(s))
                .collect::<Result<Vec<_>, _>>()?;
            if residents.iter().any(|r| r.len() != graph.num_vertices()) {
                return Err(WalError::Corrupt(
                    "resident set length differs from the graph's vertex count".into(),
                ));
            }
            QueryRegistry::restore_sharded(graph, config, partition, store, residents, snap.epoch)
        }
    };
    Ok((registry, set))
}

/// The persisted registrations: the id allocator and, per query in id
/// order, its id, collection flag and pattern.
struct QuerySet {
    next_id: u64,
    queries: Vec<(QueryId, bool, QueryGraph)>,
}

impl QuerySet {
    /// Checks that an engine view's snapshot holds exactly its one query:
    /// recovering another pattern would silently build another engine.
    fn expect_only(&self, query: &QueryGraph) -> Result<(), WalError> {
        match self.queries.as_slice() {
            [(_, _, q)] if q == query => Ok(()),
            _ => Err(WalError::Corrupt(format!(
                "the snapshot's {} registrations are not exactly the engine's query",
                self.queries.len()
            ))),
        }
    }
}

fn encode_query_set(w: &mut ByteWriter, reg: &QueryRegistry) {
    let ids = reg.query_ids();
    w.put_u64(reg.next_query_id());
    w.put_u32(ids.len() as u32);
    for id in ids {
        w.put_u64(id.0);
        w.put_u8(u8::from(reg.collects(id).expect("listed id is registered")));
        encode_query(w, reg.query(id).expect("listed id is registered"));
    }
}

fn decode_query_set(bytes: &[u8]) -> Result<QuerySet, WalError> {
    let mut r = ByteReader::new(bytes);
    let next_id = r.get_u64()?;
    let n = r.get_u32()? as usize;
    if n > bytes.len() {
        return Err(WalError::Corrupt(format!(
            "query-set count {n} exceeds payload"
        )));
    }
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        let id = QueryId(r.get_u64()?);
        let collect = match r.get_u8()? {
            0 => false,
            1 => true,
            other => return Err(WalError::Corrupt(format!("unknown collect flag {other}"))),
        };
        queries.push((id, collect, decode_query(&mut r)?));
    }
    if r.remaining() != 0 {
        return Err(WalError::Corrupt("trailing bytes after query set".into()));
    }
    Ok(QuerySet { next_id, queries })
}

/// Encodes the vertex partition: strategy tag, range block width, and the
/// explicit owner table (empty for the pure-function strategies). The
/// greedy assignment depends on the graph *at build time* — rebuilding it
/// against the recovered (later) graph would reassign vertices and
/// invalidate every shard's edge placement, so the table is snapshot
/// state, exactly like the resident sets.
fn encode_partition(p: &Partition) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(match p.strategy() {
        PartitionStrategy::Hash => 0,
        PartitionStrategy::Range => 1,
        PartitionStrategy::Greedy => 2,
    });
    w.put_u32(p.block());
    let owners = p.owners().unwrap_or(&[]);
    w.put_u32(owners.len() as u32);
    for &o in owners {
        w.put_u16(o);
    }
    w.into_bytes()
}

fn decode_partition(bytes: &[u8], num_shards: usize) -> Result<Partition, WalError> {
    let mut r = ByteReader::new(bytes);
    let strategy = match r.get_u8()? {
        0 => PartitionStrategy::Hash,
        1 => PartitionStrategy::Range,
        2 => PartitionStrategy::Greedy,
        other => {
            return Err(WalError::Corrupt(format!(
                "unknown partition strategy tag {other}"
            )))
        }
    };
    let block = r.get_u32()?;
    let n = r.get_u32()? as usize;
    if n > bytes.len() {
        return Err(WalError::Corrupt(format!(
            "owner-table count {n} exceeds payload"
        )));
    }
    let mut owners = Vec::with_capacity(n);
    for _ in 0..n {
        let o = r.get_u16()?;
        if o as usize >= num_shards {
            return Err(WalError::Corrupt(format!(
                "owner {o} out of range for {num_shards} shards"
            )));
        }
        owners.push(o);
    }
    if r.remaining() != 0 {
        return Err(WalError::Corrupt("trailing bytes after partition".into()));
    }
    Ok(Partition::from_parts(strategy, num_shards, block, owners))
}

/// Packs a resident bitmap into a snapshot section (length + bitset).
fn encode_resident(flags: &[bool]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(flags.len() as u32);
    let mut byte = 0u8;
    for (i, &f) in flags.iter().enumerate() {
        if f {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            w.put_u8(byte);
            byte = 0;
        }
    }
    if !flags.len().is_multiple_of(8) {
        w.put_u8(byte);
    }
    w.into_bytes()
}

fn decode_resident(bytes: &[u8]) -> Result<Vec<bool>, WalError> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_u32()? as usize;
    let packed = n.div_ceil(8);
    if packed > r.remaining() {
        return Err(WalError::Corrupt(format!(
            "resident-set count {n} exceeds payload"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..packed {
        let b = r.get_u8()?;
        for bit in 0..8 {
            if i * 8 + bit < n {
                out.push(b & (1 << bit) != 0);
            }
        }
    }
    if r.remaining() != 0 {
        return Err(WalError::Corrupt(
            "trailing bytes after resident set".into(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registrations on a fresh log snapshot without a switch: the log
    /// holds no record, so each leaves the active file and the ready spare
    /// as they were, header-only. Once a batch is logged, the next
    /// registration switches.
    #[test]
    fn registrations_on_a_fresh_log_leave_both_files() {
        let dir = std::env::temp_dir().join(format!("gamma_fresh_log_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = DynamicGraph::new();
        for _ in 0..4 {
            g.add_vertex(0);
        }
        g.insert_edge(0, 1, 0);
        g.insert_edge(1, 2, 0);
        let mut b = QueryGraph::builder();
        let (u0, u1) = (b.vertex(0), b.vertex(0));
        b.edge(u0, u1);
        let q = b.build();
        let mut d =
            DurableQueryRegistry::create(g, GammaConfig::default(), DurabilityConfig::new(&dir))
                .unwrap();
        let header_only = |i: usize| {
            let log = WalReader::read(&dir.join(LOG_FILES[i])).unwrap();
            log.records.is_empty() && log.tail.is_clean()
        };
        for n in 1..=3 {
            d.register(&q, QueryConfig::default()).unwrap();
            assert_eq!((d.active, d.spare_ready), (0, true), "registration {n}");
            assert!(
                d.wal.is_empty() && header_only(0) && header_only(1),
                "registration {n}"
            );
        }
        d.apply_batch(&[Update::insert(2, 3)]).unwrap();
        d.register(&q, QueryConfig::default()).unwrap();
        assert_eq!((d.active, d.spare_ready), (1, true));
        assert!(header_only(0) && header_only(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resident_bitmap_roundtrip() {
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            assert_eq!(decode_resident(&encode_resident(&flags)).unwrap(), flags);
        }
    }

    #[test]
    fn resident_count_past_payload_is_corrupt() {
        // A section that claims u32::MAX entries but holds one byte is
        // refused before anything is allocated for it.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        w.put_u8(0xff);
        assert!(matches!(
            decode_resident(&w.into_bytes()),
            Err(WalError::Corrupt(_))
        ));
    }

    #[test]
    fn partition_roundtrip() {
        let hash = Partition::new(PartitionStrategy::Hash, 4, 100);
        let back = decode_partition(&encode_partition(&hash), 4).unwrap();
        assert_eq!(back.strategy(), PartitionStrategy::Hash);
        assert_eq!(back.assignments(100), hash.assignments(100));

        let greedy =
            Partition::from_parts(PartitionStrategy::Greedy, 3, 34, vec![0, 1, 2, 2, 1, 0, 0]);
        let back = decode_partition(&encode_partition(&greedy), 3).unwrap();
        assert_eq!(back.strategy(), PartitionStrategy::Greedy);
        assert_eq!(back.owners(), greedy.owners());
        // Late ids (past the table) fall back deterministically too.
        assert_eq!(back.owner(1000), greedy.owner(1000));

        // An out-of-range owner is corruption, not a panic later.
        let bad = Partition::from_parts(PartitionStrategy::Greedy, 2, 1, vec![5]);
        assert!(decode_partition(&encode_partition(&bad), 2).is_err());
    }
}
