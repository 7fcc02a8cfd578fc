//! Crash-recoverable engine wrappers: WAL + snapshot durability for
//! [`GammaEngine`] and [`ShardedEngine`].
//!
//! The protocol is classic write-ahead logging at batch granularity:
//!
//! 1. **Log first.** `apply_batch` appends the *raw* (pre-canonicalization)
//!    update batch to the log, stamped with the engine's batch epoch, and
//!    only then applies it. Canonicalization is deterministic against the
//!    engine's graph, so replaying the raw batch from the same state
//!    reproduces the same canonical batch — and the same match deltas.
//! 2. **Snapshot to bound replay.** A snapshot captures the host graph
//!    mirror plus the history-dependent device state (GPMA segment
//!    geometry; for the sharded engine also each shard's monotone resident
//!    set). Snapshots are written atomically (tmp + rename) and rotate the
//!    log: a crash between the two leaves a log whose first epoch predates
//!    the snapshot, which replay rejects as non-contiguous and recovery
//!    safely ignores — the snapshot alone is already consistent at its
//!    epoch.
//! 3. **Recover = snapshot + log tail.** Recovery restores the snapshot,
//!    replays the log's valid prefix through the real batch path (so
//!    recovered in-memory state is *bit-identical* to the uninterrupted
//!    run's — `tests/recovery.rs` checks the per-batch match-delta stream),
//!    truncates any torn tail, and resumes appending.
//!
//! The sharded variant logs per shard — each shard's slice of the batch to
//! its own log, every epoch (possibly empty, keeping epochs contiguous
//! per log) — and commits the epoch in a separate **manifest** only after
//! every per-shard append landed. The manifest is the atomic commit point:
//! recovery discards per-shard records beyond the last committed epoch, so
//! all shards recover to the same batch boundary no matter where between
//! two shard appends the crash fell.

use std::path::{Path, PathBuf};

use gamma_gpma::Gpma;
use gamma_graph::{DynamicGraph, QueryGraph, Update, VertexId};
use gamma_wal::codec::{decode_graph, encode_graph, ByteReader, ByteWriter};
use gamma_wal::{
    manifest_len, read_manifest, Failpoints, ManifestWriter, Snapshot, SyncPolicy, WalError,
    WalReader, WalWriter,
};

use crate::engine::{BatchResult, GammaConfig, GammaEngine};
use crate::registry::{QueryConfig, QueryId, QueryRegistry, RegistryBatchResult};
use crate::shard::{Partition, PartitionStrategy, ShardedConfig, ShardedEngine};

const SNAPSHOT_FILE: &str = "snapshot.bin";
const LOG_FILE: &str = "wal.log";
const MANIFEST_FILE: &str = "manifest.bin";

/// Where and how durably an engine logs.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the snapshot, log(s) and manifest.
    pub dir: PathBuf,
    /// `fsync` cadence of the log(s).
    pub sync: SyncPolicy,
    /// Automatic snapshot every `n` batches (`None` = only explicit
    /// [`DurableGammaEngine::snapshot`] calls). Snapshots rotate the log.
    pub snapshot_every: Option<u64>,
    /// Optional deterministic I/O fault schedule (see
    /// [`gamma_wal::Failpoints`]). Every log, manifest and snapshot write
    /// of this engine goes through the shared schedule's byte clock, so a
    /// single plan addresses faults anywhere in the durable state.
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

    /// Builder: attach a deterministic I/O fault schedule.
    pub fn with_failpoints(mut self, failpoints: Failpoints) -> Self {
        self.failpoints = Some(failpoints);
        self
    }
}

/// What recovery found and did.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Batch epoch after replay — the next batch to be applied.
    pub recovered_epoch: u64,
    /// Whether every log ended cleanly on a record boundary (a torn or
    /// discarded tail is expected after a crash and was truncated).
    pub clean: bool,
    /// Match deltas of the replayed batches, in epoch order. Replay goes
    /// through the real batch path, so these equal the deltas the original
    /// run emitted for the same epochs (the recovery harness asserts it).
    pub replayed: Vec<BatchResult>,
}

fn shard_log_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("wal_shard{shard}.log"))
}

// ---------------------------------------------------------------------------
// Single-device engine
// ---------------------------------------------------------------------------

/// [`GammaEngine`] with write-ahead durability. Every applied batch is
/// logged before it executes; [`DurableGammaEngine::recover`] rebuilds the
/// exact pre-crash state from the latest snapshot plus the log tail.
pub struct DurableGammaEngine {
    engine: GammaEngine,
    wal: WalWriter,
    durability: DurabilityConfig,
}

impl DurableGammaEngine {
    /// Builds a fresh engine and initializes its durable state: a
    /// snapshot of the starting graph at epoch 0 and an empty log.
    pub fn create(
        graph: DynamicGraph,
        query: &QueryGraph,
        config: GammaConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, WalError> {
        std::fs::create_dir_all(&durability.dir)?;
        let engine = GammaEngine::new(graph, query, config);
        let wal = WalWriter::create_with(
            &durability.dir.join(LOG_FILE),
            durability.sync,
            0,
            durability.failpoints.as_ref(),
        )?;
        let this = Self {
            engine,
            wal,
            durability,
        };
        this.write_snapshot()?;
        Ok(this)
    }

    /// Recovers an engine from `durability.dir`: restores the snapshot,
    /// replays the log's valid prefix through the real batch path, and
    /// truncates whatever invalid tail the crash left.
    pub fn recover(
        query: &QueryGraph,
        config: GammaConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let snap = Snapshot::read(&durability.dir.join(SNAPSHOT_FILE))?;
        if snap.sections.len() != 2 {
            return Err(WalError::Corrupt(format!(
                "engine snapshot holds {} sections, expected 2",
                snap.sections.len()
            )));
        }
        let graph = decode_graph(&mut ByteReader::new(&snap.sections[0]))?;
        let gpma = Gpma::from_snapshot_bytes(&snap.sections[1], config.gpma.clone())
            .map_err(WalError::Corrupt)?;
        let mut engine = GammaEngine::restore(graph, query, config, gpma, snap.epoch);

        let log_path = durability.dir.join(LOG_FILE);
        let replay = WalReader::replay(&log_path, snap.epoch)?;
        let mut replayed = Vec::with_capacity(replay.records.len());
        for rec in &replay.records {
            let ups = gamma_wal::codec::updates_from_bytes(&rec.payload)?;
            replayed.push(engine.apply_batch(&ups));
        }
        let recovered_epoch = engine.batches_processed();
        let wal = WalWriter::open_after_replay_with(
            &log_path,
            durability.sync,
            &replay,
            recovered_epoch,
            durability.failpoints.as_ref(),
        )?;
        let report = RecoveryReport {
            snapshot_epoch: snap.epoch,
            recovered_epoch,
            clean: replay.tail.is_clean(),
            replayed,
        };
        Ok((
            Self {
                engine,
                wal,
                durability,
            },
            report,
        ))
    }

    /// Logs `raw` (durably, per the sync policy), then applies it.
    pub fn apply_batch(&mut self, raw: &[Update]) -> Result<BatchResult, WalError> {
        self.wal.append(&gamma_wal::codec::updates_to_bytes(raw))?;
        let result = self.engine.apply_batch(raw);
        if let Some(every) = self.durability.snapshot_every {
            if every > 0 && self.engine.batches_processed().is_multiple_of(every) {
                self.snapshot()?;
            }
        }
        Ok(result)
    }

    /// Writes a snapshot at the current epoch and rotates the log.
    pub fn snapshot(&mut self) -> Result<(), WalError> {
        self.write_snapshot()?;
        self.wal = WalWriter::create_with(
            &self.durability.dir.join(LOG_FILE),
            self.durability.sync,
            self.engine.batches_processed(),
            self.durability.failpoints.as_ref(),
        )?;
        Ok(())
    }

    fn write_snapshot(&self) -> Result<(), WalError> {
        let mut g = ByteWriter::new();
        encode_graph(&mut g, self.engine.graph());
        Snapshot {
            epoch: self.engine.batches_processed(),
            sections: vec![g.into_bytes(), self.engine.gpma().snapshot_bytes()],
        }
        .write_with(
            &self.durability.dir.join(SNAPSHOT_FILE),
            self.durability.failpoints.as_ref(),
        )
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &GammaEngine {
        &self.engine
    }

    /// Batch epoch (batches applied since creation, across restarts).
    pub fn batches_processed(&self) -> u64 {
        self.engine.batches_processed()
    }
}

// ---------------------------------------------------------------------------
// Sharded engine
// ---------------------------------------------------------------------------

/// [`ShardedEngine`] with per-shard write-ahead logs and a batch-epoch
/// manifest as the cross-shard commit point (see the module docs).
pub struct DurableShardedEngine {
    engine: ShardedEngine,
    wals: Vec<WalWriter>,
    manifest: ManifestWriter,
    durability: DurabilityConfig,
}

/// Encodes one shard's slice of a batch: `(original index, update)` pairs,
/// so recovery can reassemble the exact original batch order by merging
/// the per-shard slices on the index.
fn encode_shard_slice(slice: &[(u32, Update)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(slice.len() as u32);
    for &(idx, u) in slice {
        w.put_u32(idx);
        w.put_u8(match u.op {
            gamma_graph::Op::Insert => 0,
            gamma_graph::Op::Delete => 1,
        });
        w.put_u32(u.u);
        w.put_u32(u.v);
        w.put_u16(u.label);
    }
    w.into_bytes()
}

fn decode_shard_slice(bytes: &[u8]) -> Result<Vec<(u32, Update)>, WalError> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_u32()? as usize;
    if n > bytes.len() {
        return Err(WalError::Corrupt(format!(
            "slice count {n} exceeds payload"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.get_u32()?;
        let op = match r.get_u8()? {
            0 => gamma_graph::Op::Insert,
            1 => gamma_graph::Op::Delete,
            other => return Err(WalError::Corrupt(format!("unknown update op {other}"))),
        };
        let u = r.get_u32()?;
        let v = r.get_u32()?;
        let label = r.get_u16()?;
        out.push((idx, Update { op, u, v, label }));
    }
    if r.remaining() != 0 {
        return Err(WalError::Corrupt("trailing bytes after shard slice".into()));
    }
    Ok(out)
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

impl DurableShardedEngine {
    /// Builds a fresh sharded engine and initializes its durable state:
    /// snapshot at epoch 0, one empty log per shard, an empty manifest.
    pub fn create(
        graph: DynamicGraph,
        query: &QueryGraph,
        config: ShardedConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, WalError> {
        std::fs::create_dir_all(&durability.dir)?;
        let engine = ShardedEngine::new(graph, query, config);
        let sync_each = durability.sync == SyncPolicy::EveryRecord;
        let mut wals = Vec::with_capacity(engine.config().num_shards);
        for s in 0..engine.config().num_shards {
            wals.push(WalWriter::create_with(
                &shard_log_path(&durability.dir, s),
                durability.sync,
                0,
                durability.failpoints.as_ref(),
            )?);
        }
        let manifest = ManifestWriter::create_with(
            &durability.dir.join(MANIFEST_FILE),
            0,
            sync_each,
            durability.failpoints.as_ref(),
        )?;
        let this = Self {
            engine,
            wals,
            manifest,
            durability,
        };
        this.write_snapshot()?;
        Ok(this)
    }

    /// Recovers from `durability.dir`: restores the snapshot, replays
    /// every shard log up to the manifest's committed boundary (discarding
    /// per-shard records the crash left uncommitted), and reopens logs and
    /// manifest at that common epoch.
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
        let num_shards = config.num_shards;
        let snap = Snapshot::read(&durability.dir.join(SNAPSHOT_FILE))?;
        if snap.sections.len() != 3 + num_shards {
            return Err(WalError::Corrupt(format!(
                "sharded snapshot holds {} sections, expected {}",
                snap.sections.len(),
                3 + num_shards
            )));
        }
        let graph = decode_graph(&mut ByteReader::new(&snap.sections[0]))?;
        let partition = decode_partition(&snap.sections[1], num_shards)?;
        let store = Gpma::from_snapshot_bytes(&snap.sections[2], config.base.gpma.clone())
            .map_err(WalError::Corrupt)?;
        let mut residents = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            residents.push(decode_resident(&snap.sections[3 + s])?);
        }

        // Replay every shard log; the recovery boundary is the manifest's
        // last committed epoch, further capped by each log's contiguous
        // coverage (a corrupted committed record loses its epoch on every
        // shard — they must stay in lockstep).
        let man = read_manifest(&durability.dir.join(MANIFEST_FILE), snap.epoch)?;
        let mut boundary = man.last_committed.map_or(snap.epoch, |e| e + 1);
        let mut clean = man.clean;
        let mut replays = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let replay = WalReader::replay(&shard_log_path(&durability.dir, s), snap.epoch)?;
            clean &= replay.tail.is_clean();
            boundary = boundary.min(replay.last_epoch().map_or(snap.epoch, |e| e + 1));
            replays.push(replay);
        }
        for replay in &mut replays {
            clean &= replay.last_epoch().map_or(snap.epoch, |e| e + 1) == boundary;
            replay.discard_from(boundary);
        }

        let mut engine = ShardedEngine::restore(
            graph, query, config, partition, store, residents, snap.epoch,
        );
        let mut replayed = Vec::with_capacity((boundary - snap.epoch) as usize);
        for (i, epoch) in (snap.epoch..boundary).enumerate() {
            // Merge the per-shard slices back into the original batch.
            let mut merged: Vec<(u32, Update)> = Vec::new();
            for replay in &replays {
                debug_assert_eq!(replay.records[i].epoch, epoch);
                merged.extend(decode_shard_slice(&replay.records[i].payload)?);
            }
            merged.sort_unstable_by_key(|&(idx, _)| idx);
            let batch: Vec<Update> = merged.into_iter().map(|(_, u)| u).collect();
            replayed.push(engine.apply_batch(&batch));
        }

        let sync_each = durability.sync == SyncPolicy::EveryRecord;
        let mut wals = Vec::with_capacity(num_shards);
        for (s, replay) in replays.iter().enumerate() {
            wals.push(WalWriter::open_after_replay_with(
                &shard_log_path(&durability.dir, s),
                durability.sync,
                replay,
                boundary,
                durability.failpoints.as_ref(),
            )?);
        }
        let manifest = ManifestWriter::open_after_replay_with(
            &durability.dir.join(MANIFEST_FILE),
            man.valid_len.min(manifest_len(boundary - snap.epoch)),
            boundary,
            sync_each,
            durability.failpoints.as_ref(),
        )?;
        let report = RecoveryReport {
            snapshot_epoch: snap.epoch,
            recovered_epoch: boundary,
            clean,
            replayed,
        };
        Ok((
            Self {
                engine,
                wals,
                manifest,
                durability,
            },
            report,
        ))
    }

    /// Logs `raw` across the per-shard logs (every shard gets a record
    /// every epoch, possibly empty), commits the epoch in the manifest,
    /// then applies the batch.
    pub fn apply_batch(&mut self, raw: &[Update]) -> Result<BatchResult, WalError> {
        let num_shards = self.wals.len();
        let mut slices: Vec<Vec<(u32, Update)>> = vec![Vec::new(); num_shards];
        for (idx, &u) in raw.iter().enumerate() {
            let anchor = u.u.min(u.v) as VertexId;
            // Live-owner routing: after a fail-stop the dead shard's log
            // receives only empty records (epochs stay contiguous per log)
            // while its slices land on the surviving owner's log. Recovery
            // merges the per-shard slices back by index, so slice placement
            // never affects the replayed batch — it only has to be a
            // function of durable state, which `owner_shard` is for the
            // repaired partition (the repair table is snapshot state).
            slices[self.engine.owner_shard(anchor)].push((idx as u32, u));
        }
        for (wal, slice) in self.wals.iter_mut().zip(&slices) {
            wal.append(&encode_shard_slice(slice))?;
        }
        // The manifest record commits the epoch only once every shard's
        // append is durable.
        if self.durability.sync == SyncPolicy::EveryRecord {
            for wal in &mut self.wals {
                wal.sync()?;
            }
        }
        self.manifest.commit()?;
        let result = self.engine.apply_batch(raw);
        if let Some(every) = self.durability.snapshot_every {
            if every > 0 && self.engine.batches_processed().is_multiple_of(every) {
                self.snapshot()?;
            }
        }
        Ok(result)
    }

    /// Writes a snapshot at the current epoch and rotates logs + manifest.
    pub fn snapshot(&mut self) -> Result<(), WalError> {
        self.write_snapshot()?;
        let epoch = self.engine.batches_processed();
        let sync_each = self.durability.sync == SyncPolicy::EveryRecord;
        for (s, wal) in self.wals.iter_mut().enumerate() {
            *wal = WalWriter::create_with(
                &shard_log_path(&self.durability.dir, s),
                self.durability.sync,
                epoch,
                self.durability.failpoints.as_ref(),
            )?;
        }
        self.manifest = ManifestWriter::create_with(
            &self.durability.dir.join(MANIFEST_FILE),
            epoch,
            sync_each,
            self.durability.failpoints.as_ref(),
        )?;
        Ok(())
    }

    fn write_snapshot(&self) -> Result<(), WalError> {
        let mut g = ByteWriter::new();
        encode_graph(&mut g, self.engine.graph());
        let mut sections = vec![g.into_bytes(), encode_partition(self.engine.partition())];
        let (store, residents) = self.engine.shard_state();
        sections.push(store.snapshot_bytes());
        for resident in residents {
            sections.push(encode_resident(resident));
        }
        Snapshot {
            epoch: self.engine.batches_processed(),
            sections,
        }
        .write_with(
            &self.durability.dir.join(SNAPSHOT_FILE),
            self.durability.failpoints.as_ref(),
        )
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Batch epoch (batches applied since creation, across restarts).
    pub fn batches_processed(&self) -> u64 {
        self.engine.batches_processed()
    }
}

// ---------------------------------------------------------------------------
// Standing-query registry
// ---------------------------------------------------------------------------

/// Encodes the registered query set: the id allocator plus, per query in
/// id order, its id, collection flag, and pattern.
fn encode_query_set(reg: &QueryRegistry) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let ids = reg.query_ids();
    w.put_u64(reg.next_query_id());
    w.put_u32(ids.len() as u32);
    for id in ids {
        w.put_u64(id.0);
        w.put_u8(u8::from(reg.collects(id).expect("listed id is registered")));
        gamma_wal::codec::encode_query(&mut w, reg.query(id).expect("listed id is registered"));
    }
    w.into_bytes()
}

fn decode_query_set(bytes: &[u8]) -> Result<(u64, Vec<(QueryId, bool, QueryGraph)>), WalError> {
    let mut r = ByteReader::new(bytes);
    let next_id = r.get_u64()?;
    let n = r.get_u32()? as usize;
    if n > bytes.len() {
        return Err(WalError::Corrupt(format!(
            "query-set count {n} exceeds payload"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = QueryId(r.get_u64()?);
        let collect = match r.get_u8()? {
            0 => false,
            1 => true,
            other => return Err(WalError::Corrupt(format!("unknown collect flag {other}"))),
        };
        let q = gamma_wal::codec::decode_query(&mut r)?;
        out.push((id, collect, q));
    }
    if r.remaining() != 0 {
        return Err(WalError::Corrupt("trailing bytes after query set".into()));
    }
    Ok((next_id, out))
}

/// [`QueryRegistry`] with write-ahead durability. Update batches are
/// logged before they execute, exactly like [`DurableGammaEngine`]; the
/// *registered query set* is snapshot state — every
/// [`register`](Self::register)/[`unregister`](Self::unregister) writes a
/// fresh snapshot (and rotates the log) before returning, so the
/// subscription change commits atomically with the graph state it saw.
/// Registration is rare next to batch traffic, so the snapshot-per-change
/// cost is the simple and safe trade.
pub struct DurableQueryRegistry {
    registry: QueryRegistry,
    wal: WalWriter,
    durability: DurabilityConfig,
}

/// What registry recovery found and did.
#[derive(Debug)]
pub struct RegistryRecoveryReport {
    /// Epoch of the snapshot recovery started from.
    pub snapshot_epoch: u64,
    /// Batch epoch after replay — the next batch to be applied.
    pub recovered_epoch: u64,
    /// Whether the log ended cleanly on a record boundary.
    pub clean: bool,
    /// Per-query deltas of the replayed batches, in epoch order.
    pub replayed: Vec<RegistryBatchResult>,
}

impl DurableQueryRegistry {
    /// Builds a fresh, empty registry and initializes its durable state:
    /// a snapshot of the starting graph at epoch 0 and an empty log.
    pub fn create(
        graph: DynamicGraph,
        config: GammaConfig,
        durability: DurabilityConfig,
    ) -> Result<Self, WalError> {
        std::fs::create_dir_all(&durability.dir)?;
        let registry = QueryRegistry::new(graph, config);
        let wal = WalWriter::create_with(
            &durability.dir.join(LOG_FILE),
            durability.sync,
            0,
            durability.failpoints.as_ref(),
        )?;
        let this = Self {
            registry,
            wal,
            durability,
        };
        this.write_snapshot()?;
        Ok(this)
    }

    /// Recovers a registry from `durability.dir`: restores the snapshot
    /// (graph, device store, and registered query set), replays the log's
    /// valid prefix through the real batch path, and truncates whatever
    /// invalid tail the crash left. Queries are re-registered in id order,
    /// so the recovered grouping is the deterministic one the same
    /// registration sequence always produces.
    pub fn recover(
        config: GammaConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RegistryRecoveryReport), WalError> {
        let snap = Snapshot::read(&durability.dir.join(SNAPSHOT_FILE))?;
        if snap.sections.len() != 3 {
            return Err(WalError::Corrupt(format!(
                "registry snapshot holds {} sections, expected 3",
                snap.sections.len()
            )));
        }
        let graph = decode_graph(&mut ByteReader::new(&snap.sections[0]))?;
        let gpma = Gpma::from_snapshot_bytes(&snap.sections[1], config.gpma.clone())
            .map_err(WalError::Corrupt)?;
        let (next_id, queries) = decode_query_set(&snap.sections[2])?;
        let mut registry = QueryRegistry::restore(graph, config, gpma, snap.epoch);
        for (id, collect, q) in &queries {
            registry.register_with_id(
                *id,
                q,
                QueryConfig {
                    collect_matches: Some(*collect),
                },
            );
        }
        registry.set_next_id(next_id);

        let log_path = durability.dir.join(LOG_FILE);
        let replay = WalReader::replay(&log_path, snap.epoch)?;
        let mut replayed = Vec::with_capacity(replay.records.len());
        for rec in &replay.records {
            let ups = gamma_wal::codec::updates_from_bytes(&rec.payload)?;
            replayed.push(registry.apply_batch(&ups));
        }
        let recovered_epoch = registry.batches_processed();
        let wal = WalWriter::open_after_replay_with(
            &log_path,
            durability.sync,
            &replay,
            recovered_epoch,
            durability.failpoints.as_ref(),
        )?;
        let report = RegistryRecoveryReport {
            snapshot_epoch: snap.epoch,
            recovered_epoch,
            clean: replay.tail.is_clean(),
            replayed,
        };
        Ok((
            Self {
                registry,
                wal,
                durability,
            },
            report,
        ))
    }

    /// Registers a standing query and durably commits the new query set
    /// (snapshot + log rotation) before returning its id.
    pub fn register(&mut self, query: &QueryGraph, qcfg: QueryConfig) -> Result<QueryId, WalError> {
        let id = self.registry.register(query, qcfg);
        self.snapshot()?;
        Ok(id)
    }

    /// Unregisters a standing query, durably committing the removal.
    /// Returns `Ok(false)` (with no I/O) if `id` is unknown.
    pub fn unregister(&mut self, id: QueryId) -> Result<bool, WalError> {
        if !self.registry.unregister(id) {
            return Ok(false);
        }
        self.snapshot()?;
        Ok(true)
    }

    /// Logs `raw` (durably, per the sync policy), then applies it.
    pub fn apply_batch(&mut self, raw: &[Update]) -> Result<RegistryBatchResult, WalError> {
        self.wal.append(&gamma_wal::codec::updates_to_bytes(raw))?;
        let result = self.registry.apply_batch(raw);
        if let Some(every) = self.durability.snapshot_every {
            if every > 0 && self.registry.batches_processed().is_multiple_of(every) {
                self.snapshot()?;
            }
        }
        Ok(result)
    }

    /// Writes a snapshot at the current epoch and rotates the log.
    pub fn snapshot(&mut self) -> Result<(), WalError> {
        self.write_snapshot()?;
        self.wal = WalWriter::create_with(
            &self.durability.dir.join(LOG_FILE),
            self.durability.sync,
            self.registry.batches_processed(),
            self.durability.failpoints.as_ref(),
        )?;
        Ok(())
    }

    fn write_snapshot(&self) -> Result<(), WalError> {
        let mut g = ByteWriter::new();
        encode_graph(&mut g, self.registry.graph());
        Snapshot {
            epoch: self.registry.batches_processed(),
            sections: vec![
                g.into_bytes(),
                self.registry.gpma().snapshot_bytes(),
                encode_query_set(&self.registry),
            ],
        }
        .write_with(
            &self.durability.dir.join(SNAPSHOT_FILE),
            self.durability.failpoints.as_ref(),
        )
    }

    /// The wrapped registry.
    pub fn registry(&self) -> &QueryRegistry {
        &self.registry
    }

    /// Batch epoch (batches applied since creation, across restarts).
    pub fn batches_processed(&self) -> u64 {
        self.registry.batches_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_bitmap_roundtrip() {
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            assert_eq!(decode_resident(&encode_resident(&flags)).unwrap(), flags);
        }
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

    #[test]
    fn shard_slice_roundtrip() {
        let slice = vec![
            (0u32, Update::insert(1, 2)),
            (3, Update::delete(4, 5)),
            (7, Update::insert_labeled(6, 7, 9)),
        ];
        assert_eq!(
            decode_shard_slice(&encode_shard_slice(&slice)).unwrap(),
            slice
        );
    }
}
