//! The append-only, checksummed, fsync-batched write-ahead log.
//!
//! ## On-disk format
//!
//! ```text
//! file   := magic "GWAL" | version u32 | record*
//! record := len u32 | epoch u64 | crc u32 | payload[len]
//! ```
//!
//! `crc` is the CRC-32 of `epoch (LE bytes) || payload`, so a flipped bit
//! in either the header's epoch or the payload is detected. `len` is
//! validated against the bytes actually present: a record whose frame
//! extends past end-of-file is a *torn tail* (the expected shape after a
//! crash mid-append), which replay reports distinctly from corruption.
//!
//! ## Replay contract
//!
//! [`WalReader::replay`] returns every record of the longest valid prefix,
//! plus a [`TailState`] describing why it stopped and the byte offset of
//! the first invalid frame. Recovery truncates the file at that offset
//! before appending again ([`WalWriter::open_after_replay`]), so a
//! recovered log is always fully valid. Epoch contiguity (each record's
//! epoch must be exactly `previous + 1`) is also enforced here: a
//! duplicate or skipped epoch — a replayed batch applied twice would
//! silently diverge — terminates replay at the last contiguous record.
//! [`WalReader::read`] applies the same rules from whatever epoch the
//! file's first record carries, for a reader that decides itself which
//! records it needs.
//!
//! ## Spare files
//!
//! A log can move its appends to a *spare*: a file that holds only its
//! header, already synced ([`prepare_spare`]). [`WalWriter::switch_to`]
//! adopts one with no `fsync`, rename or directory operation, which is
//! what lets a snapshot rotate the log without waiting for the disk.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::io::{boxed_io, map_hard, retry_io, Failpoints, WalIo};
use crate::WalError;

const MAGIC: &[u8; 4] = b"GWAL";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 8;
/// Frame bytes before the payload: len + epoch + crc.
const FRAME_LEN: usize = 4 + 8 + 4;
/// Upper bound on a single record payload (sanity check against reading a
/// garbage length as a multi-gigabyte allocation).
const MAX_PAYLOAD: usize = 1 << 30;

/// When the writer calls `fsync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every appended record (strongest durability).
    EveryRecord,
    /// `fsync` once per `n` appended records (group commit). An explicit
    /// [`WalWriter::sync`] flushes the remainder.
    EveryN(u32),
    /// Never `fsync` automatically (tests / throwaway logs).
    Never,
}

/// One replayed log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotone batch epoch (the engine's `batches_processed` at append).
    pub epoch: u64,
    /// The record payload (an encoded update batch, for the engines).
    pub payload: Vec<u8>,
}

/// Why replay stopped where it did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TailState {
    /// Every frame decoded and the file ended exactly on a record
    /// boundary.
    Clean,
    /// The final frame was cut short — the signature of a crash
    /// mid-append. Contains a human-readable description.
    Torn(String),
    /// A complete frame failed its checksum or sanity checks.
    Corrupt(String),
    /// A frame decoded but broke epoch contiguity (duplicate or skipped
    /// epoch). Contains the offending epoch and the expected one.
    NonContiguous {
        /// Epoch found in the offending record.
        found: u64,
        /// Epoch replay required at that position.
        expected: u64,
    },
}

impl TailState {
    /// Whether the log was fully intact.
    pub fn is_clean(&self) -> bool {
        matches!(self, TailState::Clean)
    }
}

/// The result of replaying a log file.
#[derive(Debug)]
pub struct LogReplay {
    /// Records of the longest valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Why the replay stopped.
    pub tail: TailState,
    /// Byte offset of the first invalid frame (== file length when
    /// clean). Truncating the file here removes exactly the invalid tail.
    pub valid_len: u64,
}

impl LogReplay {
    /// Epoch of the last valid record, if any.
    pub fn last_epoch(&self) -> Option<u64> {
        self.records.last().map(|r| r.epoch)
    }
}

/// Append side of the log.
///
/// All writes go through an injectable [`WalIo`]; transient errors are
/// absorbed by a bounded deterministic retry loop (virtual-clock backoff,
/// see [`WalWriter::retries`] / [`WalWriter::backoff_cycles`]), permanent
/// ones surface as typed [`WalError`]s.
#[derive(Debug)]
pub struct WalWriter {
    io: Box<dyn WalIo>,
    path: PathBuf,
    policy: SyncPolicy,
    appended_since_sync: u32,
    next_epoch: u64,
    retries: u64,
    backoff_cycles: u64,
    /// Files this writer switched away from while records appended to
    /// them were not yet synced: the next [`WalWriter::sync`] syncs them
    /// first, so no record becomes durable ahead of an earlier one.
    behind: Vec<File>,
    /// The file holds nothing past its header: no record, nor what a
    /// failed append may have left.
    empty: bool,
}

/// The file header: magic and version.
fn header() -> [u8; HEADER_LEN as usize] {
    let mut h = [0; HEADER_LEN as usize];
    h[..4].copy_from_slice(MAGIC);
    h[4..].copy_from_slice(&VERSION.to_le_bytes());
    h
}

/// Makes `path` a ready spare for [`WalWriter::switch_to`]: a log holding
/// only its header, synced. Creates the file if it is missing and drops
/// every record it holds otherwise, so call it only on a file whose
/// records a snapshot already covers. Plain file I/O: no failpoint
/// schedule sees it.
pub fn prepare_spare(path: &Path) -> Result<(), WalError> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    // The header first, then the cut: a crash in between leaves a valid
    // header over records a snapshot covers, never a headerless file.
    file.write_all(&header())?;
    file.set_len(HEADER_LEN)?;
    file.sync_data()
        .map_err(|e| WalError::SyncFailed(format!("spare log sync: {e}")))
}

impl WalWriter {
    /// Creates (or truncates) a log whose first record will carry
    /// `first_epoch`.
    pub fn create(path: &Path, policy: SyncPolicy, first_epoch: u64) -> Result<Self, WalError> {
        Self::create_with(path, policy, first_epoch, None)
    }

    /// [`WalWriter::create`] with an optional failpoint schedule wired
    /// under the writer's I/O.
    pub fn create_with(
        path: &Path,
        policy: SyncPolicy,
        first_epoch: u64,
        failpoints: Option<&Failpoints>,
    ) -> Result<Self, WalError> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut s = Self {
            io: boxed_io(file, failpoints),
            path: path.to_path_buf(),
            policy,
            appended_since_sync: 0,
            next_epoch: first_epoch,
            retries: 0,
            backoff_cycles: 0,
            behind: Vec::new(),
            empty: true,
        };
        let header = header();
        retry_io(
            "log header write",
            &mut s.retries,
            &mut s.backoff_cycles,
            || s.io.write_all(&header),
        )?;
        retry_io(
            "log header sync",
            &mut s.retries,
            &mut s.backoff_cycles,
            || s.io.sync_data(),
        )?;
        Ok(s)
    }

    /// Moves appends to `spare`, a ready spare ([`prepare_spare`]): the
    /// next record lands there, with the next epoch. Opens the file and
    /// nothing more — no `fsync`, rename or directory operation. Under a
    /// failpoint schedule the header write and sync a fresh log would
    /// have made are charged to the byte clock here instead, so the write
    /// stream matches a log created at this point; a fault they fire
    /// fails the switch and appends stay where they were. If records
    /// appended to the old file are not yet synced, the next
    /// [`WalWriter::sync`] syncs that file first.
    pub fn switch_to(
        &mut self,
        spare: &Path,
        failpoints: Option<&Failpoints>,
    ) -> Result<(), WalError> {
        let file = OpenOptions::new().write(true).open(spare)?;
        let mut io = boxed_io(file, failpoints);
        let len = io.seek_end().map_err(|e| map_hard(e, "spare log seek"))?;
        if len != HEADER_LEN {
            return Err(WalError::Corrupt(format!(
                "spare log {} holds {len} bytes, not just its header",
                spare.display()
            )));
        }
        if let Some(fp) = failpoints {
            let (retries, backoff) = (&mut self.retries, &mut self.backoff_cycles);
            fp.charge(|ledger| {
                let header = header();
                retry_io("log header write", retries, backoff, || {
                    ledger.write_all(&header)
                })?;
                retry_io("log header sync", retries, backoff, || ledger.sync_data())
            })
            .1?;
        }
        if self.appended_since_sync > 0 {
            self.behind
                .push(OpenOptions::new().write(true).open(&self.path)?);
        }
        self.io = io;
        self.path = spare.to_path_buf();
        self.appended_since_sync = 0;
        self.empty = true;
        Ok(())
    }

    /// Reopens a replayed log for appending: truncates the invalid tail
    /// (if any) and positions the next append at `replay`'s end.
    pub fn open_after_replay(
        path: &Path,
        policy: SyncPolicy,
        replay: &LogReplay,
        next_epoch: u64,
    ) -> Result<Self, WalError> {
        Self::open_after_replay_with(path, policy, replay, next_epoch, None)
    }

    /// [`WalWriter::open_after_replay`] with an optional failpoint
    /// schedule wired under the writer's I/O.
    pub fn open_after_replay_with(
        path: &Path,
        policy: SyncPolicy,
        replay: &LogReplay,
        next_epoch: u64,
        failpoints: Option<&Failpoints>,
    ) -> Result<Self, WalError> {
        let file = OpenOptions::new().write(true).open(path)?;
        let mut s = Self {
            io: boxed_io(file, failpoints),
            path: path.to_path_buf(),
            policy,
            appended_since_sync: 0,
            next_epoch,
            retries: 0,
            backoff_cycles: 0,
            behind: Vec::new(),
            empty: replay.valid_len <= HEADER_LEN,
        };
        s.io.set_len(replay.valid_len)
            .map_err(|e| map_hard(e, "log truncate"))?;
        retry_io(
            "log truncate sync",
            &mut s.retries,
            &mut s.backoff_cycles,
            || s.io.sync_data(),
        )?;
        s.io.seek_end().map_err(|e| map_hard(e, "log seek"))?;
        Ok(s)
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the log file holds nothing past its header: no record
    /// appended or replayed, and no append attempted since it was created,
    /// reopened or switched to.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// The epoch the next [`WalWriter::append`] will stamp.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Transient I/O errors absorbed by retry so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Virtual backoff cycles accumulated by retries (deterministic; no
    /// host time involved).
    pub fn backoff_cycles(&self) -> u64 {
        self.backoff_cycles
    }

    /// Appends one record. The epoch is assigned internally (strictly
    /// sequential — the contiguity replay enforces). Returns the epoch
    /// the record was stamped with.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        let epoch = self.next_epoch;
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&epoch.to_le_bytes());
        let mut crc_input = Vec::with_capacity(8 + payload.len());
        crc_input.extend_from_slice(&epoch.to_le_bytes());
        crc_input.extend_from_slice(payload);
        frame.extend_from_slice(&crc32(&crc_input).to_le_bytes());
        frame.extend_from_slice(payload);
        // Even a failed write may leave bytes past the header.
        self.empty = false;
        retry_io(
            "log append",
            &mut self.retries,
            &mut self.backoff_cycles,
            || self.io.write_all(&frame),
        )?;
        self.next_epoch += 1;
        self.appended_since_sync += 1;
        match self.policy {
            SyncPolicy::EveryRecord => self.sync()?,
            SyncPolicy::EveryN(n) => {
                if self.appended_since_sync >= n {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(epoch)
    }

    /// Forces an `fsync` of everything appended so far.
    pub fn sync(&mut self) -> Result<(), WalError> {
        for file in self.behind.drain(..) {
            file.sync_data()
                .map_err(|e| WalError::SyncFailed(format!("retired log sync: {e}")))?;
        }
        retry_io(
            "log sync",
            &mut self.retries,
            &mut self.backoff_cycles,
            || self.io.sync_data(),
        )?;
        self.appended_since_sync = 0;
        Ok(())
    }
}

/// Read side of the log.
#[derive(Debug)]
pub struct WalReader;

impl WalReader {
    /// Replays `path` from the beginning, stopping at the first torn,
    /// corrupt or non-contiguous frame. `first_epoch` is the epoch the
    /// first record must carry (the snapshot's epoch, for the engines).
    pub fn replay(path: &Path, first_epoch: u64) -> Result<LogReplay, WalError> {
        Self::scan(path, Some(first_epoch))
    }

    /// [`WalReader::replay`] from whatever epoch the first record
    /// carries: the file's contiguous valid prefix, for a caller that
    /// picks the records it needs (a log file can hold records a snapshot
    /// already covers ahead of newer ones).
    pub fn read(path: &Path) -> Result<LogReplay, WalError> {
        Self::scan(path, None)
    }

    fn scan(path: &Path, first_epoch: Option<u64>) -> Result<LogReplay, WalError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER_LEN as usize {
            return Err(WalError::BadHeader("log shorter than its header".into()));
        }
        if &bytes[0..4] != MAGIC {
            return Err(WalError::BadHeader("not a GWAL file".into()));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(WalError::BadHeader(format!(
                "log version {version}, expected {VERSION}"
            )));
        }

        let mut records = Vec::new();
        let mut pos = HEADER_LEN as usize;
        let mut expected = first_epoch;
        let tail = loop {
            if pos == bytes.len() {
                break TailState::Clean;
            }
            let avail = bytes.len() - pos;
            if avail < FRAME_LEN {
                break TailState::Torn(format!(
                    "{avail} trailing bytes at offset {pos}: shorter than a frame header"
                ));
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            if len > MAX_PAYLOAD {
                break TailState::Corrupt(format!(
                    "frame at offset {pos} declares {len}-byte payload (cap {MAX_PAYLOAD})"
                ));
            }
            if avail < FRAME_LEN + len {
                break TailState::Torn(format!(
                    "frame at offset {pos} declares {len}-byte payload but only \
                     {} bytes remain",
                    avail - FRAME_LEN
                ));
            }
            let epoch = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
            let stored_crc = u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().unwrap());
            let payload = &bytes[pos + FRAME_LEN..pos + FRAME_LEN + len];
            let mut crc_input = Vec::with_capacity(8 + len);
            crc_input.extend_from_slice(&epoch.to_le_bytes());
            crc_input.extend_from_slice(payload);
            if crc32(&crc_input) != stored_crc {
                break TailState::Corrupt(format!(
                    "checksum mismatch in frame at offset {pos} (epoch {epoch})"
                ));
            }
            if let Some(expected) = expected.filter(|&e| e != epoch) {
                break TailState::NonContiguous {
                    found: epoch,
                    expected,
                };
            }
            records.push(WalRecord {
                epoch,
                payload: payload.to_vec(),
            });
            expected = Some(epoch + 1);
            pos += FRAME_LEN + len;
        };
        Ok(LogReplay {
            records,
            tail,
            valid_len: pos as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "gamma_wal_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn roundtrip_and_clean_tail() {
        let p = temp_path("roundtrip");
        let mut w = WalWriter::create(&p, SyncPolicy::EveryN(2), 5).unwrap();
        for i in 0..5u8 {
            w.append(&[i; 3]).unwrap();
        }
        w.sync().unwrap();
        let r = WalReader::replay(&p, 5).unwrap();
        assert!(r.tail.is_clean());
        assert_eq!(r.records.len(), 5);
        assert_eq!(r.records[0].epoch, 5);
        assert_eq!(r.last_epoch(), Some(9));
        assert_eq!(r.records[4].payload, vec![4u8; 3]);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn wrong_first_epoch_stops_immediately() {
        let p = temp_path("first_epoch");
        let mut w = WalWriter::create(&p, SyncPolicy::Never, 0).unwrap();
        w.append(b"x").unwrap();
        let r = WalReader::replay(&p, 3).unwrap();
        assert_eq!(r.records.len(), 0);
        assert_eq!(
            r.tail,
            TailState::NonContiguous {
                found: 0,
                expected: 3
            }
        );
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn read_starts_at_the_first_record() {
        let p = temp_path("read_any");
        let mut w = WalWriter::create(&p, SyncPolicy::Never, 7).unwrap();
        for i in 0..3u8 {
            w.append(&[i]).unwrap();
        }
        let r = WalReader::read(&p).unwrap();
        assert!(r.tail.is_clean());
        let epochs: Vec<u64> = r.records.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, [7, 8, 9]);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn switch_to_adopts_a_ready_spare() {
        let (a, b) = (temp_path("switch_a"), temp_path("switch_b"));
        let mut w = WalWriter::create(&a, SyncPolicy::EveryN(4), 0).unwrap();
        prepare_spare(&b).unwrap();
        assert_eq!(std::fs::metadata(&b).unwrap().len(), HEADER_LEN);
        for i in 0..3u8 {
            w.append(&[i]).unwrap();
        }
        // Three records are not yet synced: the old file is owed a sync.
        w.switch_to(&b, None).unwrap();
        assert_eq!(w.path(), b.as_path());
        assert_eq!(w.behind.len(), 1);
        assert_eq!(w.append(&[3]).unwrap(), 3);
        w.sync().unwrap();
        assert!(w.behind.is_empty(), "a sync pays what the switch owed");

        let old = WalReader::replay(&a, 0).unwrap();
        assert_eq!(old.records.len(), 3);
        let new = WalReader::replay(&b, 3).unwrap();
        assert!(new.tail.is_clean());
        assert_eq!(new.records.len(), 1);
        assert_eq!(new.records[0].payload, vec![3]);

        // A file holding records is no spare; emptying it makes it one.
        assert!(matches!(w.switch_to(&a, None), Err(WalError::Corrupt(_))));
        assert_eq!(w.path(), b.as_path(), "a refused switch keeps the log");
        prepare_spare(&a).unwrap();
        assert!(WalReader::read(&a).unwrap().records.is_empty());
        w.switch_to(&a, None).unwrap();
        w.append(&[4]).unwrap();
        assert_eq!(WalReader::replay(&a, 4).unwrap().records.len(), 1);
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn switch_charges_the_header_a_fresh_log_writes() {
        use crate::io::IoFaultKind;
        let (a, b) = (temp_path("charge_a"), temp_path("charge_b"));
        let fp = Failpoints::new();
        let mut w = WalWriter::create_with(&a, SyncPolicy::EveryRecord, 0, Some(&fp)).unwrap();
        prepare_spare(&b).unwrap();
        assert_eq!(
            fp.written(),
            HEADER_LEN,
            "the spare is prepared off the clock"
        );
        w.switch_to(&b, Some(&fp)).unwrap();
        assert_eq!(fp.written(), 2 * HEADER_LEN);
        assert_eq!(std::fs::metadata(&b).unwrap().len(), HEADER_LEN);

        // A fault in the charged header fails the switch, as it would
        // have failed creating a fresh log.
        fp.schedule(fp.written(), IoFaultKind::SyncFail);
        prepare_spare(&a).unwrap();
        assert!(matches!(
            w.switch_to(&a, Some(&fp)),
            Err(WalError::SyncFailed(_))
        ));
        assert_eq!((fp.injected(), w.path()), (1, b.as_path()));
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn open_after_replay_truncates_and_continues() {
        let p = temp_path("truncate");
        let mut w = WalWriter::create(&p, SyncPolicy::Never, 0).unwrap();
        for i in 0..3u8 {
            w.append(&[i]).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Tear the last record.
        let len = std::fs::metadata(&p).unwrap().len();
        let f = OpenOptions::new().write(true).open(&p).unwrap();
        f.set_len(len - 1).unwrap();
        drop(f);

        let r = WalReader::replay(&p, 0).unwrap();
        assert_eq!(r.records.len(), 2);
        assert!(matches!(r.tail, TailState::Torn(_)));
        let mut w = WalWriter::open_after_replay(&p, SyncPolicy::Never, &r, 2).unwrap();
        w.append(&[9]).unwrap();
        w.sync().unwrap();
        drop(w);
        let r = WalReader::replay(&p, 0).unwrap();
        assert!(r.tail.is_clean());
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records[2].payload, vec![9]);
        std::fs::remove_file(&p).unwrap();
    }
}
