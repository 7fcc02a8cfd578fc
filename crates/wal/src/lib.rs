//! # gamma-wal — durability for batch-dynamic ingest
//!
//! The paper treats the update stream as ephemeral batches; a serving
//! system restarts. This crate provides the storage-side primitives the
//! engines build crash recovery from:
//!
//! * [`mod@crc32`] — the IEEE CRC-32 every on-disk structure is checksummed
//!   with (vendored table implementation; no external dependency).
//! * [`codec`] — a compact little-endian byte codec for update batches,
//!   data graphs and query graphs (the payloads logs and snapshots carry).
//! * [`log`] — the append-only, checksummed, fsync-batched write-ahead
//!   log: one epoch-stamped record per update batch. Replay stops at the
//!   first torn, corrupt or non-contiguous record and reports how far it
//!   got — recovery never silently diverges past damage.
//! * [`snapshot`] — versioned point-in-time snapshots (graph + one or
//!   more serialized device stores), written atomically via temp-file
//!   rename so a crash mid-snapshot can never destroy the previous one,
//!   and staged so another thread can write them.
//! * [`trace`] — recorded perf-suite workloads (params, graphs, queries
//!   and batches) for drift-free fixed-trace benchmarking: CI gates on
//!   sim-cycles over a committed trace instead of wall-clock noise.
//!
//! The formats are deliberately simple: explicit magics and versions,
//! little-endian integers, CRC-32 over every payload, and no
//! backward-compat shims yet (a version bump is a format change).

pub mod codec;
pub mod crc32;
pub mod io;
pub mod log;
pub mod snapshot;
pub mod trace;

pub use codec::{ByteReader, ByteWriter};
pub use crc32::crc32;
pub use io::{FailpointIo, Failpoints, FileIo, IoError, IoFault, IoFaultKind, WalIo};
pub use log::{prepare_spare, LogReplay, SyncPolicy, TailState, WalReader, WalRecord, WalWriter};
pub use snapshot::{Snapshot, SnapshotImage, StagedSnapshot};
pub use trace::{PresetTrace, Trace, TraceParams, WorkloadTrace};

/// Errors surfaced while writing or decoding durable state.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Payload ended before the decoder was done.
    Truncated,
    /// A magic number or version field did not match.
    BadHeader(String),
    /// A checksum did not verify.
    Corrupt(String),
    /// The device ran out of space (`ENOSPC`) — not retryable.
    NoSpace(String),
    /// An `fsync` failed hard: the kernel may have dropped dirty pages,
    /// so the write's durability is unknown — not retryable.
    SyncFailed(String),
    /// A transient I/O error persisted past the bounded retry budget.
    RetriesExhausted {
        /// The operation that was being retried.
        context: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// The last transient error observed.
        last: String,
    },
    /// A batch was refused before it was logged: applying it would fail,
    /// and so would every replay of it.
    Rejected(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "i/o error: {e}"),
            WalError::Truncated => write!(f, "payload truncated"),
            WalError::BadHeader(m) => write!(f, "bad header: {m}"),
            WalError::Corrupt(m) => write!(f, "corrupt payload: {m}"),
            WalError::NoSpace(m) => write!(f, "out of space: {m}"),
            WalError::SyncFailed(m) => write!(f, "fsync failed: {m}"),
            WalError::RetriesExhausted {
                context,
                attempts,
                last,
            } => write!(
                f,
                "{context}: transient i/o error persisted past {attempts} attempts: {last}"
            ),
            WalError::Rejected(m) => write!(f, "batch rejected: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}
