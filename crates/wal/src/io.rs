//! The injectable I/O layer under every durable write, and the
//! deterministic failpoint shim that drives chaos testing through it.
//!
//! Production writes go straight to the filesystem via [`FileIo`]. Chaos
//! runs wrap that in a [`FailpointIo`] sharing a [`Failpoints`] schedule:
//! a list of faults, each armed at a **global byte offset** of the
//! durable write stream (cumulative bytes attempted through every writer
//! attached to the schedule — WAL appends and snapshot bodies alike).
//! Because the engines' write sequence is itself a pure function of the
//! workload, a fault offset identifies one exact write in every run: the
//! chaos schedule replays bit-exactly, matching the virtual-time
//! executor's 0%-drift discipline.
//!
//! Fault semantics:
//!
//! * **Transient** faults ([`IoFaultKind::WriteTransient`],
//!   [`IoFaultKind::SyncTransient`]) fail the operation without side
//!   effects `times` times, then clear — the writer's bounded
//!   retry-with-backoff absorbs them (virtual-clock backoff: a
//!   deterministic cycle counter, no host sleeping).
//! * **Torn writes** ([`IoFaultKind::ShortWrite`]) persist only a prefix
//!   of the triggering buffer and then fail hard — the on-disk signature
//!   of a crash mid-`write`, including *sub-page* cuts (a `keep` that
//!   lands inside an OS page of the record being appended).
//! * **Permanent** faults ([`IoFaultKind::SyncFail`],
//!   [`IoFaultKind::DirSyncFail`], [`IoFaultKind::Enospc`]) are not
//!   retryable and surface as typed [`WalError`](crate::WalError)s. Each
//!   fault fires once and is then consumed — "permanent" means
//!   not-retryable, not forever-recurring, so a test can observe the typed
//!   error and keep driving the store.
//!
//! A write that runs later, off the caller's thread (a snapshot the
//! engines hand to a background writer), is *charged* to the schedule
//! where it is handed off: its operations run through the schedule over a
//! ledger that touches no file, so the byte clock advances and every
//! fault fires at the same point of the write stream as an inline write
//! would, whatever the background thread's timing.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// How an injected (or real) low-level I/O operation failed.
#[derive(Debug)]
pub enum IoError {
    /// Worth retrying: the operation had no side effects and may succeed
    /// on the next attempt (`EINTR`-class, or an injected transient).
    Transient(String),
    /// The device is out of space (`ENOSPC`) — permanent for this write.
    NoSpace(String),
    /// Any other hard failure.
    Hard(std::io::Error),
}

impl IoError {
    fn from_io(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::Interrupted => IoError::Transient(e.to_string()),
            // ENOSPC by raw errno — `ErrorKind::StorageFull` is not
            // stable on every toolchain this builds with.
            _ if e.raw_os_error() == Some(28) => IoError::NoSpace(e.to_string()),
            _ => IoError::Hard(e),
        }
    }
}

/// The low-level operations every durable structure (log, snapshot)
/// performs, abstracted so faults can be injected under them.
pub trait WalIo: std::fmt::Debug + Send {
    /// Writes the whole buffer (append position).
    fn write_all(&mut self, buf: &[u8]) -> Result<(), IoError>;
    /// Flushes written data to stable storage.
    fn sync_data(&mut self) -> Result<(), IoError>;
    /// Truncates the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> Result<(), IoError>;
    /// Seeks to end-of-file, returning the offset.
    fn seek_end(&mut self) -> Result<u64, IoError>;
    /// Flushes directory `dir`'s entries to stable storage, so a file
    /// created or renamed in it survives a crash.
    fn sync_dir(&mut self, dir: &Path) -> Result<(), IoError> {
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(IoError::from_io)
    }
}

/// Passthrough [`WalIo`] over a real file — the production path.
///
/// `std::io::Write::write_all` already loops on `EINTR`, so a transient
/// error can only reach the writer's retry loop through an injected
/// failpoint — which, by construction, persists nothing when it fires
/// transiently. Retrying a failed `write_all` from the start is
/// therefore sound: the failed attempt left no partial bytes behind.
#[derive(Debug)]
pub struct FileIo {
    file: File,
}

impl FileIo {
    /// Wraps an open file.
    pub fn new(file: File) -> Self {
        Self { file }
    }
}

impl WalIo for FileIo {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), IoError> {
        self.file.write_all(buf).map_err(IoError::from_io)
    }

    fn sync_data(&mut self) -> Result<(), IoError> {
        self.file.sync_data().map_err(IoError::from_io)
    }

    fn set_len(&mut self, len: u64) -> Result<(), IoError> {
        self.file.set_len(len).map_err(IoError::from_io)
    }

    fn seek_end(&mut self) -> Result<u64, IoError> {
        use std::io::Seek;
        self.file
            .seek(std::io::SeekFrom::End(0))
            .map_err(IoError::from_io)
    }
}

/// What an armed failpoint does when its byte offset is reached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoFaultKind {
    /// Fail the triggering write with a transient error, `times` times;
    /// the fault then clears and the retried write succeeds.
    WriteTransient {
        /// Number of consecutive attempts to fail.
        times: u32,
    },
    /// Persist only the first `keep` bytes of the triggering write, then
    /// fail hard — a torn write. Choosing `keep` so the cut lands inside
    /// an OS page of the record under append exercises the sub-page
    /// torn-tail replay path.
    ShortWrite {
        /// Bytes of the triggering buffer that reach the file.
        keep: u64,
    },
    /// Fail `sync_data` with a transient error, `times` times.
    SyncTransient {
        /// Number of consecutive sync attempts to fail.
        times: u32,
    },
    /// Fail the next `sync_data` hard (not retryable).
    SyncFail,
    /// Fail the next directory sync hard (not retryable): the sync that
    /// makes a snapshot's rename durable. File syncs never consume it, and
    /// the other sync faults never fire on a directory sync.
    DirSyncFail,
    /// Fail the triggering write with `ENOSPC` (not retryable).
    Enospc,
}

/// The operation a fault fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultOp {
    Write,
    Sync,
    DirSync,
}

impl IoFaultKind {
    fn op(&self) -> FaultOp {
        match self {
            IoFaultKind::SyncTransient { .. } | IoFaultKind::SyncFail => FaultOp::Sync,
            IoFaultKind::DirSyncFail => FaultOp::DirSync,
            IoFaultKind::WriteTransient { .. }
            | IoFaultKind::ShortWrite { .. }
            | IoFaultKind::Enospc => FaultOp::Write,
        }
    }
}

/// One scheduled fault: `kind` arms once the shared write stream reaches
/// byte offset `at`.
#[derive(Clone, Debug)]
pub struct IoFault {
    /// Global byte offset (cumulative bytes attempted through the
    /// schedule) at which the fault arms. Write faults fire on the write
    /// whose span covers `at`; sync faults fire on the first file sync at
    /// or past it, and [`IoFaultKind::DirSyncFail`] on the first
    /// directory sync at or past it.
    pub at: u64,
    /// What happens when it fires.
    pub kind: IoFaultKind,
}

#[derive(Debug, Default)]
struct FailpointState {
    faults: Vec<IoFault>,
    /// Cumulative bytes attempted (successful or torn) through every
    /// writer attached to this schedule.
    written: u64,
    /// Faults that actually fired (transient multi-shot faults count one
    /// per failed attempt).
    injected: u64,
}

/// A shared, deterministic I/O fault schedule. Cloning shares the
/// schedule: every writer wrapped with the same `Failpoints` advances the
/// same global byte clock, so one schedule spans a whole durable engine
/// (its log and snapshots included).
#[derive(Clone, Debug, Default)]
pub struct Failpoints(Arc<Mutex<FailpointState>>);

impl Failpoints {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a fault at global byte offset `at`.
    pub fn schedule(&self, at: u64, kind: IoFaultKind) {
        let mut st = self.0.lock().expect("failpoint lock");
        st.faults.push(IoFault { at, kind });
        st.faults.sort_by_key(|f| f.at);
    }

    /// Number of fault firings so far (telemetry; deterministic).
    pub fn injected(&self) -> u64 {
        self.0.lock().expect("failpoint lock").injected
    }

    /// Cumulative bytes attempted through the schedule so far — the
    /// offset the *next* write will start at. Tests use this to aim a
    /// fault at "the next thing written".
    pub fn written(&self) -> u64 {
        self.0.lock().expect("failpoint lock").written
    }

    /// Faults still pending (never fired).
    pub fn pending(&self) -> usize {
        self.0.lock().expect("failpoint lock").faults.len()
    }

    /// Wraps `io` so this schedule's faults fire under it.
    pub fn wrap<I: WalIo + 'static>(&self, io: I) -> FailpointIo<I> {
        FailpointIo {
            inner: io,
            fp: self.clone(),
        }
    }
}

/// A [`WalIo`] that consults a [`Failpoints`] schedule before delegating
/// to the wrapped I/O.
#[derive(Debug)]
pub struct FailpointIo<I: WalIo> {
    inner: I,
    fp: Failpoints,
}

impl<I: WalIo> WalIo for FailpointIo<I> {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), IoError> {
        let mut st = self.fp.0.lock().expect("failpoint lock");
        let start = st.written;
        let end = start + buf.len() as u64;
        // First armed write-fault whose offset this write's span covers.
        let hit = st
            .faults
            .iter()
            .position(|f| f.kind.op() == FaultOp::Write && f.at < end);
        let Some(i) = hit else {
            st.written = end;
            drop(st);
            return self.inner.write_all(buf);
        };
        st.injected += 1;
        match st.faults[i].kind.clone() {
            IoFaultKind::WriteTransient { times } => {
                // No side effects, no byte-clock advance: the retried
                // write sees the identical offset.
                if times <= 1 {
                    st.faults.remove(i);
                } else {
                    st.faults[i].kind = IoFaultKind::WriteTransient { times: times - 1 };
                }
                Err(IoError::Transient(format!(
                    "injected transient write error at offset {start}"
                )))
            }
            IoFaultKind::ShortWrite { keep } => {
                st.faults.remove(i);
                let keep = (keep as usize).min(buf.len());
                st.written = start + keep as u64;
                drop(st);
                self.inner.write_all(&buf[..keep])?;
                Err(IoError::Hard(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    format!(
                        "injected torn write at offset {start}: {keep} of {} bytes persisted",
                        buf.len()
                    ),
                )))
            }
            IoFaultKind::Enospc => {
                st.faults.remove(i);
                Err(IoError::NoSpace(format!(
                    "injected ENOSPC at offset {start}"
                )))
            }
            // Sync faults were filtered out above.
            IoFaultKind::SyncTransient { .. }
            | IoFaultKind::SyncFail
            | IoFaultKind::DirSyncFail => unreachable!(),
        }
    }

    fn sync_data(&mut self) -> Result<(), IoError> {
        let mut st = self.fp.0.lock().expect("failpoint lock");
        let now = st.written;
        let hit = st
            .faults
            .iter()
            .position(|f| f.kind.op() == FaultOp::Sync && f.at <= now);
        let Some(i) = hit else {
            drop(st);
            return self.inner.sync_data();
        };
        st.injected += 1;
        match st.faults[i].kind.clone() {
            IoFaultKind::SyncTransient { times } => {
                if times <= 1 {
                    st.faults.remove(i);
                } else {
                    st.faults[i].kind = IoFaultKind::SyncTransient { times: times - 1 };
                }
                Err(IoError::Transient(format!(
                    "injected transient fsync error at offset {now}"
                )))
            }
            IoFaultKind::SyncFail => {
                st.faults.remove(i);
                Err(IoError::Hard(std::io::Error::other(format!(
                    "injected fsync failure at offset {now}"
                ))))
            }
            IoFaultKind::WriteTransient { .. }
            | IoFaultKind::ShortWrite { .. }
            | IoFaultKind::DirSyncFail
            | IoFaultKind::Enospc => unreachable!(),
        }
    }

    fn set_len(&mut self, len: u64) -> Result<(), IoError> {
        self.inner.set_len(len)
    }

    fn seek_end(&mut self) -> Result<u64, IoError> {
        self.inner.seek_end()
    }

    fn sync_dir(&mut self, dir: &Path) -> Result<(), IoError> {
        let mut st = self.fp.0.lock().expect("failpoint lock");
        let now = st.written;
        let hit = st
            .faults
            .iter()
            .position(|f| f.kind.op() == FaultOp::DirSync && f.at <= now);
        let Some(i) = hit else {
            drop(st);
            return self.inner.sync_dir(dir);
        };
        st.injected += 1;
        st.faults.remove(i);
        Err(IoError::Hard(std::io::Error::other(format!(
            "injected directory sync failure at offset {now}"
        ))))
    }
}

/// A [`WalIo`] over no file: it counts the bytes that reach it and does
/// nothing else. Wrapped in a [`Failpoints`] schedule it charges a
/// sequence of operations to the schedule's byte clock — faults fire and
/// the clock advances exactly as on a file — so the real I/O can run
/// later, on another thread, with its outcome already decided.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// Bytes that reached the ledger: a torn write's kept prefix counts,
    /// a write that failed without side effects does not.
    pub(crate) written: u64,
}

impl WalIo for Ledger {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), IoError> {
        self.written += buf.len() as u64;
        Ok(())
    }

    fn sync_data(&mut self) -> Result<(), IoError> {
        Ok(())
    }

    fn set_len(&mut self, _: u64) -> Result<(), IoError> {
        Ok(())
    }

    fn seek_end(&mut self) -> Result<u64, IoError> {
        Ok(self.written)
    }

    fn sync_dir(&mut self, _: &Path) -> Result<(), IoError> {
        Ok(())
    }
}

impl Failpoints {
    /// Runs `ops` over a [`Ledger`] under this schedule: charges them to
    /// the byte clock without touching a file. Returns the bytes the
    /// writes would have left in the file, and `ops`' outcome.
    pub(crate) fn charge<T>(&self, ops: impl FnOnce(&mut FailpointIo<Ledger>) -> T) -> (u64, T) {
        let mut io = self.wrap(Ledger::default());
        let outcome = ops(&mut io);
        (io.inner.written, outcome)
    }
}

/// Opens `file` as a boxed [`WalIo`], wrapped by `failpoints` when given.
pub(crate) fn boxed_io(file: File, failpoints: Option<&Failpoints>) -> Box<dyn WalIo> {
    match failpoints {
        Some(fp) => Box::new(fp.wrap(FileIo::new(file))),
        None => Box::new(FileIo::new(file)),
    }
}

/// Maps a non-retried [`IoError`] to a typed [`WalError`](crate::WalError).
pub(crate) fn map_hard(e: IoError, ctx: &str) -> crate::WalError {
    match e {
        IoError::Transient(m) => crate::WalError::Io(std::io::Error::other(m)),
        IoError::NoSpace(m) => crate::WalError::NoSpace(format!("{ctx}: {m}")),
        IoError::Hard(e) => crate::WalError::Io(e),
    }
}

/// Retry budget for transient I/O errors before the writer gives up.
pub const IO_RETRY_LIMIT: u32 = 8;
/// Base of the exponential virtual-clock backoff (cycles; doubles per
/// attempt, capped at `IO_BACKOFF_BASE << 6`).
pub const IO_BACKOFF_BASE: u64 = 64;

/// Runs `op` with bounded deterministic retry on transient errors. Each
/// retry adds an exponentially growing amount to `backoff_cycles` (a
/// virtual clock — no host sleeping, so chaos tests stay fast and
/// deterministic) and increments `retries`. Non-transient errors map to
/// typed [`WalError`](crate::WalError)s with `ctx` prefixed.
pub(crate) fn retry_io<T>(
    ctx: &str,
    retries: &mut u64,
    backoff_cycles: &mut u64,
    mut op: impl FnMut() -> Result<T, IoError>,
) -> Result<T, crate::WalError> {
    let mut attempt: u32 = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(IoError::Transient(m)) => {
                attempt += 1;
                *retries += 1;
                *backoff_cycles += IO_BACKOFF_BASE << (attempt - 1).min(6);
                if attempt >= IO_RETRY_LIMIT {
                    return Err(crate::WalError::RetriesExhausted {
                        context: ctx.to_string(),
                        attempts: attempt,
                        last: m,
                    });
                }
            }
            Err(IoError::NoSpace(m)) => {
                return Err(crate::WalError::NoSpace(format!("{ctx}: {m}")))
            }
            Err(IoError::Hard(e)) => {
                if ctx.contains("sync") {
                    return Err(crate::WalError::SyncFailed(format!("{ctx}: {e}")));
                }
                return Err(crate::WalError::Io(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "gamma_io_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn transient_write_clears_after_times() {
        let p = temp_file("transient");
        let fp = Failpoints::new();
        fp.schedule(0, IoFaultKind::WriteTransient { times: 2 });
        let mut io = fp.wrap(FileIo::new(File::create(&p).unwrap()));
        assert!(matches!(io.write_all(b"abc"), Err(IoError::Transient(_))));
        assert!(matches!(io.write_all(b"abc"), Err(IoError::Transient(_))));
        io.write_all(b"abc").unwrap();
        assert_eq!(fp.injected(), 2);
        assert_eq!(fp.written(), 3);
        assert_eq!(std::fs::read(&p).unwrap(), b"abc");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn short_write_persists_prefix_then_fails() {
        let p = temp_file("short");
        let fp = Failpoints::new();
        fp.schedule(4, IoFaultKind::ShortWrite { keep: 2 });
        let mut io = fp.wrap(FileIo::new(File::create(&p).unwrap()));
        io.write_all(b"head").unwrap(); // bytes 0..4: clean
        assert!(matches!(io.write_all(b"tail"), Err(IoError::Hard(_))));
        assert_eq!(std::fs::read(&p).unwrap(), b"headta");
        assert_eq!(fp.written(), 6);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn sync_faults_fire_at_offset() {
        let p = temp_file("sync");
        let fp = Failpoints::new();
        fp.schedule(3, IoFaultKind::SyncFail);
        let mut io = fp.wrap(FileIo::new(File::create(&p).unwrap()));
        io.sync_data().unwrap(); // offset 0 < 3: not armed yet
        io.write_all(b"abcd").unwrap();
        assert!(matches!(io.sync_data(), Err(IoError::Hard(_))));
        io.sync_data().unwrap(); // consumed
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn dir_sync_faults_fire_only_on_directory_syncs() {
        let p = temp_file("dirsync");
        let dir = std::env::temp_dir();
        let fp = Failpoints::new();
        fp.schedule(0, IoFaultKind::DirSyncFail);
        fp.schedule(0, IoFaultKind::SyncFail);
        let mut io = fp.wrap(FileIo::new(File::create(&p).unwrap()));
        // Each kind fires on its own operation only.
        assert!(matches!(io.sync_dir(&dir), Err(IoError::Hard(_))));
        assert_eq!((fp.injected(), fp.pending()), (1, 1));
        io.sync_dir(&dir).unwrap(); // consumed
        assert!(matches!(io.sync_data(), Err(IoError::Hard(_))));
        io.sync_data().unwrap();
        assert_eq!((fp.injected(), fp.pending()), (2, 0));

        // Armed past the clock, it waits for the first directory sync at
        // or after its offset.
        fp.schedule(4, IoFaultKind::DirSyncFail);
        io.sync_dir(&dir).unwrap();
        io.write_all(b"abcd").unwrap();
        io.sync_data().unwrap();
        assert!(matches!(io.sync_dir(&dir), Err(IoError::Hard(_))));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn charges_advance_the_clock_without_touching_a_file() {
        let fp = Failpoints::new();
        fp.schedule(6, IoFaultKind::ShortWrite { keep: 2 });
        let (kept, outcome) = fp.charge(|io| {
            io.write_all(b"head")?;
            io.write_all(b"tail")
        });
        assert!(matches!(outcome, Err(IoError::Hard(_))));
        assert_eq!((kept, fp.written(), fp.injected()), (6, 6, 1));
    }

    #[test]
    fn retry_absorbs_transients_and_exhausts() {
        let mut retries = 0u64;
        let mut backoff = 0u64;
        let mut left = 3u32;
        let v = retry_io("append", &mut retries, &mut backoff, || {
            if left > 0 {
                left -= 1;
                Err(IoError::Transient("x".into()))
            } else {
                Ok(7)
            }
        })
        .unwrap();
        assert_eq!(v, 7);
        assert_eq!(retries, 3);
        assert!(backoff > 0);

        let err = retry_io("append", &mut retries, &mut backoff, || {
            Err::<(), _>(IoError::Transient("always".into()))
        })
        .unwrap_err();
        assert!(matches!(
            err,
            crate::WalError::RetriesExhausted { attempts, .. } if attempts == IO_RETRY_LIMIT
        ));
    }
}
