//! Versioned point-in-time snapshots, written atomically.
//!
//! ## On-disk format
//!
//! ```text
//! file    := magic "GSNP" | version u32 | epoch u64 |
//!            nsections u32 | (len u32 | bytes)* | crc u32
//! ```
//!
//! `crc` covers everything after the magic. The *meaning* of the sections
//! is the writer's contract: the single-device engine stores
//! `[graph, gpma]`, the sharded engine `[graph, gpma_0, resident_0, …]`.
//!
//! Writes go to `<path>.tmp` and are atomically renamed over `<path>`
//! after an `fsync`, so a crash mid-snapshot leaves the previous snapshot
//! untouched — recovery never sees a half-written file (a torn tmp file
//! is simply ignored). The rename is durable once the directory is synced
//! too; a write whose directory sync fails reports
//! [`WalError::SyncFailed`], since the new snapshot may not survive a
//! crash.
//!
//! A writer that must not wait for the disk builds the file image once
//! ([`SnapshotImage`]), stages it ([`SnapshotImage::stage`] — under a
//! failpoint schedule this is where the write takes its place on the byte
//! clock), and hands the [`StagedSnapshot`] to another thread to
//! [`write`](StagedSnapshot::write).

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

use crate::codec::ByteWriter;
use crate::crc32::crc32;
use crate::io::{retry_io, Failpoints, FileIo, WalIo};
use crate::WalError;

const MAGIC: &[u8; 4] = b"GSNP";
const VERSION: u32 = 1;
/// Bytes of the header before the sections: magic, version, epoch and
/// section count.
const HEADER_LEN: usize = 4 + 4 + 8 + 4;
/// Bytes of the trailing CRC.
const CRC_LEN: usize = 4;

/// A decoded snapshot: the epoch it was taken at plus its payload
/// sections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Number of batches applied when the snapshot was taken; log replay
    /// resumes at this epoch.
    pub epoch: u64,
    /// Opaque payload sections (layout is the writing engine's contract).
    pub sections: Vec<Vec<u8>>,
}

impl Snapshot {
    /// Serializes and atomically replaces `path` (tmp + rename).
    pub fn write(&self, path: &Path) -> Result<(), WalError> {
        self.write_with(path, None)
    }

    /// [`Snapshot::write`] with an optional failpoint schedule wired
    /// under the tmp-file I/O and the directory sync. The atomicity
    /// contract holds under injected faults: any error before the rename
    /// leaves the previous snapshot untouched (only the `.tmp` file is
    /// damaged, and replay ignores it).
    pub fn write_with(&self, path: &Path, failpoints: Option<&Failpoints>) -> Result<(), WalError> {
        let mut image = SnapshotImage::new(self.epoch);
        for s in &self.sections {
            image.section(|w| w.vec_mut().extend_from_slice(s));
        }
        image.stage(path, failpoints).write()
    }

    /// Reads and verifies a snapshot file.
    pub fn read(path: &Path) -> Result<Self, WalError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER_LEN + CRC_LEN {
            return Err(WalError::BadHeader(
                "snapshot shorter than its header".into(),
            ));
        }
        if &bytes[0..4] != MAGIC {
            return Err(WalError::BadHeader("not a GSNP file".into()));
        }
        let body = &bytes[4..bytes.len() - 4];
        let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        if crc32(body) != stored_crc {
            return Err(WalError::Corrupt("snapshot checksum mismatch".into()));
        }
        let version = u32::from_le_bytes(body[0..4].try_into().unwrap());
        if version != VERSION {
            return Err(WalError::BadHeader(format!(
                "snapshot version {version}, expected {VERSION}"
            )));
        }
        let epoch = u64::from_le_bytes(body[4..12].try_into().unwrap());
        let nsections = u32::from_le_bytes(body[12..16].try_into().unwrap()) as usize;
        let mut sections = Vec::with_capacity(nsections);
        let mut pos = 16usize;
        for i in 0..nsections {
            if body.len() - pos < 4 {
                return Err(WalError::Corrupt(format!("section {i} header truncated")));
            }
            let len = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            if body.len() - pos < len {
                return Err(WalError::Corrupt(format!("section {i} body truncated")));
            }
            sections.push(body[pos..pos + len].to_vec());
            pos += len;
        }
        if pos != body.len() {
            return Err(WalError::Corrupt("trailing bytes after sections".into()));
        }
        Ok(Self { epoch, sections })
    }
}

/// A snapshot's file image, built in one buffer: each section is encoded
/// straight into it, after its length prefix, so the file is written
/// from the buffer the encoders filled, with no copy.
#[derive(Debug)]
pub struct SnapshotImage {
    w: ByteWriter,
    sections: u32,
}

impl SnapshotImage {
    /// An image of a snapshot at `epoch`, with no section yet.
    pub fn new(epoch: u64) -> Self {
        let mut w = ByteWriter::new();
        w.vec_mut().extend_from_slice(MAGIC);
        w.put_u32(VERSION);
        w.put_u64(epoch);
        w.put_u32(0);
        Self { w, sections: 0 }
    }

    /// Appends one section, which `encode` writes into the image.
    pub fn section(&mut self, encode: impl FnOnce(&mut ByteWriter)) {
        let at = self.w.len();
        self.w.put_u32(0);
        encode(&mut self.w);
        let len = (self.w.len() - at - 4) as u32;
        self.w.vec_mut()[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.sections += 1;
    }

    /// Stages the image for writing to `path`, on this thread or another.
    /// Under a failpoint schedule the write, its sync and the directory
    /// sync are charged to the byte clock here, in that order, and
    /// [`StagedSnapshot::write`] replays their outcome on the real files
    /// whenever it runs: a fault fires at the same point of the write
    /// stream as if the snapshot had been written now.
    pub fn stage(self, path: &Path, failpoints: Option<&Failpoints>) -> StagedSnapshot {
        let mut image = self.w.into_bytes();
        image[16..20].copy_from_slice(&self.sections.to_le_bytes());
        // The CRC's slot: `write` fills it, off the caller's thread.
        image.extend_from_slice(&[0; CRC_LEN]);
        let dir = parent_dir(path);
        let (keep, fault) = match failpoints {
            None => (image.len(), None),
            Some(fp) => {
                let (kept, fault) = fp.charge(|io| {
                    let (mut retries, mut backoff) = (0, 0);
                    retry_io("snapshot write", &mut retries, &mut backoff, || {
                        io.write_all(&image)
                    })
                    .map_err(|e| (Step::Write, e))?;
                    retry_io("snapshot sync", &mut retries, &mut backoff, || {
                        io.sync_data()
                    })
                    .map_err(|e| (Step::Sync, e))?;
                    retry_io(
                        "snapshot directory sync",
                        &mut retries,
                        &mut backoff,
                        || io.sync_dir(&dir),
                    )
                    .map_err(|e| (Step::DirSync, e))
                });
                (kept as usize, fault.err())
            }
        };
        StagedSnapshot {
            path: path.to_path_buf(),
            image,
            keep,
            fault,
        }
    }
}

/// A step of writing a snapshot file that a charged fault can stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Write,
    Sync,
    DirSync,
}

/// A snapshot image staged by [`SnapshotImage::stage`]: its write is
/// decided, and [`write`](Self::write) performs it.
#[derive(Debug)]
#[must_use = "a staged snapshot is written only by `write`"]
pub struct StagedSnapshot {
    path: PathBuf,
    /// The file image, its CRC slot still empty.
    image: Vec<u8>,
    /// Bytes of the image the tmp file receives: all of them, unless a
    /// charged write fault tore the write.
    keep: usize,
    /// The charged fault that fails the write, and the step it fails.
    fault: Option<(Step, WalError)>,
}

impl StagedSnapshot {
    /// Fills in the CRC, writes the tmp file, syncs it, renames it over
    /// the snapshot and syncs the directory. The image is freed once
    /// written, before the syncs. A fault charged at
    /// [`SnapshotImage::stage`] fails the same step here, after that
    /// step's real I/O: a torn write leaves its kept prefix in the tmp
    /// file and the previous snapshot in place, and so does a failed
    /// sync; a failed directory sync leaves the rename done but not
    /// known to be durable. Either sync failure is
    /// [`WalError::SyncFailed`].
    pub fn write(self) -> Result<(), WalError> {
        let Self {
            path,
            mut image,
            keep,
            mut fault,
        } = self;
        let mut stop = |step| match fault.take_if(|(at, _)| *at == step) {
            Some((_, e)) => Err(e),
            None => Ok(()),
        };
        let end = image.len() - CRC_LEN;
        let crc = crc32(&image[MAGIC.len()..end]);
        image[end..].copy_from_slice(&crc.to_le_bytes());
        let tmp = path.with_extension("tmp");
        let mut io = FileIo::new(File::create(&tmp)?);
        let (mut retries, mut backoff) = (0, 0);
        retry_io("snapshot write", &mut retries, &mut backoff, || {
            io.write_all(&image[..keep])
        })?;
        drop(image);
        stop(Step::Write)?;
        retry_io("snapshot sync", &mut retries, &mut backoff, || {
            io.sync_data()
        })?;
        stop(Step::Sync)?;
        std::fs::rename(&tmp, &path)?;
        retry_io(
            "snapshot directory sync",
            &mut retries,
            &mut backoff,
            || io.sync_dir(&parent_dir(&path)),
        )?;
        stop(Step::DirSync)
    }
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "gamma_snap_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn roundtrip() {
        let p = temp_path("roundtrip");
        let s = Snapshot {
            epoch: 42,
            sections: vec![vec![1, 2, 3], vec![], vec![9; 1000]],
        };
        s.write(&p).unwrap();
        assert_eq!(Snapshot::read(&p).unwrap(), s);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn bit_flip_detected() {
        let p = temp_path("flip");
        Snapshot {
            epoch: 7,
            sections: vec![vec![0xAB; 64]],
        }
        .write(&p)
        .unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[20] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(Snapshot::read(&p), Err(WalError::Corrupt(_))));
        std::fs::remove_file(&p).unwrap();
    }

    fn image(epoch: u64, sections: &[&[u8]]) -> SnapshotImage {
        let mut image = SnapshotImage::new(epoch);
        for s in sections {
            image.section(|w| w.vec_mut().extend_from_slice(s));
        }
        image
    }

    #[test]
    fn staged_write_replays_the_charged_outcome() {
        use crate::io::IoFaultKind;
        let p = temp_path("staged");
        Snapshot {
            epoch: 1,
            sections: vec![vec![1]],
        }
        .write(&p)
        .unwrap();

        // The clock moves, and the fault fires, when the image is staged;
        // the write that runs later fails the same way.
        let fp = Failpoints::new();
        fp.schedule(10, IoFaultKind::ShortWrite { keep: 13 });
        let staged = image(2, &[&[2; 40]]).stage(&p, Some(&fp));
        assert_eq!((fp.written(), fp.injected()), (13, 1));
        assert!(matches!(staged.write(), Err(WalError::Io(_))));
        assert_eq!(
            std::fs::metadata(p.with_extension("tmp")).unwrap().len(),
            13
        );
        assert_eq!(Snapshot::read(&p).unwrap().epoch, 1, "previous one kept");

        // A clean stage charges the whole file, CRC included.
        let before = fp.written();
        image(3, &[&[3; 40]]).stage(&p, Some(&fp)).write().unwrap();
        assert_eq!(fp.written() - before, std::fs::metadata(&p).unwrap().len());
        let back = Snapshot::read(&p).unwrap();
        assert_eq!((back.epoch, back.sections), (3, vec![vec![3; 40]]));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn failed_directory_sync_is_reported() {
        use crate::io::IoFaultKind;
        let p = temp_path("dirsync");
        let fp = Failpoints::new();
        fp.schedule(0, IoFaultKind::DirSyncFail);
        let s = Snapshot {
            epoch: 5,
            sections: vec![vec![5; 8]],
        };
        // The rename is done but not confirmed durable.
        assert!(matches!(
            s.write_with(&p, Some(&fp)),
            Err(WalError::SyncFailed(_))
        ));
        assert_eq!(Snapshot::read(&p).unwrap(), s);
        assert_eq!(fp.injected(), 1);
        s.write_with(&p, Some(&fp)).unwrap();
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn overwrite_is_atomic_replace() {
        let p = temp_path("replace");
        Snapshot {
            epoch: 1,
            sections: vec![vec![1]],
        }
        .write(&p)
        .unwrap();
        Snapshot {
            epoch: 2,
            sections: vec![vec![2, 2]],
        }
        .write(&p)
        .unwrap();
        let s = Snapshot::read(&p).unwrap();
        assert_eq!(s.epoch, 2);
        assert!(!p.with_extension("tmp").exists());
        std::fs::remove_file(&p).unwrap();
    }
}
