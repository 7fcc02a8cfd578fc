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
//! is simply ignored).

use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::crc32::crc32;
use crate::io::{boxed_io, retry_io, Failpoints};
use crate::WalError;

const MAGIC: &[u8; 4] = b"GSNP";
const VERSION: u32 = 1;

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
    /// under the tmp-file I/O. The atomicity contract holds under
    /// injected faults: any error before the rename leaves the previous
    /// snapshot untouched (only the `.tmp` file is damaged, and replay
    /// ignores it).
    pub fn write_with(&self, path: &Path, failpoints: Option<&Failpoints>) -> Result<(), WalError> {
        // The file image, built once: the CRC covers everything after the
        // magic and is appended in place.
        let sections: usize = self.sections.iter().map(|s| 4 + s.len()).sum();
        let mut buf = Vec::with_capacity(4 + 4 + 8 + 4 + sections + 4);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s);
        }
        let crc = crc32(&buf[MAGIC.len()..]);
        buf.extend_from_slice(&crc.to_le_bytes());
        let tmp = path.with_extension("tmp");
        {
            let mut io = boxed_io(File::create(&tmp)?, failpoints);
            let mut retries = 0u64;
            let mut backoff = 0u64;
            retry_io("snapshot write", &mut retries, &mut backoff, || {
                io.write_all(&buf)
            })?;
            retry_io("snapshot sync", &mut retries, &mut backoff, || {
                io.sync_data()
            })?;
        }
        std::fs::rename(&tmp, path)?;
        // Durability of the rename itself: sync the containing directory.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_data();
            }
        }
        Ok(())
    }

    /// Reads and verifies a snapshot file.
    pub fn read(path: &Path) -> Result<Self, WalError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        if bytes.len() < 4 + 4 + 8 + 4 + 4 {
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
