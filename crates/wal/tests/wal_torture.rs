//! WAL torture property tests: whatever damage a crash (or bit rot)
//! inflicts on the log tail, replay must stop at the **last valid epoch**
//! — never silently skipping, duplicating or inventing records.
//!
//! Three damage classes, each driven by proptest over random record
//! shapes and damage positions:
//!
//! * **truncated tail** — the file is cut at an arbitrary byte: every
//!   record wholly before the cut survives byte-identically, everything
//!   after is reported as a torn tail;
//! * **flipped byte** — one byte anywhere in a frame is XOR-flipped: the
//!   checksum (or framing sanity checks) catch it, and replay returns
//!   exactly the records preceding the damaged frame;
//! * **duplicate / skipped epoch** — a record replayed twice (the
//!   double-apply hazard) or an epoch gap breaks contiguity: replay stops
//!   at the last contiguous record and names the offense.
//!
//! The **failpoint** properties at the bottom drive the same guarantees
//! through the injectable I/O layer instead of post-hoc file surgery: a
//! short write cut *inside a record's final OS page* (the sub-page torn
//! write real disks produce) must replay as a torn tail ending at the
//! last whole record; transient write faults must be absorbed by the
//! deterministic virtual-clock retry loop; exhaustion and ENOSPC must
//! surface as their typed [`WalError`] variants, never a panic.

use std::io::Write;
use std::path::PathBuf;

use gamma_wal::crc32::crc32;
use gamma_wal::io::{IO_BACKOFF_BASE, IO_RETRY_LIMIT};
use gamma_wal::{Failpoints, IoFaultKind, SyncPolicy, TailState, WalError, WalReader, WalWriter};
use proptest::prelude::*;

const HEADER_LEN: usize = 8;
const FRAME_OVERHEAD: usize = 16;

fn temp_path(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gamma_torture_{tag}_{case}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Writes a well-formed log of `payloads` (epochs 0..n) and returns the
/// per-record end offsets.
fn write_log(path: &std::path::Path, payloads: &[Vec<u8>]) -> Vec<usize> {
    let mut w = WalWriter::create(path, SyncPolicy::Never, 0).expect("create");
    let mut ends = Vec::with_capacity(payloads.len());
    let mut pos = HEADER_LEN;
    for p in payloads {
        w.append(p).expect("append");
        pos += FRAME_OVERHEAD + p.len();
        ends.push(pos);
    }
    w.sync().expect("sync");
    ends
}

/// Hand-crafts one frame (the writer won't emit non-contiguous epochs).
fn raw_frame(epoch: u64, payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(&epoch.to_le_bytes());
    let mut crc_input = epoch.to_le_bytes().to_vec();
    crc_input.extend_from_slice(payload);
    f.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

fn payloads_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..=255, 0..24), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn truncated_tail_keeps_exactly_the_whole_records(
        (payloads, cut_milli) in (payloads_strategy(), 0u32..1000)
    ) {
        let cut_frac = cut_milli as f64 / 1000.0;
        let p = temp_path("trunc", cut_milli as u64);
        let ends = write_log(&p, &payloads);
        let full = *ends.last().unwrap();
        // Cut anywhere in the record region (possibly mid-header of a frame).
        let cut = HEADER_LEN + ((full - HEADER_LEN) as f64 * cut_frac) as usize;
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..cut]).unwrap();

        let r = WalReader::replay(&p, 0).unwrap();
        let intact = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(r.records.len(), intact);
        for (i, rec) in r.records.iter().enumerate() {
            prop_assert_eq!(rec.epoch, i as u64);
            prop_assert_eq!(&rec.payload, &payloads[i]);
        }
        // Recovery stops at the last valid epoch; the tail is clean only
        // when the cut landed exactly on a record boundary.
        prop_assert_eq!(
            r.tail.is_clean(),
            cut == HEADER_LEN || cut == full || ends.contains(&cut)
        );
        prop_assert_eq!(r.valid_len, if intact == 0 { HEADER_LEN as u64 } else { ends[intact - 1] as u64 });
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn flipped_byte_is_detected_and_replay_stops_before_it(
        (payloads, flip_milli, bit) in (payloads_strategy(), 0u32..1000, 0u8..8)
    ) {
        let flip_frac = flip_milli as f64 / 1000.0;
        let p = temp_path("flip", flip_milli as u64 * 8 + bit as u64);
        let ends = write_log(&p, &payloads);
        let full = *ends.last().unwrap();
        let flip_at = HEADER_LEN + ((full - HEADER_LEN - 1) as f64 * flip_frac) as usize;
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[flip_at] ^= 1 << bit;
        std::fs::write(&p, &bytes).unwrap();

        // The record whose frame contains the flipped byte.
        let damaged = ends.iter().filter(|&&e| e <= flip_at).count();
        let r = WalReader::replay(&p, 0).unwrap();
        prop_assert_eq!(r.records.len(), damaged,
            "replay must stop exactly at the damaged frame");
        for (i, rec) in r.records.iter().enumerate() {
            prop_assert_eq!(rec.epoch, i as u64);
            prop_assert_eq!(&rec.payload, &payloads[i]);
        }
        prop_assert!(!r.tail.is_clean(), "damage must be reported");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn duplicate_or_skipped_epoch_stops_at_last_contiguous_record(
        (payloads, dup_at, skip) in (payloads_strategy(), 0usize..10, prop::bool::ANY)
    ) {
        let n = payloads.len();
        let dup_at = dup_at % n;
        let p = temp_path("dup", dup_at as u64 + skip as u64 * 100);
        // Craft a log whose epochs run 0..dup_at and then repeat (or skip)
        // an epoch — the shape a double-applied (or lost) batch would have.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"GWAL");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        for (i, payload) in payloads.iter().enumerate() {
            let epoch = if i < dup_at {
                i as u64
            } else if skip {
                i as u64 + 1 // skipped epoch
            } else {
                i.saturating_sub(1) as u64 // duplicated epoch
            };
            bytes.extend_from_slice(&raw_frame(epoch, payload));
        }
        let mut f = std::fs::File::create(&p).unwrap();
        f.write_all(&bytes).unwrap();
        drop(f);

        let r = WalReader::replay(&p, 0).unwrap();
        let expected = if skip {
            dup_at // the record at dup_at carries epoch dup_at+1: rejected
        } else if dup_at == 0 {
            1usize.min(n) // epochs 0, 0, 1, …: the first frame itself is fine
        } else {
            dup_at // epochs …, dup_at-1, dup_at-1: the duplicate is rejected
        };
        prop_assert_eq!(r.records.len(), expected);
        // Replay stops at the last contiguous epoch and reports the break.
        if r.records.len() < n {
            prop_assert!(
                matches!(r.tail, TailState::NonContiguous { .. }),
                "epoch break must be reported as non-contiguous, got {:?}", r.tail
            );
        }
        for (i, rec) in r.records.iter().enumerate() {
            prop_assert_eq!(rec.epoch, i as u64);
        }
        std::fs::remove_file(&p).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Failpoint-driven torture: faults injected *while writing*, not patched
// into the file afterwards.
// ---------------------------------------------------------------------------

/// Typical OS page size; the sub-page property cuts inside the last page
/// a frame touches.
const PAGE: usize = 4096;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A short write that dies inside the final OS page of a multi-page
    /// frame — the classic sub-page torn write — must replay as a torn
    /// tail whose valid prefix is exactly the preceding whole records,
    /// and the log must accept appends again after `open_after_replay`
    /// truncates the wreckage.
    #[test]
    fn sub_page_short_write_leaves_a_torn_tail(
        (p0_len, tail_len, keep_milli) in (0usize..48, 4200usize..9000, 0u32..1000)
    ) {
        let p = temp_path("shortw", (p0_len * 16384 + tail_len) as u64 * 1000 + keep_milli as u64);
        let fp = Failpoints::new();
        let mut w = WalWriter::create_with(&p, SyncPolicy::Never, 0, Some(&fp)).expect("create");
        let first: Vec<u8> = (0..p0_len).map(|i| i as u8).collect();
        w.append(&first).expect("append record 0");
        let boundary = fp.written(); // end of record 0 = start of the doomed frame

        // The doomed frame spans at least two OS pages; pick a cut point
        // strictly inside its *final* page, short of the frame end.
        let tail: Vec<u8> = (0..tail_len).map(|i| (i * 7) as u8).collect();
        let frame_len = FRAME_OVERHEAD + tail_len;
        let frame_end = boundary as usize + frame_len;
        let last_page_start = (frame_end - 1) / PAGE * PAGE;
        prop_assert!(last_page_start > boundary as usize, "frame must span pages");
        let keep_lo = last_page_start - boundary as usize + 1;
        let keep_hi = frame_len - 1;
        let keep = keep_lo + (keep_hi - keep_lo) * keep_milli as usize / 1000;
        fp.schedule(boundary, IoFaultKind::ShortWrite { keep: keep as u64 });

        let err = w.append(&tail).expect_err("short write must surface");
        prop_assert!(matches!(err, WalError::Io(_)), "unexpected error {err:?}");
        prop_assert_eq!(fp.injected(), 1);
        prop_assert_eq!(fp.written(), boundary + keep as u64, "prefix persisted, rest lost");
        drop(w);

        let r = WalReader::replay(&p, 0).expect("replay");
        prop_assert_eq!(r.records.len(), 1, "only the whole record survives");
        prop_assert_eq!(&r.records[0].payload, &first);
        prop_assert!(
            matches!(r.tail, TailState::Torn(_)),
            "sub-page cut must report a torn tail, got {:?}", r.tail
        );
        prop_assert_eq!(r.valid_len, boundary, "valid prefix ends at the last whole record");

        // The log heals: truncate the torn tail, append, replay clean.
        let mut w = WalWriter::open_after_replay(&p, SyncPolicy::Never, &r, 1).expect("reopen");
        w.append(&tail).expect("append after heal");
        w.sync().expect("sync");
        drop(w);
        let r = WalReader::replay(&p, 0).expect("replay healed");
        prop_assert_eq!(r.records.len(), 2);
        prop_assert_eq!(&r.records[1].payload, &tail);
        prop_assert!(r.tail.is_clean());
        std::fs::remove_file(&p).unwrap();
    }
}

/// Transient write faults are absorbed by the bounded retry loop: the
/// record lands intact, and the backoff is charged to the *virtual*
/// clock (deterministic, no host sleeping) with exponential growth.
#[test]
fn transient_write_faults_retry_on_the_virtual_clock() {
    let p = temp_path("transient", 1);
    let fp = Failpoints::new();
    let mut w = WalWriter::create_with(&p, SyncPolicy::Never, 0, Some(&fp)).expect("create");
    fp.schedule(fp.written(), IoFaultKind::WriteTransient { times: 3 });
    w.append(b"survives three stumbles")
        .expect("retried append");
    assert_eq!(w.retries(), 3, "each transient costs one retry");
    assert_eq!(
        w.backoff_cycles(),
        IO_BACKOFF_BASE + (IO_BACKOFF_BASE << 1) + (IO_BACKOFF_BASE << 2),
        "backoff doubles per attempt on the virtual clock"
    );
    drop(w);
    let r = WalReader::replay(&p, 0).expect("replay");
    assert_eq!(r.records.len(), 1);
    assert_eq!(r.records[0].payload, b"survives three stumbles");
    assert!(r.tail.is_clean(), "retried write must leave no damage");
    std::fs::remove_file(&p).unwrap();
}

/// A fault that outlasts the retry budget surfaces as the typed
/// `RetriesExhausted` error naming the exact attempt count.
#[test]
fn retry_exhaustion_is_a_typed_error() {
    let p = temp_path("exhaust", 2);
    let fp = Failpoints::new();
    let mut w = WalWriter::create_with(&p, SyncPolicy::Never, 0, Some(&fp)).expect("create");
    fp.schedule(fp.written(), IoFaultKind::WriteTransient { times: 10_000 });
    let err = w.append(b"never lands").expect_err("budget must run out");
    match err {
        WalError::RetriesExhausted { attempts, .. } => {
            assert_eq!(
                attempts, IO_RETRY_LIMIT,
                "budget is the documented constant"
            )
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    drop(w);
    let r = WalReader::replay(&p, 0).expect("replay");
    assert_eq!(r.records.len(), 0, "nothing may be half-written");
    std::fs::remove_file(&p).unwrap();
}

/// ENOSPC is permanent, not retryable: it surfaces immediately as the
/// typed `NoSpace` error.
#[test]
fn enospc_is_a_typed_no_space_error() {
    let p = temp_path("enospc", 3);
    let fp = Failpoints::new();
    let mut w = WalWriter::create_with(&p, SyncPolicy::Never, 0, Some(&fp)).expect("create");
    fp.schedule(fp.written(), IoFaultKind::Enospc);
    let err = w.append(b"no room").expect_err("disk is full");
    assert!(matches!(err, WalError::NoSpace(_)), "got {err:?}");
    assert_eq!(fp.injected(), 1);
    std::fs::remove_file(&p).unwrap();
}

/// A failing fsync surfaces as the typed `SyncFailed` error; a transient
/// one is retried like any other fault.
#[test]
fn fsync_faults_surface_and_retry() {
    let p = temp_path("fsync", 4);
    let fp = Failpoints::new();
    let mut w = WalWriter::create_with(&p, SyncPolicy::EveryRecord, 0, Some(&fp)).expect("create");
    w.append(b"first").expect("append");
    fp.schedule(fp.written(), IoFaultKind::SyncTransient { times: 2 });
    w.append(b"second").expect("transient fsync retried");
    assert_eq!(w.retries(), 2);

    fp.schedule(fp.written(), IoFaultKind::SyncFail);
    let err = w.append(b"third").expect_err("hard fsync failure");
    assert!(matches!(err, WalError::SyncFailed(_)), "got {err:?}");
    std::fs::remove_file(&p).unwrap();
}
