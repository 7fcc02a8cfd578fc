//! Crash-recovery differential harness: a durable engine killed at a
//! batch boundary and recovered from snapshot + log tail must emit a
//! per-batch match-delta stream **bit-identical** to an uninterrupted run.
//!
//! For every preset × query class of the differential matrix, the same
//! seeded workloads (insert / delete / Zipf-churn batches) are replayed
//! through
//!
//! * an uninterrupted [`GammaEngine`] (the reference stream),
//! * a [`DurableGammaEngine`] killed at a seeded-random batch boundary
//!   (the engine is dropped mid-stream, exactly what a process crash
//!   leaves on disk) and recovered from its durability directory, and
//! * the same pair for [`ShardedEngine`] at 4 shards, whose one log and
//!   snapshot also carry the partition and every shard's resident set.
//!
//! Mid-stream snapshots (`snapshot_every = 2`) run in all durable
//! replays, so log rotation and snapshot/restore of live GPMA state —
//! including the sharded engine's monotone resident sets — are exercised
//! on every test, not just at creation. Replayed batches go through the
//! real batch path, so the recovery report's deltas are compared against
//! the reference stream too: recovery must *reproduce* history, not skip
//! it.

use std::path::PathBuf;

use gamma::datasets::{
    sample_deletion_workload, split_insertion_workload, DatasetPreset, QueryClass, Zipf,
};
use gamma::engine::durable::{
    DurabilityConfig, Durable, DurableGammaEngine, DurableQueryRegistry, DurableShardedEngine,
    DurableView, RecoveryReport,
};
use gamma::engine::registry::{QueryConfig, QueryId, QueryRegistry, RegistryBatchResult};
use gamma::engine::{
    BatchResult, FaultPlan, GammaConfig, GammaEngine, PartitionStrategy, ShardStealing,
    ShardedConfig, ShardedEngine, StealingMode,
};
use gamma::gpu::DeviceConfig;
use gamma::graph::{DynamicGraph, QueryGraph, Update, VMatch, NO_ELABEL};
use gamma::wal::{Failpoints, IoFaultKind, SyncPolicy, WalError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One batch's delta, in comparable (sorted) form.
#[derive(Debug, PartialEq, Eq)]
struct Delta {
    positive: Vec<VMatch>,
    negative: Vec<VMatch>,
    positive_count: u64,
    negative_count: u64,
}

impl From<BatchResult> for Delta {
    fn from(r: BatchResult) -> Self {
        let mut positive = r.positive;
        let mut negative = r.negative;
        positive.sort_unstable();
        negative.sort_unstable();
        Delta {
            positive,
            negative,
            positive_count: r.positive_count,
            negative_count: r.negative_count,
        }
    }
}

/// A registry batch's per-query deltas, in comparable (sorted) form.
fn registry_deltas(r: &RegistryBatchResult) -> Vec<(QueryId, Delta)> {
    r.deltas
        .iter()
        .map(|d| {
            let mut positive = d.positive.clone();
            let mut negative = d.negative.clone();
            positive.sort_unstable();
            negative.sort_unstable();
            (
                d.id,
                Delta {
                    positive,
                    negative,
                    positive_count: d.positive_count,
                    negative_count: d.negative_count,
                },
            )
        })
        .collect()
}

fn gamma_config() -> GammaConfig {
    let mut cfg = GammaConfig {
        device: DeviceConfig::single_sm(),
        ..GammaConfig::default()
    };
    cfg.device.stealing = StealingMode::Active;
    cfg
}

fn sharded_config() -> ShardedConfig {
    ShardedConfig {
        base: gamma_config(),
        num_shards: 4,
        strategy: PartitionStrategy::Hash,
        stealing: ShardStealing::Active,
        faults: None,
        query_id: 0,
    }
}

/// Same seeded workload shape as `tests/differential.rs`: two insert
/// batches carved from the generated graph, one deletion batch, one
/// Zipf-skewed churn batch.
fn build_workload(dataset: &mut DynamicGraph, seed: u64) -> Vec<Vec<Update>> {
    let mut batches = Vec::new();
    let inserts = split_insertion_workload(dataset, 0.12, seed);
    let half = inserts.len().div_ceil(2).max(1);
    for chunk in inserts.chunks(half) {
        batches.push(chunk.to_vec());
    }
    let deletes = sample_deletion_workload(dataset, 0.06, seed ^ 0xdead);
    if !deletes.is_empty() {
        batches.push(deletes);
    }
    let n = dataset.num_vertices();
    let zipf = Zipf::new(n, 0.9);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    let mut churn = Vec::new();
    while churn.len() < 24 {
        let u = zipf.sample(&mut rng) as u32;
        let v = zipf.sample(&mut rng) as u32;
        if u == v {
            continue;
        }
        if rng.random_bool(0.5) {
            churn.push(Update::insert(u, v));
        } else {
            churn.push(Update::delete(u, v));
        }
    }
    batches.push(churn);
    batches
}

fn temp_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "gamma_recovery_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn durability(dir: &std::path::Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        // Group commit: exercises the EveryN sync path; in-process kills
        // leave the page cache intact so no records are lost to buffering.
        sync: SyncPolicy::EveryN(3),
        snapshot_every: Some(2),
        failpoints: None,
    }
}

fn check_recovery(context: &str, report: &RecoveryReport, reference: &[Delta], kill_at: usize) {
    assert_eq!(
        report.recovered_epoch, kill_at as u64,
        "{context}: recovery must reach the kill boundary"
    );
    let first = report.snapshot_epoch as usize;
    assert_eq!(
        report.replayed.len(),
        kill_at - first,
        "{context}: replay must cover snapshot..kill"
    );
    for (i, r) in report.replayed.iter().enumerate() {
        let epoch = first + i;
        let got: Delta = r.clone().into();
        assert_eq!(
            got, reference[epoch],
            "{context}: replayed delta diverges at epoch {epoch}"
        );
    }
}

/// The harness core: reference stream, then kill + recover + continue for
/// both durable engines, comparing every batch delta bit-for-bit.
fn run_recovery(
    preset: DatasetPreset,
    class: QueryClass,
    scale: f64,
    query_size: usize,
    seed: u64,
) {
    let dataset = preset.build(scale, seed);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, seed.wrapping_mul(0x9e37));
    let queries = gamma::datasets::generate_queries(&start, class, query_size, 1, seed ^ 0x51_f1ed);
    let q = queries.first().expect("query extractable");

    // Reference: uninterrupted single-device run.
    let mut engine = GammaEngine::new(start.clone(), q, gamma_config());
    let reference: Vec<Delta> = batches
        .iter()
        .map(|b| engine.apply_batch(b).into())
        .collect();
    // The sharded engine is delta-identical by the differential suite; its
    // reference stream is the same one.

    let kill_at = StdRng::seed_from_u64(seed ^ 0x6b31).random_range(0..=batches.len());
    let tag = format!("{}_{}_{}", preset.name(), class.name(), seed);

    // --- Single-device durable engine ---
    let dir = temp_dir(&format!("gamma_{tag}"));
    {
        let mut d = DurableGammaEngine::create(start.clone(), q, gamma_config(), durability(&dir))
            .expect("create durable engine");
        for (i, b) in batches.iter().take(kill_at).enumerate() {
            let got: Delta = d.apply_batch(b).expect("logged apply").into();
            assert_eq!(got, reference[i], "durable gamma diverges pre-kill at {i}");
        }
        // Kill: drop without any graceful shutdown.
    }
    let (mut d, report) = DurableGammaEngine::recover(q, gamma_config(), durability(&dir))
        .expect("recover durable engine");
    check_recovery(&format!("gamma[{tag}]"), &report, &reference, kill_at);
    for (i, b) in batches.iter().enumerate().skip(kill_at) {
        let got: Delta = d.apply_batch(b).expect("logged apply").into();
        assert_eq!(
            got, reference[i],
            "durable gamma diverges post-recovery at {i}"
        );
    }
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // --- Sharded durable engine (4 shards) ---
    let dir = temp_dir(&format!("sharded_{tag}"));
    {
        let mut d =
            DurableShardedEngine::create(start.clone(), q, sharded_config(), durability(&dir))
                .expect("create durable sharded engine");
        for (i, b) in batches.iter().take(kill_at).enumerate() {
            let got: Delta = d.apply_batch(b).expect("logged apply").into();
            assert_eq!(
                got, reference[i],
                "durable sharded diverges pre-kill at {i}"
            );
        }
    }
    let (mut d, report) = DurableShardedEngine::recover(q, sharded_config(), durability(&dir))
        .expect("recover durable sharded engine");
    check_recovery(&format!("sharded[{tag}]"), &report, &reference, kill_at);
    for (i, b) in batches.iter().enumerate().skip(kill_at) {
        let got: Delta = d.apply_batch(b).expect("logged apply").into();
        assert_eq!(
            got, reference[i],
            "durable sharded diverges post-recovery at {i}"
        );
    }
    drop(d);

    // Idempotent recovery: killing again right after the full run and
    // recovering a second time must land on the final epoch with nothing
    // left to replay past it.
    let (d, report) = DurableShardedEngine::recover(q, sharded_config(), durability(&dir))
        .expect("second recovery");
    assert_eq!(
        report.recovered_epoch,
        batches.len() as u64,
        "second recovery must reach the end of the stream"
    );
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

// ---------------------------------------------------------------------------
// The preset × class matrix, mirroring tests/differential.rs.
// ---------------------------------------------------------------------------

#[test]
fn recovery_gh_dense() {
    run_recovery(DatasetPreset::GH, QueryClass::Dense, 0.04, 4, 101);
}

#[test]
fn recovery_gh_sparse() {
    run_recovery(DatasetPreset::GH, QueryClass::Sparse, 0.04, 5, 102);
}

#[test]
fn recovery_gh_tree() {
    run_recovery(DatasetPreset::GH, QueryClass::Tree, 0.04, 5, 103);
}

#[test]
fn recovery_az_dense() {
    run_recovery(DatasetPreset::AZ, QueryClass::Dense, 0.03, 4, 104);
}

#[test]
fn recovery_az_sparse() {
    run_recovery(DatasetPreset::AZ, QueryClass::Sparse, 0.03, 5, 105);
}

#[test]
fn recovery_az_tree() {
    run_recovery(DatasetPreset::AZ, QueryClass::Tree, 0.03, 5, 106);
}

#[test]
fn recovery_st_dense() {
    run_recovery(DatasetPreset::ST, QueryClass::Dense, 0.03, 4, 106);
}

#[test]
fn recovery_st_sparse() {
    run_recovery(DatasetPreset::ST, QueryClass::Sparse, 0.02, 5, 108);
}

#[test]
fn recovery_st_tree() {
    run_recovery(DatasetPreset::ST, QueryClass::Tree, 0.02, 5, 109);
}

#[test]
fn recovery_nf_edge_labeled() {
    run_recovery(DatasetPreset::NF, QueryClass::Tree, 0.03, 4, 110);
}

// ---------------------------------------------------------------------------
// Chaos cells: runtime fail-stops and injected I/O faults composed with
// crash recovery (`gamma::engine::fault` + `gamma::wal::Failpoints`).
// ---------------------------------------------------------------------------

/// A durable sharded run that loses a shard mid-stream (phase-boundary
/// *and* mid-phase fail-stops), is then killed, and recovers — the delta
/// stream must stay bit-identical to the uninterrupted single-device
/// oracle at every stage, the repaired partition must ride the snapshot,
/// and a second recovery must be idempotent.
#[test]
fn chaos_failstop_then_crash_recovers_bit_identically() {
    let dataset = DatasetPreset::GH.build(0.04, 301);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, 301u64.wrapping_mul(0x9e37));
    let queries =
        gamma::datasets::generate_queries(&start, QueryClass::Dense, 4, 1, 301 ^ 0x51_f1ed);
    let q = queries.first().expect("query extractable");

    let mut engine = GammaEngine::new(start.clone(), q, gamma_config());
    let reference: Vec<Delta> = batches
        .iter()
        .map(|b| engine.apply_batch(b).into())
        .collect();

    // Shard 2 dies before phase 0's first scheduling decision; shard 0
    // dies with phase 1 in flight. Failover keeps deltas exact, so the
    // pre-kill stream must already match the oracle.
    let chaos_config = || ShardedConfig {
        faults: Some(FaultPlan::new().fail_stop(0, 0, 2).fail_stop(1, 4, 0)),
        ..sharded_config()
    };
    let kill_at = (batches.len() / 2).max(1);
    let dir = temp_dir("chaos_failstop_301");
    {
        let mut d =
            DurableShardedEngine::create(start.clone(), q, chaos_config(), durability(&dir))
                .expect("create durable chaos engine");
        for (i, b) in batches.iter().take(kill_at).enumerate() {
            let got: Delta = d.apply_batch(b).expect("logged apply").into();
            assert_eq!(got, reference[i], "chaos run diverges pre-kill at {i}");
        }
        let stats = d.engine().shard_stats();
        assert!(
            stats.failovers > 0,
            "no failover fired — chaos cell vacuous"
        );
        assert!(
            stats.requeued_units > 0,
            "failover requeued nothing — chaos cell vacuous"
        );
        // Kill: drop without any graceful shutdown, mid-degraded-state.
    }
    // Recovery restarts the cluster all-alive over the snapshotted
    // (repaired) partition; the fault plan is spent — pass none.
    let (mut d, report) = DurableShardedEngine::recover(q, sharded_config(), durability(&dir))
        .expect("recover after chaos");
    check_recovery("chaos-failstop", &report, &reference, kill_at);
    for (i, b) in batches.iter().enumerate().skip(kill_at) {
        let got: Delta = d.apply_batch(b).expect("logged apply").into();
        assert_eq!(got, reference[i], "chaos run diverges post-recovery at {i}");
    }
    drop(d);

    // Idempotent double recovery: recovering again reaches the same
    // epoch with the same state and nothing extra to replay.
    let (d, report) = DurableShardedEngine::recover(q, sharded_config(), durability(&dir))
        .expect("second recovery after chaos");
    assert_eq!(
        report.recovered_epoch,
        batches.len() as u64,
        "double recovery must land on the final epoch"
    );
    assert!(report.replayed.len() <= batches.len());
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Replaying the *same* fault plan during recovery is also exact: the
/// fail-stops re-fire at the same virtual coordinates while the log
/// replays, and the delta stream still matches the oracle (failover
/// never changes deltas, so chaos during recovery is harmless too).
#[test]
fn chaos_plan_refired_during_recovery_is_still_exact() {
    let dataset = DatasetPreset::AZ.build(0.03, 302);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, 302u64.wrapping_mul(0x9e37));
    let queries =
        gamma::datasets::generate_queries(&start, QueryClass::Sparse, 5, 1, 302 ^ 0x51_f1ed);
    let q = queries.first().expect("query extractable");

    let mut engine = GammaEngine::new(start.clone(), q, gamma_config());
    let reference: Vec<Delta> = batches
        .iter()
        .map(|b| engine.apply_batch(b).into())
        .collect();

    let chaos_config = || ShardedConfig {
        faults: Some(FaultPlan::new().fail_stop(0, 0, 1)),
        ..sharded_config()
    };
    let kill_at = batches.len();
    let dir = temp_dir("chaos_refire_302");
    {
        let mut d =
            DurableShardedEngine::create(start.clone(), q, chaos_config(), durability(&dir))
                .expect("create durable chaos engine");
        for (i, b) in batches.iter().enumerate() {
            let got: Delta = d.apply_batch(b).expect("logged apply").into();
            assert_eq!(got, reference[i], "chaos run diverges pre-kill at {i}");
        }
    }
    let (d, report) = DurableShardedEngine::recover(q, chaos_config(), durability(&dir))
        .expect("recover with the same plan");
    check_recovery("chaos-refire", &report, &reference, kill_at);
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// An fsync failure during snapshot rotation must surface as a typed
/// error and leave the *previous* snapshot (and recovery) intact — the
/// tmp+rename protocol means a failed snapshot damages only the tmp
/// file. A transient fsync stumble must be absorbed silently.
#[test]
fn chaos_snapshot_fsync_failure_keeps_previous_snapshot() {
    let dataset = DatasetPreset::GH.build(0.04, 303);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, 303u64.wrapping_mul(0x9e37));
    let queries =
        gamma::datasets::generate_queries(&start, QueryClass::Dense, 4, 1, 303 ^ 0x51_f1ed);
    let q = queries.first().expect("query extractable");

    let mut engine = GammaEngine::new(start.clone(), q, gamma_config());
    let reference: Vec<Delta> = batches
        .iter()
        .map(|b| engine.apply_batch(b).into())
        .collect();

    let fp = Failpoints::new();
    let dir = temp_dir("chaos_fsync_303");
    let dura = || DurabilityConfig {
        dir: dir.clone(),
        sync: SyncPolicy::EveryN(3),
        // Explicit snapshots only: the test aims faults at them.
        snapshot_every: None,
        failpoints: Some(fp.clone()),
    };
    let mut d = DurableShardedEngine::create(start.clone(), q, sharded_config(), dura())
        .expect("create durable engine");
    for (i, b) in batches.iter().enumerate() {
        let got: Delta = d.apply_batch(b).expect("logged apply").into();
        assert_eq!(got, reference[i], "diverges at {i}");
    }

    // A hard fsync failure lands on the snapshot's tmp file: the call
    // errors, the previous snapshot survives.
    fp.schedule(fp.written(), IoFaultKind::SyncFail);
    let err = d.snapshot().expect_err("fsync death must surface");
    assert!(
        matches!(err, WalError::SyncFailed(_)),
        "expected SyncFailed, got {err:?}"
    );
    assert_eq!(fp.injected(), 1, "exactly the scheduled fault fired");
    drop(d);

    // Recovery still reaches the full stream from the epoch-0 snapshot
    // plus logs — the failed rotation lost nothing.
    let (mut d, report) =
        DurableShardedEngine::recover(q, sharded_config(), dura()).expect("recover past fsync");
    assert_eq!(
        report.recovered_epoch,
        batches.len() as u64,
        "failed snapshot must not move the recovery boundary"
    );
    check_recovery("chaos-fsync", &report, &reference, batches.len());

    // A transient fsync stumble is retried on the virtual clock and the
    // rotation completes; recovery then starts from the new snapshot.
    fp.schedule(fp.written(), IoFaultKind::SyncTransient { times: 2 });
    d.snapshot().expect("transient fsync must be absorbed");
    drop(d);
    let (d, report) = DurableShardedEngine::recover(q, sharded_config(), dura())
        .expect("recover from rotated snapshot");
    assert_eq!(report.snapshot_epoch, batches.len() as u64);
    assert_eq!(report.recovered_epoch, batches.len() as u64);
    assert!(report.replayed.is_empty(), "nothing left to replay");
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// ENOSPC while logging a batch surfaces as the typed `NoSpace` error
/// before the batch executes: the caller can fail the write without the
/// engine state running ahead of the log.
#[test]
fn chaos_enospc_fails_the_batch_before_it_applies() {
    let dataset = DatasetPreset::GH.build(0.04, 304);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, 304u64.wrapping_mul(0x9e37));
    let queries =
        gamma::datasets::generate_queries(&start, QueryClass::Dense, 4, 1, 304 ^ 0x51_f1ed);
    let q = queries.first().expect("query extractable");

    let fp = Failpoints::new();
    let dir = temp_dir("chaos_enospc_304");
    let dura = DurabilityConfig {
        dir: dir.clone(),
        sync: SyncPolicy::EveryRecord,
        snapshot_every: None,
        failpoints: Some(fp.clone()),
    };
    let mut d = DurableShardedEngine::create(start.clone(), q, sharded_config(), dura)
        .expect("create durable engine");
    let before = d.batches_processed();
    fp.schedule(fp.written(), IoFaultKind::Enospc);
    let err = d
        .apply_batch(&batches[0])
        .expect_err("full disk must surface");
    assert!(
        matches!(err, WalError::NoSpace(_)),
        "expected NoSpace, got {err:?}"
    );
    assert_eq!(
        d.batches_processed(),
        before,
        "a batch that could not be logged must not execute"
    );
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The single-device durable engine under the same failpoint schedule:
/// transient write faults mid-stream are absorbed by the virtual-clock
/// retry (the stream stays exact), a hard fsync death aimed at its
/// snapshot surfaces without moving the recovery boundary, and a crash
/// afterwards recovers bit-identically.
#[test]
fn chaos_gamma_transient_faults_then_crash_recovers() {
    let dataset = DatasetPreset::AZ.build(0.03, 305);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, 305u64.wrapping_mul(0x9e37));
    let queries =
        gamma::datasets::generate_queries(&start, QueryClass::Sparse, 5, 1, 305 ^ 0x51_f1ed);
    let q = queries.first().expect("query extractable");

    let mut engine = GammaEngine::new(start.clone(), q, gamma_config());
    let reference: Vec<Delta> = batches
        .iter()
        .map(|b| engine.apply_batch(b).into())
        .collect();

    let fp = Failpoints::new();
    let dir = temp_dir("chaos_gamma_305");
    let dura = || DurabilityConfig {
        dir: dir.clone(),
        sync: SyncPolicy::EveryRecord,
        snapshot_every: None,
        failpoints: Some(fp.clone()),
    };
    let kill_at = (batches.len() / 2).max(1);
    {
        let mut d = DurableGammaEngine::create(start.clone(), q, gamma_config(), dura())
            .expect("create durable gamma engine");
        // Sprinkle transient faults ahead of the log head: each stalls the
        // writer for a few virtual backoff cycles, none reaches the caller.
        fp.schedule(fp.written() + 5, IoFaultKind::WriteTransient { times: 2 });
        fp.schedule(fp.written() + 900, IoFaultKind::SyncTransient { times: 1 });
        for (i, b) in batches.iter().take(kill_at).enumerate() {
            let got: Delta = d.apply_batch(b).expect("logged apply").into();
            assert_eq!(got, reference[i], "gamma chaos diverges pre-kill at {i}");
        }
        // Both faults were absorbed by the retry loop: they count as
        // injected, yet every apply above succeeded.
        assert!(
            fp.injected() >= 1,
            "no transient fault fired — cell vacuous"
        );

        // A hard fsync death on snapshot rotation: typed error, and the
        // tmp+rename protocol keeps the recovery boundary where it was.
        fp.schedule(fp.written(), IoFaultKind::SyncFail);
        let err = d.snapshot().expect_err("fsync death must surface");
        assert!(
            matches!(err, WalError::SyncFailed(_)),
            "expected SyncFailed, got {err:?}"
        );
        // Kill: drop without graceful shutdown.
    }
    let (mut d, report) =
        DurableGammaEngine::recover(q, gamma_config(), dura()).expect("recover gamma after chaos");
    check_recovery("chaos-gamma", &report, &reference, kill_at);
    for (i, b) in batches.iter().enumerate().skip(kill_at) {
        let got: Delta = d.apply_batch(b).expect("logged apply").into();
        assert_eq!(
            got, reference[i],
            "gamma chaos diverges post-recovery at {i}"
        );
    }
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A *seeded* fault plan (the chaos-matrix generator, not hand-placed
/// coordinates) composed with a crash: whatever deaths the seed draws,
/// the durable stream must stay exact and recovery must complete over
/// the repaired partition.
#[test]
fn chaos_seeded_plan_survives_crash_recovery() {
    let dataset = DatasetPreset::GH.build(0.04, 306);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, 306u64.wrapping_mul(0x9e37));
    let queries =
        gamma::datasets::generate_queries(&start, QueryClass::Dense, 4, 1, 306 ^ 0x51_f1ed);
    let q = queries.first().expect("query extractable");

    let mut engine = GammaEngine::new(start.clone(), q, gamma_config());
    let reference: Vec<Delta> = batches
        .iter()
        .map(|b| engine.apply_batch(b).into())
        .collect();

    let chaos_config = || ShardedConfig {
        faults: Some(FaultPlan::seeded(306, 4, 3)),
        ..sharded_config()
    };
    let kill_at = (batches.len() / 2).max(1);
    let dir = temp_dir("chaos_seeded_306");
    {
        let mut d =
            DurableShardedEngine::create(start.clone(), q, chaos_config(), durability(&dir))
                .expect("create durable seeded-chaos engine");
        for (i, b) in batches.iter().take(kill_at).enumerate() {
            let got: Delta = d.apply_batch(b).expect("logged apply").into();
            assert_eq!(got, reference[i], "seeded chaos diverges pre-kill at {i}");
        }
        // The seeded generator draws coordinates in phases 0..4 and steps
        // 0..48, all reachable here — at least one death must have fired.
        assert!(
            d.engine().shard_stats().failovers > 0,
            "seeded plan fired nothing — cell vacuous"
        );
    }
    let (mut d, report) = DurableShardedEngine::recover(q, sharded_config(), durability(&dir))
        .expect("recover after seeded chaos");
    check_recovery("chaos-seeded", &report, &reference, kill_at);
    for (i, b) in batches.iter().enumerate().skip(kill_at) {
        let got: Delta = d.apply_batch(b).expect("logged apply").into();
        assert_eq!(
            got, reference[i],
            "seeded chaos diverges post-recovery at {i}"
        );
    }
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The greedy partition's owner table is state the graph cannot rebuild
/// implicitly (it depends on the *seed* graph, not the recovered one), so
/// it rides in the snapshot. Kill, recover, and check the table came back
/// verbatim and deltas stay bit-identical.
#[test]
fn recovery_preserves_greedy_partition() {
    let dataset = DatasetPreset::GH.build(0.04, 207);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, 207u64.wrapping_mul(0x9e37));
    let queries =
        gamma::datasets::generate_queries(&start, QueryClass::Dense, 4, 1, 207 ^ 0x51_f1ed);
    let q = queries.first().expect("query extractable");

    let config = || ShardedConfig {
        base: gamma_config(),
        num_shards: 4,
        strategy: PartitionStrategy::Greedy,
        stealing: ShardStealing::Active,
        faults: None,
        query_id: 0,
    };
    let mut reference_engine = ShardedEngine::new(start.clone(), q, config());
    let reference: Vec<Delta> = batches
        .iter()
        .map(|b| reference_engine.apply_batch(b).into())
        .collect();
    let want_owners: Vec<u16> = reference_engine
        .partition()
        .owners()
        .expect("greedy builds an owner table")
        .to_vec();

    let kill_at = batches.len() / 2;
    let dir = temp_dir("sharded_greedy_207");
    {
        let mut d = DurableShardedEngine::create(start.clone(), q, config(), durability(&dir))
            .expect("create durable greedy engine");
        for (i, b) in batches.iter().take(kill_at).enumerate() {
            let got: Delta = d.apply_batch(b).expect("logged apply").into();
            assert_eq!(got, reference[i], "durable greedy diverges pre-kill at {i}");
        }
    }
    let (mut d, report) = DurableShardedEngine::recover(q, config(), durability(&dir))
        .expect("recover durable greedy engine");
    check_recovery("sharded-greedy", &report, &reference, kill_at);
    assert_eq!(
        d.engine().partition().strategy(),
        PartitionStrategy::Greedy,
        "recovered engine lost its partition strategy"
    );
    assert_eq!(
        d.engine().partition().owners().expect("owner table"),
        want_owners.as_slice(),
        "recovered owner table differs from the one the engine was built with"
    );
    for (i, b) in batches.iter().enumerate().skip(kill_at) {
        let got: Delta = d.apply_batch(b).expect("logged apply").into();
        assert_eq!(
            got, reference[i],
            "durable greedy diverges post-recovery at {i}"
        );
    }
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Standing-query serving tier: a [`DurableQueryRegistry`] killed at a
/// batch boundary must recover its registered query set from the snapshot,
/// replay the log tail through the real grouped batch path, and
/// then continue emitting per-query delta streams bit-identical to an
/// uninterrupted registry — including a query registered mid-stream
/// (registration snapshots eagerly, so it always survives the crash).
#[test]
fn recovery_query_registry_preserves_subscriptions() {
    let dataset = DatasetPreset::GH.build(0.04, 101);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, 0x9e37);
    let queries = gamma::datasets::generate_queries(&start, QueryClass::Sparse, 4, 2, 7901);
    assert!(queries.len() >= 2, "need two patterns");
    let late = gamma::datasets::generate_queries(&start, QueryClass::Tree, 4, 1, 7902)
        .pop()
        .unwrap_or_else(|| queries[0].clone());

    // Reference: uninterrupted in-memory registry, same op sequence.
    let mut reference = QueryRegistry::new(start.clone(), gamma_config());
    reference.register(&queries[0], QueryConfig::default());
    reference.register(&queries[1], QueryConfig::default());
    reference.register(&queries[0], QueryConfig::default()); // duplicate: shared group

    let dir = temp_dir("registry");
    let mut durable = DurableQueryRegistry::create(start.clone(), gamma_config(), durability(&dir))
        .expect("create durable registry");
    durable
        .register(&queries[0], QueryConfig::default())
        .expect("register");
    durable
        .register(&queries[1], QueryConfig::default())
        .expect("register");
    durable
        .register(&queries[0], QueryConfig::default())
        .expect("register");

    let mut expected: Vec<Vec<(QueryId, Delta)>> = Vec::new();
    let kill_at = 1 + (batches.len() / 2);
    for (i, b) in batches.iter().enumerate() {
        // Mid-stream registration right before the second batch, on both
        // sides — its delta stream starts at that batch.
        if i == 1 {
            reference.register(&late, QueryConfig::default());
            durable
                .register(&late, QueryConfig::default())
                .expect("mid-stream register");
        }
        expected.push(registry_deltas(&reference.apply_batch(b)));
        if i < kill_at {
            let got = registry_deltas(&durable.apply_batch(b).expect("logged apply"));
            assert_eq!(
                got, expected[i],
                "durable registry diverges pre-kill at {i}"
            );
        }
    }

    // Crash: drop mid-stream, recover from snapshot + log tail.
    drop(durable);
    let (mut recovered, report) =
        DurableQueryRegistry::recover(gamma_config(), durability(&dir)).expect("recover");
    assert!(report.clean, "in-process kill leaves a clean log");
    assert_eq!(report.recovered_epoch, kill_at as u64);
    assert_eq!(recovered.batches_processed(), kill_at as u64);
    // Replay window: snapshot epoch .. kill point, delta streams intact.
    for (off, r) in report.replayed.iter().enumerate() {
        let i = report.snapshot_epoch as usize + off;
        assert_eq!(
            registry_deltas(r),
            expected[i],
            "replayed batch {i} diverges from the uninterrupted stream"
        );
    }
    // The query set and its grouping survived the crash.
    assert_eq!(recovered.registry().num_queries(), reference.num_queries());
    assert_eq!(recovered.registry().group_count(), reference.group_count());

    // Post-recovery continuation stays bit-identical.
    for (i, b) in batches.iter().enumerate().skip(kill_at) {
        let got = registry_deltas(&recovered.apply_batch(b).expect("logged apply"));
        assert_eq!(got, expected[i], "recovered registry diverges at {i}");
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The registry cell above never unregisters. Here a registration is
/// removed mid-stream — the last one handed out, so a recovered id
/// allocator that forgot it would hand its id out again — after the last
/// automatic snapshot ahead of the crash, so only the snapshot
/// `unregister` writes itself carries the removal. The recovered registry
/// must hold the same ids as the uninterrupted one, give the next
/// registration the same id, and keep every delta stream bit-identical.
#[test]
fn recovery_query_registry_unregister_survives_crash() {
    let dataset = DatasetPreset::GH.build(0.04, 111);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, 111u64.wrapping_mul(0x9e37));
    let queries = gamma::datasets::generate_queries(&start, QueryClass::Sparse, 4, 2, 7911);
    assert!(queries.len() >= 2, "need two patterns");
    let late = gamma::datasets::generate_queries(&start, QueryClass::Tree, 4, 1, 7912)
        .pop()
        .unwrap_or_else(|| queries[0].clone());

    let mut reference = QueryRegistry::new(start.clone(), gamma_config());
    let dir = temp_dir("registry_unregister");
    let mut durable = DurableQueryRegistry::create(start.clone(), gamma_config(), durability(&dir))
        .expect("create durable registry");
    for q in [&queries[0], &queries[1], &queries[0]] {
        let id = reference.register(q, QueryConfig::default());
        let got = durable
            .register(q, QueryConfig::default())
            .expect("register");
        assert_eq!(got, id);
    }

    let dropped = QueryId(2);
    let kill_at = 1 + (batches.len() / 2);
    let mut expected = Vec::new();
    for (i, b) in batches.iter().take(kill_at).enumerate() {
        if i == kill_at - 1 {
            assert!(reference.unregister(dropped));
            assert!(durable.unregister(dropped).expect("mid-stream unregister"));
        }
        expected.push(registry_deltas(&reference.apply_batch(b)));
        let got = registry_deltas(&durable.apply_batch(b).expect("logged apply"));
        assert_eq!(
            got, expected[i],
            "durable registry diverges pre-kill at {i}"
        );
    }

    drop(durable);
    let (mut recovered, report) =
        DurableQueryRegistry::recover(gamma_config(), durability(&dir)).expect("recover");
    assert_eq!(report.recovered_epoch, kill_at as u64);
    assert_eq!(
        report.snapshot_epoch + 1,
        kill_at as u64,
        "recovery must start from the snapshot unregister wrote"
    );
    for (off, r) in report.replayed.iter().enumerate() {
        let i = report.snapshot_epoch as usize + off;
        assert_eq!(
            registry_deltas(r),
            expected[i],
            "replayed batch {i} diverges"
        );
    }
    assert_eq!(
        recovered.registry().query_ids(),
        reference.query_ids(),
        "the unregistered id came back, or another went missing"
    );

    // The id allocator survived: the next registration gets the same id
    // on both sides, never the unregistered one.
    let want = reference.register(&late, QueryConfig::default());
    let got = recovered
        .register(&late, QueryConfig::default())
        .expect("register after recovery");
    assert_eq!(got, want, "recovered id allocator diverges");
    assert_ne!(got, dropped);
    for (i, b) in batches.iter().enumerate().skip(kill_at) {
        let want = registry_deltas(&reference.apply_batch(b));
        let got = registry_deltas(&recovered.apply_batch(b).expect("logged apply"));
        assert_eq!(got, want, "recovered registry diverges at {i}");
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A 4-vertex path 0–1–2–3 (one vertex label) and a triangle query:
/// inserting (0, 2) closes one data triangle.
fn probe_graph() -> (DynamicGraph, QueryGraph) {
    let mut g = DynamicGraph::new();
    for _ in 0..4 {
        g.add_vertex(0);
    }
    for (u, v) in [(0, 1), (1, 2), (2, 3)] {
        g.insert_edge(u, v, NO_ELABEL);
    }
    let mut b = QueryGraph::builder();
    let (x, y, z) = (b.vertex(0), b.vertex(0), b.vertex(0));
    b.edge(x, y).edge(y, z).edge(x, z);
    (g, b.build())
}

/// Feeds `d` a batch naming a vertex far outside its 4-vertex graph, then
/// a valid batch, and recovers. The poison batch must be refused before
/// it is logged; the valid one must apply and survive the crash.
fn check_poison_refused<V: DurableView>(
    view: &str,
    dir: &std::path::Path,
    mut d: Durable<V>,
    recover: impl FnOnce() -> Result<u64, WalError>,
) {
    let log = dir.join("wal.log");
    let log_len = || std::fs::metadata(&log).expect("log exists").len();
    let before = log_len();
    match d.apply_batch(&[Update::insert(0, 10_000)]) {
        Err(WalError::Rejected(_)) => {}
        Err(e) => panic!("{view}: expected Rejected, got {e:?}"),
        Ok(_) => panic!("{view}: a batch naming vertex 10000 applied"),
    }
    assert_eq!(log_len(), before, "{view}: a refused batch reached the log");
    assert_eq!(
        d.batches_processed(),
        0,
        "{view}: a refused batch moved the epoch"
    );
    d.apply_batch(&[Update::insert(0, 2)])
        .expect("a valid batch after the refusal applies");
    assert_eq!(d.batches_processed(), 1);
    drop(d);
    let epoch = recover().unwrap_or_else(|e| panic!("{view}: recovery failed: {e}"));
    assert_eq!(epoch, 1, "{view}: recovery must reach the valid batch");
    std::fs::remove_dir_all(dir).expect("cleanup");
}

#[test]
fn recovery_rejects_poison_batch_on_every_view() {
    let (g, q) = probe_graph();
    let sharded = || ShardedConfig {
        num_shards: 2,
        ..sharded_config()
    };

    let dir = temp_dir("poison_gamma");
    let d = DurableGammaEngine::create(g.clone(), &q, gamma_config(), DurabilityConfig::new(&dir))
        .expect("create");
    check_poison_refused("gamma", &dir, d, || {
        DurableGammaEngine::recover(&q, gamma_config(), DurabilityConfig::new(&dir))
            .map(|(_, r)| r.recovered_epoch)
    });

    let dir = temp_dir("poison_sharded");
    let d = DurableShardedEngine::create(g.clone(), &q, sharded(), DurabilityConfig::new(&dir))
        .expect("create");
    check_poison_refused("sharded", &dir, d, || {
        DurableShardedEngine::recover(&q, sharded(), DurabilityConfig::new(&dir))
            .map(|(_, r)| r.recovered_epoch)
    });

    let dir = temp_dir("poison_registry");
    let mut d = DurableQueryRegistry::create(g, gamma_config(), DurabilityConfig::new(&dir))
        .expect("create");
    d.register(&q, QueryConfig::default()).expect("register");
    check_poison_refused("registry", &dir, d, || {
        DurableQueryRegistry::recover(gamma_config(), DurabilityConfig::new(&dir))
            .map(|(_, r)| r.recovered_epoch)
    });
}

fn assert_corrupt<T>(case: &str, r: Result<T, WalError>) {
    match r {
        Err(WalError::Corrupt(_)) => {}
        Err(e) => panic!("{case}: expected Corrupt, got {e:?}"),
        Ok(_) => panic!("{case}: recovery accepted a mismatched directory"),
    }
}

/// A directory recovered with a configuration it was not written with —
/// another query, another shard count, another executor — is refused as
/// corrupt instead of recovering a different engine or panicking.
#[test]
fn recovery_refuses_mismatched_directory() {
    let (g, q) = probe_graph();
    let mut b = QueryGraph::builder();
    let (x, y, z) = (b.vertex(0), b.vertex(0), b.vertex(0));
    b.edge(x, y).edge(y, z);
    let path = b.build();
    let shards = |num_shards| ShardedConfig {
        num_shards,
        ..sharded_config()
    };

    let gamma_dir = temp_dir("mismatch_gamma");
    let mut d = DurableGammaEngine::create(g.clone(), &q, gamma_config(), durability(&gamma_dir))
        .expect("create");
    d.apply_batch(&[Update::insert(0, 2)]).expect("apply");
    drop(d);
    let sharded_dir = temp_dir("mismatch_sharded");
    let mut d =
        DurableShardedEngine::create(g, &q, shards(4), durability(&sharded_dir)).expect("create");
    d.apply_batch(&[Update::insert(0, 2)]).expect("apply");
    drop(d);

    assert_corrupt(
        "gamma directory, another query",
        DurableGammaEngine::recover(&path, gamma_config(), durability(&gamma_dir)),
    );
    assert_corrupt(
        "4-shard directory, 2 shards",
        DurableShardedEngine::recover(&q, shards(2), durability(&sharded_dir)),
    );
    assert_corrupt(
        "sharded directory as one device",
        DurableGammaEngine::recover(&q, gamma_config(), durability(&sharded_dir)),
    );
    assert_corrupt(
        "one-device directory as sharded",
        DurableShardedEngine::recover(&q, shards(4), durability(&gamma_dir)),
    );

    // The refusals changed nothing: each directory still recovers with the
    // configuration it was written with.
    let (_, r) = DurableGammaEngine::recover(&q, gamma_config(), durability(&gamma_dir))
        .expect("recover gamma");
    assert_eq!(r.recovered_epoch, 1);
    let (_, r) = DurableShardedEngine::recover(&q, shards(4), durability(&sharded_dir))
        .expect("recover sharded");
    assert_eq!(r.recovered_epoch, 1);
    std::fs::remove_dir_all(&gamma_dir).expect("cleanup");
    std::fs::remove_dir_all(&sharded_dir).expect("cleanup");
}

// ---------------------------------------------------------------------------
// Automatic snapshots off the batch path: the hand-off to a background
// writer, the two log files it alternates between, and its failures.
// ---------------------------------------------------------------------------

/// The workload of the cells below: the matrix's GH preset with a Dense
/// query, and the uninterrupted engine's deltas.
fn handoff_workload(seed: u64) -> (DynamicGraph, QueryGraph, Vec<Vec<Update>>, Vec<Delta>) {
    let dataset = DatasetPreset::GH.build(0.04, seed);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, seed.wrapping_mul(0x9e37));
    let q = gamma::datasets::generate_queries(&start, QueryClass::Dense, 4, 1, seed ^ 0x51_f1ed)
        .pop()
        .expect("query extractable");
    let mut engine = GammaEngine::new(start.clone(), &q, gamma_config());
    let reference = batches
        .iter()
        .map(|b| engine.apply_batch(b).into())
        .collect();
    assert!(batches.len() >= 4, "the cells need two automatic snapshots");
    (start, q, batches, reference)
}

/// Bytes one batch's log record adds to the write stream: its frame
/// header (length, epoch, CRC) and the encoded batch.
fn record_len(batch: &[Update]) -> u64 {
    16 + gamma::wal::codec::updates_to_bytes(batch).len() as u64
}

fn log_records(dir: &std::path::Path, file: &str) -> Vec<u64> {
    gamma::wal::WalReader::read(&dir.join(file))
        .expect("read a log file")
        .records
        .iter()
        .map(|r| r.epoch)
        .collect()
}

/// Automatic snapshots every 2 batches: the batch at each multiple hands
/// the snapshot off and the log switches files, the file it left is
/// emptied once the snapshot is durable, and dropping the engine right
/// after a hand-off finishes that snapshot, so recovery starts from it.
#[test]
fn recovery_automatic_snapshots_alternate_log_files() {
    let (start, q, batches, reference) = handoff_workload(311);
    let dir = temp_dir("alternate_311");
    let dura = || DurabilityConfig {
        sync: SyncPolicy::EveryRecord,
        snapshot_every: Some(2),
        ..DurabilityConfig::new(&dir)
    };
    let mut d = DurableGammaEngine::create(start.clone(), &q, gamma_config(), dura())
        .expect("create durable engine");
    let mut files = Vec::new();
    for (i, b) in batches.iter().take(4).enumerate() {
        let got: Delta = d.apply_batch(b).expect("logged apply").into();
        assert_eq!(got, reference[i], "diverges at {i}");
        if i < 3 {
            assert!(d.snapshot_failure().is_none(), "snapshot at {i} failed");
            files.push((log_records(&dir, "wal.log"), log_records(&dir, "wal.1.log")));
        }
    }
    assert_eq!(
        files,
        [
            (vec![0], vec![]),
            // Snapshot 2 is durable: the log moved on, its old file is empty.
            (vec![], vec![]),
            (vec![], vec![2]),
        ]
    );
    // Batch 3 handed off snapshot 4; the drop finishes it.
    drop(d);
    let (mut d, report) = DurableGammaEngine::recover(&q, gamma_config(), dura()).expect("recover");
    assert_eq!(
        report.snapshot_epoch, 4,
        "the dropped engine's last snapshot"
    );
    assert!(report.replayed.is_empty() && report.clean);
    assert_eq!(log_records(&dir, "wal.1.log"), Vec::<u64>::new());
    for (i, b) in batches.iter().enumerate().skip(4) {
        let got: Delta = d.apply_batch(b).expect("logged apply").into();
        assert_eq!(got, reference[i], "diverges post-recovery at {i}");
    }
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Bytes of the first automatic snapshot's file: the write stream of a
/// fault-free run around the batch that hands it off, less that batch's
/// record and the spare's header.
fn first_snapshot_len(start: &DynamicGraph, q: &QueryGraph, batches: &[Vec<Update>]) -> u64 {
    let fp = Failpoints::new();
    let dir = temp_dir("snapshot_len");
    let dura = DurabilityConfig {
        sync: SyncPolicy::EveryN(3),
        snapshot_every: Some(2),
        failpoints: Some(fp.clone()),
        ..DurabilityConfig::new(&dir)
    };
    let mut d = DurableGammaEngine::create(start.clone(), q, gamma_config(), dura)
        .expect("create durable engine");
    d.apply_batch(&batches[0]).expect("logged apply");
    let before = fp.written();
    d.apply_batch(&batches[1]).expect("logged apply");
    let len = fp.written() - before - record_len(&batches[1]) - 8;
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    len
}

/// An automatic snapshot whose background write is torn at its first,
/// middle or last byte, then a crash one batch later. The batch that
/// handed it off still returns its delta; recovery starts from the
/// snapshot before it and replays the batches of both log files; and
/// every delta, after recovery too, equals the uninterrupted run's.
#[test]
fn chaos_torn_automatic_snapshot_recovers_across_both_logs() {
    let (start, q, batches, reference) = handoff_workload(307);
    let snapshot_len = first_snapshot_len(&start, &q, &batches);
    for keep in [0, snapshot_len / 2, snapshot_len - 1] {
        let fp = Failpoints::new();
        let dir = temp_dir(&format!("chaos_torn_307_{keep}"));
        let dura = || DurabilityConfig {
            sync: SyncPolicy::EveryN(3),
            snapshot_every: Some(2),
            failpoints: Some(fp.clone()),
            ..DurabilityConfig::new(&dir)
        };
        let kill_at = 3;
        {
            let mut d = DurableGammaEngine::create(start.clone(), &q, gamma_config(), dura())
                .expect("create durable engine");
            for (i, b) in batches.iter().take(kill_at).enumerate() {
                if i == 1 {
                    // The snapshot's bytes follow this batch's record.
                    let at = fp.written() + record_len(b);
                    fp.schedule(at, IoFaultKind::ShortWrite { keep });
                }
                let got: Delta = d.apply_batch(b).expect("logged apply").into();
                assert_eq!(got, reference[i], "keep {keep}: diverges pre-kill at {i}");
            }
            assert!(
                matches!(d.snapshot_failure(), Some(WalError::Io(_))),
                "keep {keep}: the torn snapshot is reported"
            );
            assert_eq!(fp.injected(), 1);
            // Kill. The first file keeps the batches the lost snapshot
            // would have covered; the second holds the batch after it.
        }
        assert_eq!(log_records(&dir, "wal.log"), [0, 1]);
        assert_eq!(log_records(&dir, "wal.1.log"), [2]);
        let (mut d, report) = DurableGammaEngine::recover(&q, gamma_config(), dura())
            .expect("recover across both logs");
        assert_eq!(report.snapshot_epoch, 0, "keep {keep}: previous snapshot");
        check_recovery(&format!("torn[{keep}]"), &report, &reference, kill_at);
        for (i, b) in batches.iter().enumerate().skip(kill_at) {
            let got: Delta = d.apply_batch(b).expect("logged apply").into();
            assert_eq!(
                got, reference[i],
                "keep {keep}: diverges post-recovery at {i}"
            );
        }
        drop(d);
        let (_, report) =
            DurableGammaEngine::recover(&q, gamma_config(), dura()).expect("second recovery");
        assert_eq!(report.recovered_epoch, batches.len() as u64);
        assert!(report.snapshot_epoch >= kill_at as u64);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// An automatic snapshot whose tmp-file fsync fails: the batch that
/// handed it off still returns `Ok` with its delta, `snapshot_failure`
/// reports the failure, the next automatic snapshot succeeds and clears
/// it, and recovery reaches every batch.
#[test]
fn chaos_failed_automatic_snapshot_is_reported_and_retried() {
    let (start, q, batches, reference) = handoff_workload(308);
    let fp = Failpoints::new();
    let dir = temp_dir("chaos_autosync_308");
    let dura = || DurabilityConfig {
        sync: SyncPolicy::EveryRecord,
        snapshot_every: Some(2),
        failpoints: Some(fp.clone()),
        ..DurabilityConfig::new(&dir)
    };
    let mut d = DurableGammaEngine::create(start.clone(), &q, gamma_config(), dura())
        .expect("create durable engine");
    for (i, b) in batches.iter().enumerate() {
        if i == 1 {
            // Past this batch's record and its own fsync: the first sync
            // after it is the snapshot's.
            fp.schedule(fp.written() + record_len(b) + 1, IoFaultKind::SyncFail);
        }
        let got: Delta = d
            .apply_batch(b)
            .expect("a logged and applied batch returns its delta")
            .into();
        assert_eq!(got, reference[i], "diverges at {i}");
        match i {
            1 => assert!(
                matches!(d.snapshot_failure(), Some(WalError::SyncFailed(_))),
                "the failed snapshot is reported"
            ),
            3 => assert!(
                d.snapshot_failure().is_none(),
                "the next automatic snapshot succeeds"
            ),
            _ => {}
        }
    }
    assert_eq!(fp.injected(), 1);
    drop(d);
    let (d, report) = DurableGammaEngine::recover(&q, gamma_config(), dura()).expect("recover");
    assert_eq!(report.snapshot_epoch, 4, "recovery starts from the retry");
    check_recovery("auto-sync-fail", &report, &reference, batches.len());
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A directory sync that fails after an explicit snapshot's rename: the
/// new snapshot may not survive a crash, so `snapshot` reports
/// `SyncFailed` and keeps the log file it would have emptied, and
/// recovery still reaches every batch.
#[test]
fn chaos_snapshot_dir_sync_failure_is_reported() {
    let (start, q, batches, reference) = handoff_workload(310);
    let fp = Failpoints::new();
    let dir = temp_dir("chaos_dirsync_310");
    let dura = || DurabilityConfig {
        sync: SyncPolicy::EveryN(3),
        snapshot_every: None,
        failpoints: Some(fp.clone()),
        ..DurabilityConfig::new(&dir)
    };
    let mut d = DurableShardedEngine::create(start.clone(), &q, sharded_config(), dura())
        .expect("create durable engine");
    for (i, b) in batches.iter().enumerate() {
        let got: Delta = d.apply_batch(b).expect("logged apply").into();
        assert_eq!(got, reference[i], "diverges at {i}");
    }
    fp.schedule(fp.written(), IoFaultKind::DirSyncFail);
    let err = d
        .snapshot()
        .expect_err("an unconfirmed rename must surface");
    assert!(
        matches!(err, WalError::SyncFailed(_)),
        "expected SyncFailed, got {err:?}"
    );
    assert_eq!(fp.injected(), 1, "exactly the scheduled fault fired");
    let every: Vec<u64> = (0..batches.len() as u64).collect();
    assert_eq!(log_records(&dir, "wal.log"), every, "the old log is kept");
    drop(d);

    let (mut d, report) =
        DurableShardedEngine::recover(&q, sharded_config(), dura()).expect("recover");
    assert_eq!(report.recovered_epoch, batches.len() as u64);
    check_recovery("dir-sync", &report, &reference, batches.len());
    d.snapshot().expect("the next snapshot succeeds");
    drop(d);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// One fault schedule over a run with automatic snapshots every 2
/// batches — transient log faults and a torn automatic snapshot — then a
/// crash, a recovery under the same schedule and the rest of the stream,
/// run twice. The background writes never touch the byte clock, so both
/// runs fire the same faults at the same offsets, report the same
/// recovery and leave the same files.
#[test]
fn chaos_automatic_snapshot_schedule_replays_bit_exactly() {
    let (start, q, batches, reference) = handoff_workload(309);
    let run = |tag: &str| {
        let fp = Failpoints::new();
        let dir = temp_dir(&format!("chaos_replay_309_{tag}"));
        let dura = || DurabilityConfig {
            sync: SyncPolicy::EveryN(3),
            snapshot_every: Some(2),
            failpoints: Some(fp.clone()),
            ..DurabilityConfig::new(&dir)
        };
        let kill_at = 3;
        let mut d = DurableGammaEngine::create(start.clone(), &q, gamma_config(), dura())
            .expect("create durable engine");
        let base = fp.written();
        let first_two = record_len(&batches[0]) + record_len(&batches[1]);
        fp.schedule(base + 5, IoFaultKind::WriteTransient { times: 2 });
        fp.schedule(base + first_two + 40, IoFaultKind::ShortWrite { keep: 7 });
        fp.schedule(
            base + first_two + 100,
            IoFaultKind::SyncTransient { times: 3 },
        );
        for (i, b) in batches.iter().take(kill_at).enumerate() {
            let got: Delta = d.apply_batch(b).expect("logged apply").into();
            assert_eq!(got, reference[i], "{tag}: diverges pre-kill at {i}");
        }
        assert!(d.snapshot_failure().is_some(), "{tag}: the torn snapshot");
        drop(d);
        let (mut d, report) =
            DurableGammaEngine::recover(&q, gamma_config(), dura()).expect("recover");
        let replayed: Vec<Delta> = report.replayed.into_iter().map(Delta::from).collect();
        for (i, b) in batches.iter().enumerate().skip(kill_at) {
            let got: Delta = d.apply_batch(b).expect("logged apply").into();
            assert_eq!(got, reference[i], "{tag}: diverges post-recovery at {i}");
        }
        drop(d);
        let files: Vec<Vec<u8>> = ["wal.log", "wal.1.log", "snapshot.bin"]
            .iter()
            .map(|f| std::fs::read(dir.join(f)).expect("read a durable file"))
            .collect();
        std::fs::remove_dir_all(&dir).expect("cleanup");
        let report = (
            report.snapshot_epoch,
            report.recovered_epoch,
            report.clean,
            replayed,
        );
        (report, fp.injected(), fp.written(), files)
    };
    let first = run("a");
    assert!(first.1 >= 4, "the schedule fired {} faults", first.1);
    assert!(first == run("b"), "a second run of the schedule diverged");
}

/// Two snapshot failures in a row leave both log files holding records:
/// snapshot 2's tmp fsync fails, so the first file keeps batches 0–1 and
/// the log moves on; snapshot 4 finds no ready spare, so its batches stay
/// in the second file, and its directory sync fails after the rename.
/// Every record is then one the snapshot covers, in both files: recovery
/// replays nothing, empties a file to take the appends, and the stream
/// continues exactly.
#[test]
fn chaos_covered_records_in_both_logs_recover() {
    let (start, q, mut batches, _) = handoff_workload(312);
    // Four batches, then the last again: one batch after the crash.
    batches.truncate(4);
    batches.push(batches[3].clone());
    let mut engine = GammaEngine::new(start.clone(), &q, gamma_config());
    let reference: Vec<Delta> = batches
        .iter()
        .map(|b| engine.apply_batch(b).into())
        .collect();
    let fp = Failpoints::new();
    let dir = temp_dir("chaos_covered_312");
    let dura = || DurabilityConfig {
        sync: SyncPolicy::EveryRecord,
        snapshot_every: Some(2),
        failpoints: Some(fp.clone()),
        ..DurabilityConfig::new(&dir)
    };
    let mut d = DurableGammaEngine::create(start.clone(), &q, gamma_config(), dura())
        .expect("create durable engine");
    for (i, b) in batches.iter().take(4).enumerate() {
        if i == 1 {
            // Snapshot 2 stops at its tmp fsync, before any directory
            // sync, so the second fault waits for snapshot 4's.
            let at = fp.written() + record_len(b) + 1;
            fp.schedule(at, IoFaultKind::SyncFail);
            fp.schedule(at, IoFaultKind::DirSyncFail);
        }
        let got: Delta = d.apply_batch(b).expect("logged apply").into();
        assert_eq!(got, reference[i], "diverges at {i}");
    }
    assert!(matches!(
        d.snapshot_failure(),
        Some(WalError::SyncFailed(_))
    ));
    assert_eq!(fp.injected(), 2);
    drop(d);
    assert_eq!(log_records(&dir, "wal.log"), [0, 1]);
    assert_eq!(log_records(&dir, "wal.1.log"), [2, 3]);

    let (mut d, report) = DurableGammaEngine::recover(&q, gamma_config(), dura()).expect("recover");
    assert_eq!((report.snapshot_epoch, report.recovered_epoch), (4, 4));
    assert!(report.replayed.is_empty());
    let got: Delta = d.apply_batch(&batches[4]).expect("logged apply").into();
    assert_eq!(got, reference[4], "diverges after recovery");
    drop(d);
    let (_, report) = DurableGammaEngine::recover(&q, gamma_config(), dura()).expect("recover");
    assert_eq!(report.recovered_epoch, 5);
    check_recovery("covered", &report, &reference, 5);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
