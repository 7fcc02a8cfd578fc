//! Chaos-engineering properties of the sharded runtime's fail-stop
//! failover (see `gamma_core::fault`).
//!
//! * **Failover is exact.** A shard killed at any virtual-time
//!   coordinate — phase boundary or mid-phase — must leave the merged
//!   per-batch match-delta stream **bit-identical** to the uninterrupted
//!   single-device oracle, across partition strategies and shard counts.
//!   The failover protocol requeues only partial embeddings (pending
//!   units and in-flight migrants); the shared store plus the residency
//!   invariant guarantee no graph state dies with the shard.
//! * **Chaos replays bit-exactly.** Faults fire on pure virtual
//!   coordinates, so two runs with the same seeded plan agree on every
//!   delta, every sim-cycle counter and every piece of failover
//!   telemetry. A flaky chaos test is a real bug, never scheduling noise.
//! * **Zero faults cost zero.** An empty plan (and a `None` plan) leaves
//!   deltas *and* sim-cycles byte-identical to a fault-free engine — the
//!   fault machinery is pure bookkeeping until a fault actually fires.

use gamma_core::{
    FaultPlan, GammaConfig, GammaEngine, PartitionStrategy, QueryConfig, QueryRegistry,
    ShardStealing, ShardedConfig, ShardedEngine,
};
use gamma_datasets::{generate_queries, DatasetPreset, QueryClass};
use gamma_gpu::DeviceConfig;
use gamma_graph::{Update, VMatch};

fn gamma_cfg() -> GammaConfig {
    GammaConfig {
        device: DeviceConfig::single_sm(),
        ..GammaConfig::default()
    }
}

fn sharded_cfg(
    shards: usize,
    strategy: PartitionStrategy,
    faults: Option<FaultPlan>,
) -> ShardedConfig {
    ShardedConfig {
        base: gamma_cfg(),
        num_shards: shards,
        strategy,
        stealing: ShardStealing::Active,
        faults,
        query_id: 0,
    }
}

fn sorted(mut ms: Vec<VMatch>) -> Vec<VMatch> {
    ms.sort_unstable();
    ms
}

/// Churny 4-batch workload (delete, insert, delete, insert) over a
/// preset — each batch runs exactly one kernel phase, so the four
/// batches cover lifetime phases 0..4, the range seeded plans target.
fn workload(
    preset: DatasetPreset,
    seed: u64,
) -> (
    gamma_graph::DynamicGraph,
    gamma_graph::QueryGraph,
    Vec<Vec<Update>>,
) {
    let d = preset.build(0.04, seed);
    let queries = generate_queries(&d.graph, QueryClass::Dense, 4, 1, seed ^ 0xfeed);
    let q = queries.first().expect("query extractable").clone();
    let dels = gamma_datasets::sample_deletion_workload(&d.graph, 0.08, seed ^ 0x7);
    let ins: Vec<Update> = dels
        .iter()
        .map(|u| {
            let l = d.graph.edge_label(u.u, u.v).unwrap_or(0);
            Update::insert_labeled(u.u, u.v, l)
        })
        .collect();
    let batches = vec![dels.clone(), ins.clone(), dels, ins];
    (d.graph, q, batches)
}

/// Oracle delta stream: the uninterrupted single-device engine.
fn oracle(
    g0: &gamma_graph::DynamicGraph,
    q: &gamma_graph::QueryGraph,
    batches: &[Vec<Update>],
) -> Vec<(u64, u64, Vec<VMatch>, Vec<VMatch>)> {
    let mut single = GammaEngine::new(g0.clone(), q, gamma_cfg());
    batches
        .iter()
        .map(|b| {
            let r = single.apply_batch(b);
            (
                r.positive_count,
                r.negative_count,
                sorted(r.positive),
                sorted(r.negative),
            )
        })
        .collect()
}

/// The core acceptance matrix: fail-stop a shard at phase-boundary and
/// mid-phase coordinates, across hash/greedy × 2/4 shards, and demand
/// the delta stream stays bit-identical to the no-fault oracle.
#[test]
fn failover_preserves_delta_stream_matrix() {
    let (g0, q, batches) = workload(DatasetPreset::GH, 31);
    let want = oracle(&g0, &q, &batches);

    let plans: Vec<(&str, FaultPlan)> = vec![
        // Phase boundary: the shard dies before the phase's first
        // scheduling decision — all its anchor units requeue.
        ("boundary", FaultPlan::new().fail_stop(0, 0, 1)),
        // Mid-phase: the shard dies with the phase in flight — local
        // queue remnants and staged fabric migrants requeue.
        ("mid-phase", FaultPlan::new().fail_stop(1, 5, 0)),
        // Cascading deaths across phases.
        (
            "cascade",
            FaultPlan::new().fail_stop(0, 0, 1).fail_stop(2, 3, 0),
        ),
    ];

    let mut total_failovers = 0u64;
    let mut total_requeued = 0u64;
    for &shards in &[2usize, 4] {
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::Greedy] {
            for (name, plan) in &plans {
                let tag = format!("{strategy:?}/{shards}/{name}");
                let mut engine = ShardedEngine::new(
                    g0.clone(),
                    &q,
                    sharded_cfg(shards, strategy, Some(plan.clone())),
                );
                for (i, batch) in batches.iter().enumerate() {
                    let got = engine.apply_batch(batch);
                    assert_eq!(
                        got.positive_count, want[i].0,
                        "{tag}: positive_count diverges at batch {i}"
                    );
                    assert_eq!(
                        got.negative_count, want[i].1,
                        "{tag}: negative_count diverges at batch {i}"
                    );
                    assert_eq!(
                        sorted(got.positive),
                        want[i].2,
                        "{tag}: positive match set diverges at batch {i}"
                    );
                    assert_eq!(
                        sorted(got.negative),
                        want[i].3,
                        "{tag}: negative match set diverges at batch {i}"
                    );
                }
                let stats = engine.shard_stats();
                // Deaths that would orphan the last survivor are skipped,
                // so at S shards at most S-1 of the plan's faults land.
                let expect = plan.fail_stops().len().min(shards - 1) as u64;
                assert_eq!(
                    stats.failovers, expect,
                    "{tag}: every applicable fail-stop must fire"
                );
                assert_eq!(
                    engine.alive().iter().filter(|&&a| !a).count() as u64,
                    stats.failovers,
                    "{tag}: dead shards must stay quarantined"
                );
                total_failovers += stats.failovers;
                total_requeued += stats.requeued_units;
            }
        }
    }
    assert!(total_failovers > 0, "no failover ever fired — vacuous");
    assert!(
        total_requeued > 0,
        "no pending unit was ever requeued — the failover path is untested"
    );
}

/// A fail-stop discards every outcome computed ahead. Before its first
/// scheduling step a phase runs all its anchor units ahead — on the launch
/// pool's helpers too, since the default device has 16 SMs — with the
/// parts they split off, against the partition, alive mask and residency
/// of that moment. A committed unit queues its parts with their outcomes.
/// A fail-stop changes all three, so an outcome that outlived it would
/// ship migrants toward the dead shard or scan under the old residency;
/// each outcome carries the failover epoch it was computed under, and
/// debug builds assert it at the commit. Shard 1 dies before the first
/// step of the delete batch's phase, before the first step of the
/// re-insert's, and three steps into the delete batch's. The later
/// coordinates land while split parts are queued (three on shard 1, from
/// about step 12 to step 70 of either phase): shard 1 dies holding them,
/// twice, and shards 2 and 3 die while shard 1 holds them, so they rerun
/// from their kept copies on a survivor and on their own shard.
///
/// Each cell also kills a shard inside a later group's launch of a
/// sharded registry. A Dense pattern and the Tree pattern subscribed twice
/// make two groups, so the Tree group's launch of the engine's phase `p`
/// is the registry's phase `2p + 1`, after the Dense group's launch of the
/// same batch committed under the old partition. Every subscriber's
/// deltas must equal those of a fault-free twin.
#[test]
fn fail_stop_discards_outcomes_computed_ahead() {
    let d = DatasetPreset::GH.build(0.06, 31);
    let queries = generate_queries(&d.graph, QueryClass::Tree, 5, 1, 77);
    let q = queries.first().expect("query extractable");
    let dense = generate_queries(&d.graph, QueryClass::Dense, 4, 1, 31 ^ 0xfeed);
    let dense = dense.first().expect("query extractable");
    let dels = gamma_datasets::sample_deletion_workload(&d.graph, 0.08, 7);
    let ins: Vec<Update> = dels
        .iter()
        .map(|u| {
            let l = d.graph.edge_label(u.u, u.v).unwrap_or(0);
            Update::insert_labeled(u.u, u.v, l)
        })
        .collect();
    let batches = [dels, ins];
    let mut single = GammaEngine::new(d.graph.clone(), q, GammaConfig::default());
    let want: Vec<_> = batches
        .iter()
        .map(|b| {
            let r = single.apply_batch(b);
            (
                r.positive_count,
                r.negative_count,
                sorted(r.positive),
                sorted(r.negative),
            )
        })
        .collect();
    assert!(
        want[0].1 > 0 && want[1].0 > 0,
        "both phases must match something"
    );
    let cfg = |faults: Option<FaultPlan>| ShardedConfig {
        base: GammaConfig::default(),
        num_shards: 4,
        strategy: PartitionStrategy::Greedy,
        stealing: ShardStealing::Active,
        faults,
        query_id: 0,
    };
    // Per batch, per subscriber: counts and sorted matches; then the
    // registry's failovers.
    let registry = |faults: Option<FaultPlan>| {
        let mut reg = QueryRegistry::sharded(d.graph.clone(), &cfg(faults));
        for sub in [dense, q, q] {
            reg.register(sub, QueryConfig::default());
        }
        assert_eq!(reg.group_count(), 2);
        let deltas: Vec<Vec<_>> = batches
            .iter()
            .map(|b| {
                let r = reg.apply_batch(b);
                r.deltas
                    .into_iter()
                    .map(|d| {
                        let (p, n) = (sorted(d.positive), sorted(d.negative));
                        (d.positive_count, d.negative_count, p, n)
                    })
                    .collect()
            })
            .collect();
        let stats = reg.shard_stats().expect("a sharded registry");
        (deltas, stats.phases, stats.failovers)
    };
    let (twin, phases, _) = registry(None);
    assert_eq!(phases, 4, "two groups, one phase each per batch");
    let cells = [
        (0, 0, 1),
        (1, 0, 1),
        (0, 3, 1),
        (0, 12, 1),
        (1, 40, 1),
        (0, 30, 2),
        (1, 20, 3),
    ];
    for (phase, step, dead) in cells {
        let plan = |phase| Some(FaultPlan::new().fail_stop(phase, step, dead));
        let mut engine = ShardedEngine::new(d.graph.clone(), q, cfg(plan(phase)));
        for (i, batch) in batches.iter().enumerate() {
            let got = engine.apply_batch(batch);
            let at = format!("fail-stop of shard {dead} at ({phase}, {step}), batch {i}");
            assert_eq!(got.positive_count, want[i].0, "positive count: {at}");
            assert_eq!(got.negative_count, want[i].1, "negative count: {at}");
            assert_eq!(sorted(got.positive), want[i].2, "positive matches: {at}");
            assert_eq!(sorted(got.negative), want[i].3, "negative matches: {at}");
        }
        let stats = engine.shard_stats();
        assert_eq!(
            stats.failovers, 1,
            "the fail-stop of shard {dead} at ({phase}, {step}) must fire"
        );
        assert!(
            stats.unit_splits > 0,
            "fail-stop of shard {dead} at ({phase}, {step}): no unit split — vacuous"
        );
        let (got, _, failovers) = registry(plan(2 * phase + 1));
        let at = format!(
            "registry: fail-stop of shard {dead} at ({}, {step})",
            2 * phase + 1
        );
        assert_eq!(failovers, 1, "{at} must fire");
        assert_eq!(got, twin, "{at}: subscriber deltas diverge");
    }
}

/// Killing every shard but one must still finish every phase with the
/// oracle's deltas: the last survivor adopts the whole graph through the
/// cyclic live-owner fallback and the repair table.
#[test]
fn lone_survivor_completes_the_stream() {
    let (g0, q, batches) = workload(DatasetPreset::AZ, 32);
    let want = oracle(&g0, &q, &batches);
    let plan = FaultPlan::new()
        .fail_stop(0, 0, 3)
        .fail_stop(0, 2, 1)
        .fail_stop(1, 1, 2);
    let mut engine = ShardedEngine::new(
        g0.clone(),
        &q,
        sharded_cfg(4, PartitionStrategy::Hash, Some(plan)),
    );
    for (i, batch) in batches.iter().enumerate() {
        let got = engine.apply_batch(batch);
        assert_eq!(got.positive_count, want[i].0, "positive diverges at {i}");
        assert_eq!(got.negative_count, want[i].1, "negative diverges at {i}");
        assert_eq!(sorted(got.positive), want[i].2, "matches diverge at {i}");
    }
    let stats = engine.shard_stats();
    assert_eq!(stats.failovers, 3, "all three deaths must fire");
    assert_eq!(
        engine.alive(),
        &[true, false, false, false],
        "exactly shard 0 survives"
    );
    // A fourth death would orphan the last survivor; the plan must skip
    // it rather than wedge the executor.
    let suicidal = FaultPlan::new()
        .fail_stop(0, 0, 1)
        .fail_stop(0, 0, 0)
        .fail_stop(0, 1, 0);
    let mut engine = ShardedEngine::new(
        g0.clone(),
        &q,
        sharded_cfg(2, PartitionStrategy::Hash, Some(suicidal)),
    );
    for (i, batch) in batches.iter().enumerate() {
        let got = engine.apply_batch(batch);
        assert_eq!(sorted(got.positive), want[i].2, "matches diverge at {i}");
    }
    let stats = engine.shard_stats();
    assert_eq!(
        stats.failovers, 1,
        "fail-stops of the last survivor must be skipped, not applied"
    );
    assert_eq!(engine.alive(), &[true, false]);
}

/// Identical seeded fault plans replay bit-exactly: deltas, sim-cycle
/// counters and failover telemetry all agree between two fresh runs.
#[test]
fn chaos_runs_replay_bit_exactly() {
    let (g0, q, batches) = workload(DatasetPreset::GH, 33);
    for seed in [7u64, 19, 40] {
        let plan = FaultPlan::seeded(seed, 4, 3);
        assert_eq!(plan, FaultPlan::seeded(seed, 4, 3), "seeded plan unstable");
        let cfg = || sharded_cfg(4, PartitionStrategy::Greedy, Some(plan.clone()));
        let mut a = ShardedEngine::new(g0.clone(), &q, cfg());
        let mut b = ShardedEngine::new(g0.clone(), &q, cfg());
        for (i, batch) in batches.iter().enumerate() {
            let ra = a.apply_batch(batch);
            let rb = b.apply_batch(batch);
            assert_eq!(
                sorted(ra.positive),
                sorted(rb.positive),
                "seed {seed}: positive deltas diverge at batch {i}"
            );
            assert_eq!(
                sorted(ra.negative),
                sorted(rb.negative),
                "seed {seed}: negative deltas diverge at batch {i}"
            );
            assert_eq!(
                ra.stats.kernel.device_cycles, rb.stats.kernel.device_cycles,
                "seed {seed}: device_cycles diverge at batch {i}"
            );
            assert_eq!(
                ra.stats.kernel.busy_cycles, rb.stats.kernel.busy_cycles,
                "seed {seed}: busy_cycles diverge at batch {i}"
            );
        }
        let sa = a.shard_stats();
        let sb = b.shard_stats();
        assert_eq!(sa.faults_injected, sb.faults_injected, "seed {seed}");
        assert_eq!(sa.failovers, sb.failovers, "seed {seed}");
        assert_eq!(sa.requeued_units, sb.requeued_units, "seed {seed}");
        assert_eq!(sa.migrations, sb.migrations, "seed {seed}");
        assert_eq!(sa.shard_steals, sb.shard_steals, "seed {seed}");
        assert_eq!(a.alive(), b.alive(), "seed {seed}: alive masks diverge");
    }
}

/// A zero-fault plan is *free*: deltas and every sim-cycle counter are
/// byte-identical between `faults: None`, `Some(empty)` — and the chaos
/// machinery records nothing.
#[test]
fn empty_plan_is_byte_identical_to_none() {
    let (g0, q, batches) = workload(DatasetPreset::GH, 34);
    let mut none = ShardedEngine::new(
        g0.clone(),
        &q,
        sharded_cfg(4, PartitionStrategy::Greedy, None),
    );
    let mut empty = ShardedEngine::new(
        g0.clone(),
        &q,
        sharded_cfg(4, PartitionStrategy::Greedy, Some(FaultPlan::new())),
    );
    for (i, batch) in batches.iter().enumerate() {
        let rn = none.apply_batch(batch);
        let re = empty.apply_batch(batch);
        assert_eq!(
            sorted(rn.positive),
            sorted(re.positive),
            "positive deltas diverge at batch {i}"
        );
        assert_eq!(
            rn.stats.kernel.device_cycles, re.stats.kernel.device_cycles,
            "device_cycles diverge at batch {i}"
        );
        assert_eq!(
            rn.stats.kernel.total_block_cycles, re.stats.kernel.total_block_cycles,
            "total_block_cycles diverge at batch {i}"
        );
        assert_eq!(
            rn.stats.update_cycles, re.stats.update_cycles,
            "update_cycles diverge at batch {i}"
        );
    }
    for engine in [&none, &empty] {
        let stats = engine.shard_stats();
        assert_eq!(stats.faults_injected, 0);
        assert_eq!(stats.failovers, 0);
        assert_eq!(stats.requeued_units, 0);
        assert!(engine.alive().iter().all(|&a| a));
    }
}

/// A fault scheduled past the end of a phase (or aimed at a shard id out
/// of range) never fires and never perturbs the run.
#[test]
fn unreachable_faults_are_inert() {
    let (g0, q, batches) = workload(DatasetPreset::GH, 35);
    let want = oracle(&g0, &q, &batches);
    let plan = FaultPlan::new()
        .fail_stop(900, 0, 1) // phase never reached
        .fail_stop(0, 1_000_000, 0) // step never reached
        .fail_stop(0, 0, 99); // shard out of range
    let mut engine = ShardedEngine::new(
        g0.clone(),
        &q,
        sharded_cfg(2, PartitionStrategy::Hash, Some(plan)),
    );
    for (i, batch) in batches.iter().enumerate() {
        let got = engine.apply_batch(batch);
        assert_eq!(sorted(got.positive), want[i].2, "matches diverge at {i}");
    }
    let stats = engine.shard_stats();
    assert_eq!(stats.faults_injected, 0, "no reachable fault was scheduled");
    assert!(engine.alive().iter().all(|&a| a));
}
