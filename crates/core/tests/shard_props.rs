//! Partitioner and sharded-engine properties.
//!
//! * Hash, range and greedy partitioning must be a **true partition**:
//!   every vertex gets exactly one owner in range, deterministically.
//! * Shard **edge loads** (sum of owned-vertex degrees) must stay within a
//!   balance bound on Zipf-skewed graphs — hash placement is uniform over
//!   vertices, so the bound is the mean plus the heaviest single vertex
//!   (a hub lands *somewhere*) with a constant-factor slack. The greedy
//!   partitioner enforces a hard per-shard vertex capacity instead.
//! * The greedy label-frequency partitioner must actually earn its keep:
//!   a strictly lower edge-cut fraction than hash placement on the
//!   labeled dense presets it is tuned for.
//! * Failover repair moves exactly the dead shard's vertices, onto
//!   survivors, and its placement is pinned move by move.
//! * The merged per-shard match deltas of [`ShardedEngine`] must equal
//!   the single-device [`GammaEngine`]'s, batch after batch, across shard
//!   counts, strategies and stealing modes (the distributed DFS enumerates
//!   the identical match set) — and the async-drain executor's sim-cycle
//!   accounting must be bit-stable run over run (the replay gate holds
//!   SHARD cells to exact equality).

use gamma_core::{
    BatchResult, GammaConfig, GammaEngine, Partition, PartitionStrategy, ShardStealing,
    ShardedConfig, ShardedEngine, StealingMode,
};
use gamma_datasets::{generate_graph, generate_queries, DatasetPreset, QueryClass, SynthSpec};
use gamma_gpu::{DeviceConfig, KernelStats};
use gamma_graph::{DynamicGraph, Update, VMatch, VertexId};
use proptest::prelude::*;

fn zipf_graph(n: usize, skew: f64, seed: u64) -> DynamicGraph {
    let spec = SynthSpec {
        num_vertices: n,
        avg_degree: 6.0,
        degree_skew: skew,
        ..SynthSpec::default()
    };
    generate_graph(&spec, seed)
}

fn gamma_cfg() -> GammaConfig {
    GammaConfig {
        device: DeviceConfig::single_sm(),
        ..GammaConfig::default()
    }
}

fn sharded_cfg(
    shards: usize,
    strategy: PartitionStrategy,
    stealing: ShardStealing,
) -> ShardedConfig {
    ShardedConfig {
        base: gamma_cfg(),
        num_shards: shards,
        strategy,
        stealing,
        faults: None,
        query_id: 0,
    }
}

fn sorted(mut ms: Vec<VMatch>) -> Vec<VMatch> {
    ms.sort_unstable();
    ms
}

proptest! {
    #[test]
    fn partition_is_disjoint_and_complete(
        n in 1usize..4000,
        shards in 1usize..9,
        hash in prop::bool::ANY,
    ) {
        let strategy = if hash { PartitionStrategy::Hash } else { PartitionStrategy::Range };
        let p = Partition::new(strategy, shards, n);
        let owners = p.assignments(n);
        // Complete: every vertex has an owner; disjoint: `owner` is a
        // function, so one owner each — and it must be stable.
        prop_assert_eq!(owners.len(), n);
        for (v, &s) in owners.iter().enumerate() {
            prop_assert!(s < shards, "owner out of range");
            prop_assert_eq!(s, p.owner(v as VertexId), "owner not deterministic");
        }
        // Every shard id is reachable (no structurally dead shard) once
        // there are at least as many vertices as shards.
        if n >= shards * 8 && strategy == PartitionStrategy::Range {
            let mut seen = vec![false; shards];
            for &s in &owners { seen[s] = true; }
            prop_assert!(seen.iter().all(|&b| b), "range left a shard empty");
        }
    }

    #[test]
    fn range_partition_vertex_loads_are_balanced(
        n in 64usize..4000,
        shards in 1usize..9,
    ) {
        let p = Partition::new(PartitionStrategy::Range, shards, n);
        let mut counts = vec![0usize; shards];
        for s in p.assignments(n) { counts[s] += 1; }
        let block = n.div_ceil(shards);
        for &c in &counts {
            prop_assert!(c <= block, "range shard overfull: {c} > {block}");
        }
    }

    #[test]
    fn hash_partition_balances_zipf_edge_load(
        seed in 0u64..32,
        shards in 2usize..5,
        skew_pct in 60u32..120,
    ) {
        let skew = skew_pct as f64 / 100.0;
        let g = zipf_graph(1500, skew, seed);
        let p = Partition::new(PartitionStrategy::Hash, shards, g.num_vertices());
        let mut load = vec![0u64; shards];
        for v in 0..g.num_vertices() as VertexId {
            load[p.owner(v)] += g.degree(v) as u64;
        }
        let total: u64 = load.iter().sum();
        let avg = total / shards as u64;
        let hub = g.max_degree() as u64;
        let bound = 2 * avg + hub;
        for (s, &l) in load.iter().enumerate() {
            prop_assert!(
                l <= bound,
                "shard {s} edge load {l} exceeds balance bound {bound} \
                 (avg {avg}, hub {hub}, skew {skew})"
            );
        }
    }
}

/// Replays `batches` through a single-device engine and sharded engines
/// (1/2/4 shards × both strategies), asserting identical per-batch deltas.
fn assert_shard_parity(g0: &DynamicGraph, q: &gamma_graph::QueryGraph, batches: &[Vec<Update>]) {
    let mut single = GammaEngine::new(g0.clone(), q, gamma_cfg());
    let mut sharded: Vec<(String, ShardedEngine)> = Vec::new();
    for &shards in &[1usize, 2, 4] {
        sharded.push((
            format!("hash/{shards}"),
            ShardedEngine::new(
                g0.clone(),
                q,
                sharded_cfg(shards, PartitionStrategy::Hash, ShardStealing::Active),
            ),
        ));
    }
    sharded.push((
        "range/2".to_string(),
        ShardedEngine::new(
            g0.clone(),
            q,
            sharded_cfg(2, PartitionStrategy::Range, ShardStealing::Off),
        ),
    ));
    // Greedy cells cover both stealing modes: the async drain must be
    // order-insensitive no matter who consumes a published batch.
    sharded.push((
        "greedy/2/off".to_string(),
        ShardedEngine::new(
            g0.clone(),
            q,
            sharded_cfg(2, PartitionStrategy::Greedy, ShardStealing::Off),
        ),
    ));
    sharded.push((
        "greedy/4/active".to_string(),
        ShardedEngine::new(
            g0.clone(),
            q,
            sharded_cfg(4, PartitionStrategy::Greedy, ShardStealing::Active),
        ),
    ));
    let mut total = 0u64;
    for (i, raw) in batches.iter().enumerate() {
        let want = single.apply_batch(raw);
        let want_pos = sorted(want.positive);
        let want_neg = sorted(want.negative);
        total += want.positive_count + want.negative_count;
        for (name, engine) in &mut sharded {
            let got = engine.apply_batch(raw);
            assert_eq!(
                got.positive_count, want.positive_count,
                "{name}: positive_count diverges at batch {i}"
            );
            assert_eq!(
                got.negative_count, want.negative_count,
                "{name}: negative_count diverges at batch {i}"
            );
            assert_eq!(
                sorted(got.positive),
                want_pos,
                "{name}: positive match set diverges at batch {i}"
            );
            assert_eq!(
                sorted(got.negative),
                want_neg,
                "{name}: negative match set diverges at batch {i}"
            );
            assert_eq!(
                engine.graph().num_edges(),
                single.graph().num_edges(),
                "{name}: host mirror drifted at batch {i}"
            );
        }
    }
    assert!(total > 0, "parity workload produced no deltas — vacuous");
}

/// A churny workload over one preset: delete a slice of live edges, then
/// re-insert them, twice — exercises both kernel phases, residency growth
/// and the negative phase's pre-update stores.
fn preset_workload(preset: DatasetPreset, class: QueryClass, seed: u64) {
    let d = preset.build(0.035, seed);
    let queries = generate_queries(&d.graph, class, 4, 1, seed ^ 0xfeed);
    let q = queries.first().expect("query extractable");
    let dels = gamma_datasets::sample_deletion_workload(&d.graph, 0.08, seed ^ 0x7);
    let ins: Vec<Update> = dels
        .iter()
        .map(|u| {
            let l = d.graph.edge_label(u.u, u.v).unwrap_or(0);
            Update::insert_labeled(u.u, u.v, l)
        })
        .collect();
    let batches = vec![dels.clone(), ins.clone(), dels, ins];
    assert_shard_parity(&d.graph, q, &batches);
}

#[test]
fn sharded_matches_single_device_gh_dense() {
    preset_workload(DatasetPreset::GH, QueryClass::Dense, 11);
}

#[test]
fn sharded_matches_single_device_gh_tree() {
    preset_workload(DatasetPreset::GH, QueryClass::Tree, 12);
}

#[test]
fn sharded_matches_single_device_az_sparse() {
    preset_workload(DatasetPreset::AZ, QueryClass::Sparse, 13);
}

#[test]
fn sharded_matches_single_device_nf_edge_labeled() {
    preset_workload(DatasetPreset::NF, QueryClass::Tree, 14);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Random small graphs + a triangle-with-tail query: merged per-shard
    /// deltas equal single-device deltas under random insert/delete churn.
    fn sharded_parity_random_graphs(
        seed in 0u64..1_000_000,
        edges in prop::collection::vec((0u32..40, 0u32..40), 20..80),
        churn in prop::collection::vec((0u32..40, 0u32..40, prop::bool::ANY), 8..24),
    ) {
        let mut g = DynamicGraph::new();
        for i in 0..40u32 {
            g.add_vertex((i % 3) as u16);
        }
        for &(u, v) in &edges {
            if u != v {
                g.insert_edge(u, v, 0);
            }
        }
        let mut b = gamma_graph::QueryGraph::builder();
        let (u0, u1, u2, u3) = (b.vertex(0), b.vertex(1), b.vertex(2), b.vertex(1));
        b.edge(u0, u1).edge(u1, u2).edge(u0, u2).edge(u2, u3);
        let q = b.build();
        let batch: Vec<Update> = churn
            .iter()
            .filter(|&&(u, v, _)| u != v)
            .map(|&(u, v, ins)| if ins { Update::insert(u, v) } else { Update::delete(u, v) })
            .collect();
        let _ = seed;
        assert_shard_parity(&g, &q, &[batch]);
    }
}

/// The distributed machinery must actually fire: a multi-shard run over a
/// cross-partition workload performs embedding migrations, and the
/// active inter-device tier steals some of them.
#[test]
fn migrations_occur_across_shards() {
    let d = DatasetPreset::GH.build(0.05, 21);
    let queries = generate_queries(&d.graph, QueryClass::Tree, 5, 1, 77);
    let q = queries.first().expect("query");
    let dels = gamma_datasets::sample_deletion_workload(&d.graph, 0.1, 3);
    let ins: Vec<Update> = dels
        .iter()
        .map(|u| {
            let l = d.graph.edge_label(u.u, u.v).unwrap_or(0);
            Update::insert_labeled(u.u, u.v, l)
        })
        .collect();
    let mut engine = ShardedEngine::new(
        d.graph.clone(),
        q,
        sharded_cfg(4, PartitionStrategy::Hash, ShardStealing::Active),
    );
    engine.apply_batch(&dels);
    engine.apply_batch(&ins);
    let stats = engine.shard_stats();
    assert!(
        stats.migrations > 0,
        "no embedding ever crossed a shard boundary — sharding is vacuous"
    );
    assert!(
        stats.migrant_batches > 0,
        "migrations happened but nothing flowed through the comm fabric"
    );
    assert!(
        stats.drains > 0 || stats.shard_steals > 0,
        "published batches must be consumed by a drain or a steal"
    );
    assert!(
        stats.inbox_high_water > 0,
        "published batches must register inbox depth"
    );
    let pair_total: u64 = stats.pair_migrants.iter().sum();
    assert_eq!(
        pair_total, stats.migrations,
        "per-pair migrant telemetry must cover every migration"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The greedy partitioner is a true partition under a hard capacity:
    /// every vertex owned exactly once, no shard above the (slightly
    /// slack) [`gamma_core::shard::greedy_capacity`] bound, and ownership
    /// is deterministic (rebuilding yields the same table).
    #[test]
    fn greedy_partition_respects_capacity(
        seed in 0u64..16,
        shards in 2usize..6,
        skew_pct in 40u32..110,
    ) {
        let g = zipf_graph(900, skew_pct as f64 / 100.0, seed);
        let n = g.num_vertices();
        let p = Partition::build(PartitionStrategy::Greedy, shards, &g);
        let owners = p.assignments(n);
        prop_assert_eq!(owners.len(), n);
        let mut counts = vec![0usize; shards];
        for (v, &s) in owners.iter().enumerate() {
            prop_assert!(s < shards, "owner out of range");
            prop_assert_eq!(s, p.owner(v as VertexId), "owner not deterministic");
            counts[s] += 1;
        }
        let cap = gamma_core::shard::greedy_capacity(n, shards);
        for (s, &c) in counts.iter().enumerate() {
            prop_assert!(c <= cap, "greedy shard {s} overfull: {c} > {cap}");
        }
        let p2 = Partition::build(PartitionStrategy::Greedy, shards, &g);
        prop_assert_eq!(p2.assignments(n), owners, "rebuild diverged");
    }
}

/// The greedy label-frequency partitioner must strictly beat hash
/// placement on edge-cut fraction for the labeled dense presets the
/// perf suite gates on — otherwise it is dead weight.
#[test]
fn greedy_cut_beats_hash_on_labeled_presets() {
    for preset in [DatasetPreset::GH, DatasetPreset::AZ] {
        let d = preset.build(0.35, 42);
        for shards in [2usize, 4] {
            let hash = Partition::new(PartitionStrategy::Hash, shards, d.graph.num_vertices());
            let greedy = Partition::build(PartitionStrategy::Greedy, shards, &d.graph);
            let hc = hash.cut_fraction(&d.graph);
            let gc = greedy.cut_fraction(&d.graph);
            assert!(
                gc < hc,
                "{preset:?}/{shards} shards: greedy cut {gc:.3} not below hash cut {hc:.3}"
            );
        }
    }
}

/// FNV-1a over a sequence of words: a short, stable digest for pinning
/// an owner table or a move list in an assertion.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Failover repair is pinned, not just parity-checked: deltas do not
/// depend on the partition, so `fault_props` cannot see a change in
/// where orphans land. Two successive fail-stops on a fixed greedy
/// 4-shard partition of a small GH graph must return exactly these
/// moves (orphans only, in ascending vertex order, onto survivors) and
/// leave exactly this owner table.
#[test]
fn failover_repair_placement_is_pinned() {
    let g = DatasetPreset::GH.build(0.05, 33).graph;
    let n = g.num_vertices();
    let mut p = Partition::build(PartitionStrategy::Greedy, 4, &g);
    let mut alive = vec![true; 4];
    let mut digests = Vec::new();
    for dead in [1usize, 3] {
        let before = p.assignments(n);
        alive[dead] = false;
        let moves = p.repair_failover(dead, &g, &alive);
        let orphans: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| before[v as usize] == dead)
            .collect();
        assert_eq!(
            moves.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            orphans,
            "shard {dead}: repair must move exactly its orphans, in order"
        );
        assert!(
            moves.iter().all(|&(_, s)| alive[s]),
            "moved onto a dead shard"
        );
        let after = p.assignments(n);
        for v in 0..n {
            if before[v] != dead {
                assert_eq!(after[v], before[v], "survivor-owned vertex {v} moved");
            }
        }
        digests.push((
            moves.len(),
            moves[..4].to_vec(),
            fnv1a(moves.iter().flat_map(|&(v, s)| [v as u64, s as u64])),
        ));
    }
    let owners = p.assignments(n);
    let mut loads = [0usize; 4];
    for &s in &owners {
        loads[s] += 1;
    }
    let table = fnv1a(owners.iter().map(|&s| s as u64));
    assert_eq!(
        (n, digests, loads, table),
        (
            90,
            vec![
                (
                    26,
                    vec![(1, 2), (5, 3), (8, 3), (10, 2)],
                    14_697_812_486_559_799_282
                ),
                (
                    31,
                    vec![(0, 0), (2, 0), (5, 0), (8, 0)],
                    4_512_908_424_047_698_082
                ),
            ],
            [47, 0, 43, 0],
            10_248_567_987_147_428_327,
        ),
        "failover placement changed"
    );
}

/// The async-drain executor's virtual-time accounting must be bit-stable:
/// two fresh engines replaying the same workload report identical
/// sim-cycle numbers batch by batch (this is what licenses the replay
/// gate's exact-equality tolerance on SHARD cells).
#[test]
fn sharded_sim_cycles_are_deterministic() {
    let d = DatasetPreset::GH.build(0.05, 33);
    let queries = generate_queries(&d.graph, QueryClass::Dense, 5, 1, 44);
    let q = queries.first().expect("query");
    let dels = gamma_datasets::sample_deletion_workload(&d.graph, 0.1, 6);
    let ins: Vec<Update> = dels
        .iter()
        .map(|u| {
            let l = d.graph.edge_label(u.u, u.v).unwrap_or(0);
            Update::insert_labeled(u.u, u.v, l)
        })
        .collect();
    let cfg = || sharded_cfg(4, PartitionStrategy::Greedy, ShardStealing::Active);
    let mut a = ShardedEngine::new(d.graph.clone(), q, cfg());
    let mut b = ShardedEngine::new(d.graph.clone(), q, cfg());
    for batch in [&dels, &ins, &dels, &ins] {
        let ra = a.apply_batch(batch);
        let rb = b.apply_batch(batch);
        assert_eq!(
            ra.stats.kernel.device_cycles, rb.stats.kernel.device_cycles,
            "device_cycles diverged between identical runs"
        );
        assert_eq!(
            ra.stats.kernel.total_block_cycles, rb.stats.kernel.total_block_cycles,
            "total_block_cycles diverged between identical runs"
        );
        assert_eq!(
            ra.stats.kernel.busy_cycles, rb.stats.kernel.busy_cycles,
            "busy_cycles diverged between identical runs"
        );
        assert_eq!(
            ra.stats.update_cycles, rb.stats.update_cycles,
            "update_cycles diverged between identical runs"
        );
    }
    let sa = a.shard_stats();
    let sb = b.shard_stats();
    assert_eq!(sa.migrations, sb.migrations, "migration count diverged");
    assert_eq!(
        sa.migrant_batches, sb.migrant_batches,
        "batch count diverged"
    );
    assert_eq!(sa.shard_steals, sb.shard_steals, "steal count diverged");
}

/// What a batch result shows of the simulation: the counts, the sorted
/// deltas, the update cycles and every `KernelStats` field but host wall
/// time and the buffer-reuse counters, which follow the thread whose
/// scratch a unit drew on.
type Simulated = (u64, u64, Vec<VMatch>, Vec<VMatch>, u64, String);

fn simulated(r: BatchResult) -> Simulated {
    let kernel = KernelStats {
        wall_seconds: 0.0,
        buf_reuse: 0,
        buf_alloc: 0,
        ..r.stats.kernel
    };
    (
        r.positive_count,
        r.negative_count,
        sorted(r.positive),
        sorted(r.negative),
        r.stats.update_cycles,
        format!("{kernel:?}"),
    )
}

/// Engines on many threads share one launch pool: four threads, started
/// together, each drive a 4-shard engine and a single-device engine over
/// one churn stream, so their shard phases and device launches all queue
/// on the same helpers (16 SMs, so every phase asks for them). Every
/// batch must simulate exactly as in a sequential run.
#[test]
fn engines_on_many_threads_share_one_pool() {
    let d = DatasetPreset::GH.build(0.05, 33);
    let queries = generate_queries(&d.graph, QueryClass::Dense, 5, 1, 44);
    let q = queries.first().expect("query");
    let dels = gamma_datasets::sample_deletion_workload(&d.graph, 0.1, 6);
    let ins: Vec<Update> = dels
        .iter()
        .map(|u| {
            let l = d.graph.edge_label(u.u, u.v).unwrap_or(0);
            Update::insert_labeled(u.u, u.v, l)
        })
        .collect();
    let batches = [&dels, &ins, &dels, &ins];
    let sharded = ShardedConfig {
        base: GammaConfig::default(),
        num_shards: 4,
        strategy: PartitionStrategy::Greedy,
        stealing: ShardStealing::Active,
        faults: None,
        query_id: 0,
    };
    // Per batch: the sharded engine's result, then the single device's.
    let replay = || -> Vec<Simulated> {
        let mut shards = ShardedEngine::new(d.graph.clone(), q, sharded.clone());
        let mut device = GammaEngine::new(d.graph.clone(), q, GammaConfig::default());
        batches
            .iter()
            .flat_map(|b| {
                [
                    simulated(shards.apply_batch(b)),
                    simulated(device.apply_batch(b)),
                ]
            })
            .collect()
    };
    let want = replay();
    assert!(
        want.iter().any(|w| w.0 + w.1 > 0),
        "the stream must match something"
    );
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (replay, start, want) = (&replay, &start, &want);
            scope.spawn(move || {
                start.wait();
                for (i, (got, want)) in replay().iter().zip(want).enumerate() {
                    let engine = if i % 2 == 0 { "sharded" } else { "device" };
                    assert_eq!(got, want, "thread {t}: {engine} batch {} diverges", i / 2);
                }
            });
        }
    });
}

/// One shard does the single device's kernel work: both run the one DFS
/// kernel with the one scan shape and the one plan. With device stealing
/// and shard stealing off, every batch of a delete / re-insert churn
/// stream (GH, AZ and NF × Dense, Sparse and Tree, collect on and off,
/// coalesced search off, or on with the device capped at the whole-query
/// classes shards plan) has equal counts, equal sorted deltas, and equal
/// global transactions and shared accesses. The shard's busy cycles are
/// at most the device's: the block scheduler charges a step that charged
/// nothing one cycle. A vertex add keeps the deltas equal too.
#[test]
fn one_shard_is_the_single_device_engine() {
    let d = DatasetPreset::AZ.build(0.03, 5);
    let queries = generate_queries(&d.graph, QueryClass::Dense, 4, 1, 9);
    let q = queries.first().expect("query");
    let mut single = GammaEngine::new(d.graph.clone(), q, gamma_cfg());
    let mut sharded = ShardedEngine::new(
        d.graph.clone(),
        q,
        sharded_cfg(1, PartitionStrategy::Hash, ShardStealing::Off),
    );
    let v1 = single.add_vertex(2);
    let v2 = sharded.add_vertex(2);
    assert_eq!(v1, v2);
    let hub = 0u32;
    let batch = vec![Update::insert(v1, hub), Update::insert(v1, hub + 1)];
    let a = single.apply_batch(&batch);
    let b = sharded.apply_batch(&batch);
    assert_eq!(a.positive_count, b.positive_count);
    assert_eq!(sorted(a.positive), sorted(b.positive));

    let mut matched = 0u64;
    for preset in [DatasetPreset::GH, DatasetPreset::AZ, DatasetPreset::NF] {
        let d = preset.build(0.05, 33);
        let dels = gamma_datasets::sample_deletion_workload(&d.graph, 0.1, 6);
        let ins: Vec<Update> = dels
            .iter()
            .map(|u| {
                let l = d.graph.edge_label(u.u, u.v).unwrap_or(0);
                Update::insert_labeled(u.u, u.v, l)
            })
            .collect();
        for class in [QueryClass::Dense, QueryClass::Sparse, QueryClass::Tree] {
            let queries = generate_queries(&d.graph, class, 5, 1, 44);
            let q = queries.first().expect("query");
            for (collect, coalesced) in [(true, false), (false, false), (true, true), (false, true)]
            {
                // Shards plan coalesced classes capped at k = 0 whatever
                // `max_degenerate_k` says, so the device runs that plan
                // while the shard keeps the default k.
                let base = GammaConfig {
                    device: DeviceConfig {
                        stealing: StealingMode::Off,
                        ..DeviceConfig::single_sm()
                    },
                    coalesced_search: coalesced,
                    collect_matches: collect,
                    ..GammaConfig::default()
                };
                let mut device = GammaEngine::new(
                    d.graph.clone(),
                    q,
                    GammaConfig {
                        max_degenerate_k: 0,
                        ..base.clone()
                    },
                );
                let mut shard = ShardedEngine::new(
                    d.graph.clone(),
                    q,
                    ShardedConfig {
                        base,
                        ..sharded_cfg(1, PartitionStrategy::Hash, ShardStealing::Off)
                    },
                );
                for (i, batch) in [&dels, &ins, &dels, &ins].into_iter().enumerate() {
                    let cell = format!(
                        "{} {} collect={collect} coalesced={coalesced} batch {i}",
                        preset.name(),
                        class.name()
                    );
                    let a = device.apply_batch(batch);
                    let b = shard.apply_batch(batch);
                    assert_eq!(a.positive_count, b.positive_count, "{cell}");
                    assert_eq!(a.negative_count, b.negative_count, "{cell}");
                    assert_eq!(sorted(a.positive), sorted(b.positive), "{cell}");
                    assert_eq!(sorted(a.negative), sorted(b.negative), "{cell}");
                    let (ka, kb) = (&a.stats.kernel, &b.stats.kernel);
                    assert_eq!(
                        ka.global_transactions, kb.global_transactions,
                        "{cell}: global transactions"
                    );
                    assert_eq!(
                        ka.shared_accesses, kb.shared_accesses,
                        "{cell}: shared accesses"
                    );
                    assert!(
                        ka.busy_cycles >= kb.busy_cycles,
                        "{cell}: one shard is busier ({}) than the device ({})",
                        kb.busy_cycles,
                        ka.busy_cycles
                    );
                    matched += a.positive_count + a.negative_count;
                }
            }
        }
    }
    assert!(matched > 0, "the churn streams must match something");
}
