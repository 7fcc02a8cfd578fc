//! Registry parity gate: K registered standing queries must produce
//! per-query delta streams identical to K independent engine runs.
//!
//! Every preset × workload cell of the differential matrix replays the
//! same batched insert / delete / Zipf-churn workloads through
//!
//! * one [`QueryRegistry`] holding K subscriptions (mixed query classes
//!   plus duplicate subscriptions, so both singleton groups and groups of
//!   several subscribers to one pattern are exercised), against K
//!   dedicated [`GammaEngine`]s — batch by batch, counts and
//!   sorted-unique match sets must agree exactly, and every
//!   subscription's kernel stats must equal its engine's in every
//!   simulated field (a group launches its pattern's own plan once, and
//!   its grid shares one launch call with the other groups, which must
//!   not change its work); and
//! * one [`QueryRegistry::sharded`] registry at 2 and 4 simulated devices
//!   against per-subscription dedicated [`ShardedEngine`]s, grouped
//!   exactly as a single-device registry groups the same registrations,
//!   its per-batch update cycles equal to one dedicated engine's (one
//!   store for every pattern).
//!
//! Mid-stream register/unregister churn runs on both tiers.
//!
//! The independent engines are themselves pinned to the enumeration
//! oracle by `tests/differential.rs`, so agreement here closes the chain
//! registry = engines = oracle without paying for a third enumeration.

use gamma::datasets::{generate_queries, DatasetPreset, QueryClass, Zipf};
use gamma::engine::registry::{QueryConfig, QueryId, QueryRegistry};
use gamma::engine::{
    GammaConfig, GammaEngine, PartitionStrategy, ShardStealing, ShardedConfig, ShardedEngine,
    StealingMode,
};
use gamma::gpu::{DeviceConfig, KernelStats};
use gamma::graph::{DynamicGraph, QueryGraph, Update, VMatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sorted_unique(mut ms: Vec<VMatch>, who: &str, side: &str) -> Vec<VMatch> {
    ms.sort_unstable();
    assert!(
        ms.windows(2).all(|w| w[0] != w[1]),
        "{who}: duplicate {side} matches reported"
    );
    ms
}

/// Every field but the informational host wall time.
fn simulated(s: &KernelStats) -> String {
    format!(
        "{:?}",
        KernelStats {
            wall_seconds: 0.0,
            ..s.clone()
        }
    )
}

fn gamma_config() -> GammaConfig {
    let mut cfg = GammaConfig {
        device: DeviceConfig::single_sm(),
        ..GammaConfig::default()
    };
    cfg.device.stealing = StealingMode::Active;
    cfg.device.min_steal_hint = 2;
    cfg
}

fn sharded_config(num_shards: usize) -> ShardedConfig {
    ShardedConfig {
        base: gamma_config(),
        num_shards,
        strategy: PartitionStrategy::Hash,
        stealing: ShardStealing::Active,
        faults: None,
        query_id: 0,
    }
}

/// Same workload shape as `tests/differential.rs`: two insertion batches
/// carved out of the generated graph, one deletion batch, one Zipf-skewed
/// churn batch.
fn build_workload(dataset: &mut DynamicGraph, seed: u64) -> Vec<Vec<Update>> {
    let mut batches = Vec::new();
    let inserts = gamma::datasets::split_insertion_workload(dataset, 0.12, seed);
    let half = inserts.len().div_ceil(2).max(1);
    for chunk in inserts.chunks(half) {
        batches.push(chunk.to_vec());
    }
    let deletes = gamma::datasets::sample_deletion_workload(dataset, 0.06, seed ^ 0xdead);
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

/// Distinct patterns of mixed classes extractable from `g`.
fn mixed_queries(g: &DynamicGraph, seed: u64) -> Vec<QueryGraph> {
    let mut qs: Vec<QueryGraph> = Vec::new();
    for (class, size) in [
        (QueryClass::Dense, 4),
        (QueryClass::Sparse, 5),
        (QueryClass::Tree, 5),
    ] {
        for q in generate_queries(g, class, size, 2, seed ^ 0x51_f1ed) {
            if !qs.contains(&q) {
                qs.push(q);
            }
        }
    }
    assert!(
        qs.len() >= 2,
        "need at least two distinct patterns for a meaningful registry cell"
    );
    qs
}

fn run_registry_parity(preset: DatasetPreset, k: usize, scale: f64, seed: u64) {
    let dataset = preset.build(scale, seed);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, seed.wrapping_mul(0x9e37));
    let qs = mixed_queries(&start, seed);

    // K subscriptions cycling the distinct patterns: with k > distinct
    // patterns, duplicates guarantee groups of several subscribers.
    let subs: Vec<&QueryGraph> = (0..k).map(|i| &qs[i % qs.len()]).collect();

    let mut reg = QueryRegistry::new(start.clone(), gamma_config());
    let ids: Vec<_> = subs
        .iter()
        .map(|q| reg.register(q, QueryConfig::default()))
        .collect();
    let mut engines: Vec<GammaEngine> = subs
        .iter()
        .map(|q| GammaEngine::new(start.clone(), q, gamma_config()))
        .collect();

    if k > qs.len() {
        assert!(
            reg.group_count() < reg.num_queries(),
            "duplicate subscriptions must share a group — sharing has gone vacuous"
        );
    }

    // A group launches its representative's plan and table, exactly as
    // the representative's dedicated engine does. Every subscription here
    // registers on the start graph, so its plan is the representative's
    // and its kernel stats must equal its own engine's.
    let singletons: Vec<QueryId> = reg
        .groups()
        .into_iter()
        .filter(|g| g.len() == 1)
        .map(|g| g[0])
        .collect();

    let mut total_delta = 0u64;
    let (mut singleton_checks, mut grouped_checks) = (0usize, 0usize);
    for (bi, raw) in batches.iter().enumerate() {
        let r = reg.apply_batch(raw);
        assert_eq!(r.deltas.len(), k);
        for (i, id) in ids.iter().enumerate() {
            let context = format!("preset {} / k={k} / sub {i} / batch {bi}", preset.name());
            let d = r.delta(*id).expect("registered id has a delta");
            let e = engines[i].apply_batch(raw);
            assert_eq!(
                d.positive_count, e.positive_count,
                "positive_count diverges at {context}"
            );
            assert_eq!(
                d.negative_count, e.negative_count,
                "negative_count diverges at {context}"
            );
            let ctx = &context;
            assert_eq!(
                sorted_unique(d.positive.clone(), "registry", "positive"),
                sorted_unique(e.positive.clone(), "engine", "positive"),
                "positive delta diverges at {ctx}"
            );
            assert_eq!(
                sorted_unique(d.negative.clone(), "registry", "negative"),
                sorted_unique(e.negative.clone(), "engine", "negative"),
                "negative delta diverges at {ctx}"
            );
            assert_eq!(
                simulated(&d.kernel),
                simulated(&e.stats.kernel),
                "kernel stats diverge at {ctx}"
            );
            if singletons.contains(id) {
                singleton_checks += 1;
            } else {
                grouped_checks += 1;
            }
            total_delta += d.positive_count + d.negative_count;
        }
        assert_eq!(
            reg.graph().num_edges(),
            engines[0].graph().num_edges(),
            "registry host mirror drifted at batch {bi}"
        );
    }
    assert!(
        total_delta > 0,
        "preset {} produced no registry deltas — parity cell has gone vacuous",
        preset.name()
    );
    // Below two subscriptions per pattern some pattern is subscribed once,
    // and these cells group it alone: the stats check must not go vacuous.
    if k < 2 * qs.len() {
        assert!(
            singleton_checks > 0,
            "preset {} / k={k}: no singleton group was compared",
            preset.name()
        );
    }
    if k > qs.len() {
        assert!(
            grouped_checks > 0,
            "preset {} / k={k}: no grouped subscription was compared",
            preset.name()
        );
    }
    // Telemetry sanity: every query saw every batch and its totals add up.
    for id in &ids {
        let st = reg.stats(*id).expect("registered id has stats");
        assert_eq!(st.batches, batches.len() as u64);
    }
}

fn run_sharded_registry_parity(preset: DatasetPreset, scale: f64, seed: u64) {
    let dataset = preset.build(scale, seed);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, seed.wrapping_mul(0x9e37));
    let qs = mixed_queries(&start, seed);
    // Every distinct pattern plus one duplicate of the first: exercises
    // both the identity-class dedup (one engine, two subscribers) and
    // multi-class fan-out, at both shard counts.
    let mut subs: Vec<&QueryGraph> = qs.iter().collect();
    subs.push(&qs[0]);

    // The grouping rule is the same on both executors.
    let mut device = QueryRegistry::new(start.clone(), gamma_config());
    for q in &subs {
        device.register(q, QueryConfig::default());
    }

    for num_shards in [2usize, 4] {
        let cfg = sharded_config(num_shards);
        let mut reg = QueryRegistry::sharded(start.clone(), &cfg);
        let ids: Vec<_> = subs
            .iter()
            .map(|q| reg.register(q, QueryConfig::default()))
            .collect();
        assert_eq!(reg.num_queries(), subs.len());
        assert_eq!(
            reg.group_count(),
            qs.len(),
            "identical patterns must share an engine"
        );
        assert_eq!(
            reg.groups(),
            device.groups(),
            "SHARD{num_shards} groups differ from the single device's"
        );
        let mut engines: Vec<ShardedEngine> = subs
            .iter()
            .map(|q| ShardedEngine::new(start.clone(), q, cfg.clone()))
            .collect();

        let mut total_delta = 0u64;
        for (bi, raw) in batches.iter().enumerate() {
            let r = reg.apply_batch(raw);
            for (i, id) in ids.iter().enumerate() {
                let context = format!(
                    "preset {} / SHARD{num_shards} / sub {i} / batch {bi}",
                    preset.name()
                );
                let d = r.delta(*id).expect("registered id has a delta");
                let e = engines[i].apply_batch(raw);
                if i == 0 {
                    // One store for every pattern: the registry's update
                    // costs exactly what one dedicated engine's does.
                    assert_eq!(
                        r.update_cycles, e.stats.update_cycles,
                        "update_cycles diverge at {context}"
                    );
                }
                assert_eq!(
                    d.positive_count, e.positive_count,
                    "positive_count diverges at {context}"
                );
                assert_eq!(
                    d.negative_count, e.negative_count,
                    "negative_count diverges at {context}"
                );
                assert_eq!(
                    sorted_unique(d.positive.clone(), "sharded-registry", "positive"),
                    sorted_unique(e.positive.clone(), "sharded-engine", "positive"),
                    "positive delta diverges at {context}"
                );
                assert_eq!(
                    sorted_unique(d.negative.clone(), "sharded-registry", "negative"),
                    sorted_unique(e.negative.clone(), "sharded-engine", "negative"),
                    "negative delta diverges at {context}"
                );
                total_delta += d.positive_count + d.negative_count;
            }
        }
        assert!(
            total_delta > 0,
            "preset {} SHARD{num_shards} produced no deltas — cell has gone vacuous",
            preset.name()
        );
    }
}

/// Register/unregister mid-stream: subscriptions come and go between
/// batches; every live subscription must still track a dedicated engine
/// spawned from the registry's graph at its registration point.
fn run_midstream_churn(preset: DatasetPreset, scale: f64, seed: u64) {
    let dataset = preset.build(scale, seed);
    let mut start = dataset.graph.clone();
    let batches = build_workload(&mut start, seed.wrapping_mul(0x9e37));
    let qs = mixed_queries(&start, seed);

    let mut reg = QueryRegistry::new(start.clone(), gamma_config());
    let mut live: Vec<(QueryId, GammaEngine)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);

    // Start with two subscriptions; churn the set between batches.
    for i in 0..2 {
        let q = &qs[i % qs.len()];
        let id = reg.register(q, QueryConfig::default());
        live.push((id, GammaEngine::new(start.clone(), q, gamma_config())));
    }

    for (bi, raw) in batches.iter().enumerate() {
        let r = reg.apply_batch(raw);
        for (id, engine) in &mut live {
            let d = r.delta(*id).expect("live id has a delta");
            let e = engine.apply_batch(raw);
            assert_eq!(
                d.positive_count, e.positive_count,
                "positive_count diverges at batch {bi} (mid-stream churn)"
            );
            assert_eq!(
                sorted_unique(d.positive.clone(), "registry", "positive"),
                sorted_unique(e.positive.clone(), "engine", "positive"),
                "positive delta diverges at batch {bi} (mid-stream churn)"
            );
            assert_eq!(
                sorted_unique(d.negative.clone(), "registry", "negative"),
                sorted_unique(e.negative.clone(), "engine", "negative"),
                "negative delta diverges at batch {bi} (mid-stream churn)"
            );
        }

        // Churn: maybe drop one subscription, maybe add one — the new
        // engine starts from the registry's *current* graph.
        if live.len() > 1 && rng.random_bool(0.4) {
            let victim = rng.random_range(0..live.len());
            let (id, _) = live.remove(victim);
            assert!(reg.unregister(id));
            let r2 = reg.apply_batch(&[]);
            assert!(r2.delta(id).is_none(), "unregistered id must stop routing");
        }
        if rng.random_bool(0.6) {
            let q = &qs[rng.random_range(0..qs.len())];
            let id = reg.register(q, QueryConfig::default());
            live.push((id, GammaEngine::new(reg.graph().clone(), q, gamma_config())));
        }
    }
    assert!(!live.is_empty());

    // The same churn on the shard executor: late registrations join the
    // registry's existing partition and resident sets, and each live
    // subscription tracks a sharded engine built from the registry's
    // graph at its registration point.
    for num_shards in [2usize, 4] {
        let cfg = sharded_config(num_shards);
        let mut reg = QueryRegistry::sharded(start.clone(), &cfg);
        let mut live: Vec<(QueryId, ShardedEngine)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
        for i in 0..2 {
            let q = &qs[i % qs.len()];
            let id = reg.register(q, QueryConfig::default());
            live.push((id, ShardedEngine::new(start.clone(), q, cfg.clone())));
        }
        for (bi, raw) in batches.iter().enumerate() {
            let context = format!("batch {bi} (SHARD{num_shards} mid-stream churn)");
            let r = reg.apply_batch(raw);
            for (id, engine) in &mut live {
                let d = r.delta(*id).expect("live id has a delta");
                let e = engine.apply_batch(raw);
                assert_eq!(
                    d.positive_count, e.positive_count,
                    "positive_count diverges at {context}"
                );
                assert_eq!(
                    d.negative_count, e.negative_count,
                    "negative_count diverges at {context}"
                );
                assert_eq!(
                    sorted_unique(d.positive.clone(), "sharded-registry", "positive"),
                    sorted_unique(e.positive.clone(), "sharded-engine", "positive"),
                    "positive delta diverges at {context}"
                );
                assert_eq!(
                    sorted_unique(d.negative.clone(), "sharded-registry", "negative"),
                    sorted_unique(e.negative.clone(), "sharded-engine", "negative"),
                    "negative delta diverges at {context}"
                );
            }
            if live.len() > 1 && rng.random_bool(0.4) {
                let victim = rng.random_range(0..live.len());
                let (id, _) = live.remove(victim);
                assert!(reg.unregister(id));
                let r2 = reg.apply_batch(&[]);
                assert!(r2.delta(id).is_none(), "unregistered id must stop routing");
            }
            if rng.random_bool(0.6) {
                let q = &qs[rng.random_range(0..qs.len())];
                let id = reg.register(q, QueryConfig::default());
                live.push((id, ShardedEngine::new(reg.graph().clone(), q, cfg.clone())));
            }
        }
        assert!(!live.is_empty());
    }
}

// ---------------------------------------------------------------------------
// The preset × class matrix, mirroring tests/differential.rs. K = 8
// everywhere (4+ distinct mixed-class patterns × duplicates); the GH dense
// corner additionally pins K = 2 and K = 32, and every preset gets a
// SHARD2/4 sharded-registry cell.
// ---------------------------------------------------------------------------

#[test]
fn registry_parity_gh_k2() {
    run_registry_parity(DatasetPreset::GH, 2, 0.04, 101);
}

#[test]
fn registry_parity_gh_k8() {
    run_registry_parity(DatasetPreset::GH, 8, 0.04, 101);
}

#[test]
fn registry_parity_gh_k32() {
    run_registry_parity(DatasetPreset::GH, 32, 0.04, 101);
}

#[test]
fn registry_parity_az_k8() {
    run_registry_parity(DatasetPreset::AZ, 8, 0.03, 104);
}

#[test]
fn registry_parity_st_k8() {
    run_registry_parity(DatasetPreset::ST, 8, 0.02, 108);
}

#[test]
fn registry_parity_nf_edge_labeled_k8() {
    run_registry_parity(DatasetPreset::NF, 8, 0.03, 110);
}

#[test]
fn sharded_registry_parity_gh() {
    run_sharded_registry_parity(DatasetPreset::GH, 0.04, 101);
}

#[test]
fn sharded_registry_parity_az() {
    run_sharded_registry_parity(DatasetPreset::AZ, 0.03, 104);
}

#[test]
fn sharded_registry_parity_st() {
    run_sharded_registry_parity(DatasetPreset::ST, 0.02, 108);
}

#[test]
fn sharded_registry_parity_nf() {
    run_sharded_registry_parity(DatasetPreset::NF, 0.03, 110);
}

#[test]
fn registry_midstream_churn_gh() {
    run_midstream_churn(DatasetPreset::GH, 0.04, 101);
}

#[test]
fn registry_midstream_churn_az() {
    run_midstream_churn(DatasetPreset::AZ, 0.03, 104);
}
