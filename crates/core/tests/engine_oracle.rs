//! Engine-vs-oracle equivalence: for any graph, query and batch, GAMMA's
//! incremental matches must equal the set difference of full enumerations
//! on the pre- and post-update snapshots.

use gamma_core::{GammaConfig, GammaEngine, ShardedConfig, ShardedEngine, StealingMode};
use gamma_datasets::{generate_queries, DatasetPreset, QueryClass};
use gamma_gpu::DeviceConfig;
use gamma_graph::{
    enumerate_matches, DynamicGraph, QueryGraph, Update, UpdateBatch, VMatch, NO_ELABEL,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sorted, deduped match set of `q` in `g`.
fn all_matches(g: &DynamicGraph, q: &QueryGraph) -> Vec<VMatch> {
    let mut ms = enumerate_matches(g, q, None);
    ms.sort_unstable();
    ms.dedup();
    ms
}

/// Oracle: (positives, negatives) for applying `raw` to `g`.
fn oracle_diff(g: &DynamicGraph, q: &QueryGraph, raw: &[Update]) -> (Vec<VMatch>, Vec<VMatch>) {
    let before = all_matches(g, q);
    let mut g2 = g.clone();
    let batch = UpdateBatch::canonicalize(g, raw);
    batch.apply(&mut g2);
    let after = all_matches(&g2, q);
    let pos: Vec<VMatch> = after
        .iter()
        .filter(|m| before.binary_search(m).is_err())
        .copied()
        .collect();
    let neg: Vec<VMatch> = before
        .iter()
        .filter(|m| after.binary_search(m).is_err())
        .copied()
        .collect();
    (pos, neg)
}

fn check_engine(
    g: &DynamicGraph,
    q: &QueryGraph,
    raw: &[Update],
    config: GammaConfig,
) -> Result<(), String> {
    let (oracle_pos, oracle_neg) = oracle_diff(g, q, raw);
    let mut engine = GammaEngine::new(g.clone(), q, config);
    let result = engine.apply_batch(raw);
    let mut got_pos = result.positive.clone();
    got_pos.sort_unstable();
    let dup = got_pos.windows(2).any(|w| w[0] == w[1]);
    if dup {
        return Err(format!("duplicate positive matches: {got_pos:?}"));
    }
    let mut got_neg = result.negative.clone();
    got_neg.sort_unstable();
    if got_neg.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate negative matches".into());
    }
    if got_pos != oracle_pos {
        return Err(format!(
            "positive mismatch:\n got {:?}\n want {:?}",
            got_pos, oracle_pos
        ));
    }
    if got_neg != oracle_neg {
        return Err(format!(
            "negative mismatch:\n got {:?}\n want {:?}",
            got_neg, oracle_neg
        ));
    }
    if result.positive_count != oracle_pos.len() as u64
        || result.negative_count != oracle_neg.len() as u64
    {
        return Err("count / match-list disagreement".into());
    }
    Ok(())
}

fn fig1_graph() -> DynamicGraph {
    let mut g = DynamicGraph::new();
    for &l in &[0u16, 0, 1, 1, 1, 1, 1, 2, 2, 2] {
        g.add_vertex(l);
    }
    for &(u, v) in &[
        (0, 3),
        (0, 4),
        (2, 3),
        (2, 4),
        (3, 7),
        (2, 8),
        (1, 5),
        (1, 6),
        (5, 6),
        (5, 9),
        (4, 7),
    ] {
        g.insert_edge(u, v, NO_ELABEL);
    }
    g
}

fn fig1_query() -> QueryGraph {
    let mut b = QueryGraph::builder();
    let u0 = b.vertex(0);
    let u1 = b.vertex(1);
    let u2 = b.vertex(1);
    let u3 = b.vertex(2);
    b.edge(u0, u1).edge(u0, u2).edge(u1, u2).edge(u1, u3);
    b.build()
}

fn configs_to_try() -> Vec<(&'static str, GammaConfig)> {
    let base = GammaConfig {
        device: DeviceConfig::single_sm(),
        ..GammaConfig::default()
    };
    let mut v = Vec::new();
    for (name, cs, steal) in [
        ("wbm", false, StealingMode::Off),
        ("wbm+cs", true, StealingMode::Off),
        ("wbm+ws", false, StealingMode::Active),
        ("wbm+cs+ws", true, StealingMode::Active),
    ] {
        let mut c = base.clone();
        c.coalesced_search = cs;
        c.device.stealing = steal;
        c.device.min_steal_hint = 2; // aggressive stealing in tests
        v.push((name, c));
    }
    v
}

#[test]
fn fig1_insertion_all_configs() {
    let raw = [Update::insert(0, 2)];
    for (name, cfg) in configs_to_try() {
        check_engine(&fig1_graph(), &fig1_query(), &raw, cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn fig1_full_batch_of_example1() {
    // The paper's Example 1 batch: +(v0,v2), +(v1,v4), -(v4,v5) — BDSM
    // yields 4 positive matches; the churn pair is net-canonicalized.
    let mut g = fig1_graph();
    g.insert_edge(4, 5, NO_ELABEL); // make (v4,v5) deletable
    let raw = [
        Update::insert(0, 2),
        Update::insert(1, 4),
        Update::delete(4, 5),
    ];
    for (name, cfg) in configs_to_try() {
        check_engine(&g, &fig1_query(), &raw, cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn deletion_produces_negative_matches() {
    // Deleting (v1, v5) kills the example match {v1,v5,v6,v9}.
    let raw = [Update::delete(1, 5)];
    for (name, cfg) in configs_to_try() {
        check_engine(&fig1_graph(), &fig1_query(), &raw, cfg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn churn_batch_is_noop() {
    let raw = [Update::insert(0, 2), Update::delete(0, 2)];
    let mut engine = GammaEngine::new(fig1_graph(), &fig1_query(), GammaConfig::default());
    let r = engine.apply_batch(&raw);
    assert_eq!(r.positive_count, 0);
    assert_eq!(r.negative_count, 0);
    assert_eq!(r.stats.net_updates, 0);
}

#[test]
fn consecutive_batches_stay_consistent() {
    let mut g = fig1_graph();
    let q = fig1_query();
    let mut engine = GammaEngine::new(g.clone(), &q, GammaConfig::default());
    let batches: Vec<Vec<Update>> = vec![
        vec![Update::insert(0, 2)],
        vec![Update::insert(1, 4), Update::delete(0, 3)],
        vec![Update::delete(0, 2), Update::insert(0, 3)],
    ];
    for raw in batches {
        let (oracle_pos, oracle_neg) = oracle_diff(&g, &q, &raw);
        let r = engine.apply_batch(&raw);
        let mut got_pos = r.positive.clone();
        got_pos.sort_unstable();
        let mut got_neg = r.negative.clone();
        got_neg.sort_unstable();
        assert_eq!(got_pos, oracle_pos);
        assert_eq!(got_neg, oracle_neg);
        UpdateBatch::canonicalize(&g.clone(), &raw).apply(&mut g);
        // Engine's host mirror tracks the same graph.
        assert_eq!(engine.graph().num_edges(), g.num_edges());
    }
}

#[test]
fn dataset_scale_insertions_match_oracle() {
    // A real (small) preset with a 10% insertion batch across all three
    // query classes — the Table-III setting in miniature.
    let d = DatasetPreset::GH.build(0.06, 31);
    for class in QueryClass::ALL {
        let queries = generate_queries(&d.graph, class, 5, 2, 77);
        for q in &queries {
            let mut g = d.graph.clone();
            let ups = gamma_datasets::split_insertion_workload(&mut g, 0.1, 5);
            check_engine(&g, q, &ups, GammaConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", class.name()));
        }
    }
}

#[test]
fn mixed_workload_matches_oracle() {
    let d = DatasetPreset::GH.build(0.05, 33);
    let queries = generate_queries(&d.graph, QueryClass::Sparse, 4, 2, 78);
    for q in &queries {
        let mut g = d.graph.clone();
        let ups = gamma_datasets::mixed_workload(&mut g, 0.1, 6);
        check_engine(&g, q, &ups, GammaConfig::default()).unwrap();
    }
}

#[test]
fn edge_labeled_matching_respects_labels() {
    // NF-like: single vertex label, several edge labels.
    let mut g = DynamicGraph::with_vertices(6);
    g.insert_edge(0, 1, 1);
    g.insert_edge(1, 2, 2);
    g.insert_edge(2, 3, 1);
    g.insert_edge(3, 4, 2);
    let mut b = QueryGraph::builder();
    let x = b.vertex(0);
    let y = b.vertex(0);
    let z = b.vertex(0);
    b.edge_labeled(x, y, 1).edge_labeled(y, z, 2);
    let q = b.build();
    let raw = [Update::insert_labeled(4, 5, 1)];
    check_engine(&g, &q, &raw, GammaConfig::default()).unwrap();
}

#[test]
fn timeout_flags_unsolved() {
    use std::time::Duration;
    let d = DatasetPreset::LJ.build(0.12, 34);
    let queries = generate_queries(&d.graph, QueryClass::Tree, 8, 1, 79);
    if queries.is_empty() {
        return;
    }
    let mut g = d.graph.clone();
    let ups = gamma_datasets::split_insertion_workload(&mut g, 0.1, 7);
    let mut cfg = GammaConfig::default();
    cfg.timeout = Some(Duration::from_nanos(1));
    let mut engine = GammaEngine::new(g, &queries[0], cfg);
    let r = engine.apply_batch(&ups);
    assert!(r.stats.timed_out, "nanosecond timeout must trip");
}

#[test]
fn match_limit_aborts() {
    let d = DatasetPreset::GH.build(0.06, 35);
    let queries = generate_queries(&d.graph, QueryClass::Tree, 4, 1, 80);
    if queries.is_empty() {
        return;
    }
    let mut g = d.graph.clone();
    let ups = gamma_datasets::split_insertion_workload(&mut g, 0.2, 8);
    let mut cfg = GammaConfig::default();
    cfg.match_limit = 1;
    let mut engine = GammaEngine::new(g, &queries[0], cfg);
    let r = engine.apply_batch(&ups);
    assert!(r.stats.timed_out || r.positive_count <= 2);
}

/// The shard executor honours `match_limit` too: its units run ahead on
/// the launch pool, and the phase stops at a unit boundary once one
/// unit's count, or the committed total, passes the limit.
#[test]
fn match_limit_aborts_the_shard_executor() {
    let d = DatasetPreset::GH.build(0.06, 35);
    let queries = generate_queries(&d.graph, QueryClass::Tree, 4, 1, 80);
    let q = queries.first().expect("query extractable");
    let mut g = d.graph.clone();
    let ups = gamma_datasets::split_insertion_workload(&mut g, 0.2, 8);
    let run = |match_limit: u64| {
        let cfg = ShardedConfig {
            base: GammaConfig {
                match_limit,
                ..GammaConfig::default()
            },
            num_shards: 4,
            ..ShardedConfig::default()
        };
        ShardedEngine::new(g.clone(), q, cfg).apply_batch(&ups)
    };
    let full = run(u64::MAX);
    assert!(!full.stats.timed_out);
    assert!(
        full.positive_count > 1,
        "the batch must have more matches than the limit: {}",
        full.positive_count
    );
    assert!(run(1).stats.timed_out, "match_limit = 1 must abort");
}

#[test]
fn add_vertex_then_connect() {
    let g = fig1_graph();
    let q = fig1_query();
    let mut engine = GammaEngine::new(g.clone(), &q, GammaConfig::default());
    // A fresh C vertex; connecting it to v5 (B) grows v5's tail options.
    // Oracle check on the extended graph.
    let nv = engine.add_vertex(2);
    let mut g2 = g.clone();
    let nv2 = g2.add_vertex(2);
    assert_eq!(nv, nv2);
    let raw = [Update::insert(5, nv)];
    let (oracle_pos, _) = oracle_diff(&g2, &q, &raw);
    let r = engine.apply_batch(&raw);
    let mut got = r.positive.clone();
    got.sort_unstable();
    assert_eq!(got, oracle_pos);
}

/// Random-instance property test: engine == oracle on arbitrary small
/// graphs, queries and batches, across optimization configs.
fn random_instance(seed: u64) -> (DynamicGraph, QueryGraph, Vec<Update>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(8..28);
    let labels = rng.random_range(1..4u16);
    let mut g = DynamicGraph::new();
    for _ in 0..n {
        g.add_vertex(rng.random_range(0..labels));
    }
    let edges = rng.random_range(n..4 * n);
    for _ in 0..edges {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u != v {
            g.insert_edge(u, v, NO_ELABEL);
        }
    }
    // Query: random connected pattern of 3..6 vertices extracted from g
    // when possible, else a labeled triangle.
    let q = gamma_datasets::generate_query(&g, QueryClass::Tree, rng.random_range(3..6), &mut rng)
        .or_else(|| gamma_datasets::generate_query(&g, QueryClass::Sparse, 4, &mut rng))
        .unwrap_or_else(|| {
            let mut b = QueryGraph::builder();
            let x = b.vertex(0);
            let y = b.vertex(0);
            let z = b.vertex(0);
            b.edge(x, y).edge(y, z).edge(x, z);
            b.build()
        });
    // Batch: random inserts + deletes.
    let mut raw = Vec::new();
    for _ in 0..rng.random_range(1..10) {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u == v {
            continue;
        }
        if rng.random_bool(0.5) {
            raw.push(Update::insert(u, v));
        } else {
            raw.push(Update::delete(u, v));
        }
    }
    (g, q, raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_equals_oracle_on_random_instances(seed in 0u64..10_000) {
        let (g, q, raw) = random_instance(seed);
        for (name, cfg) in configs_to_try() {
            if let Err(e) = check_engine(&g, &q, &raw, cfg) {
                return Err(TestCaseError::fail(format!("{name}: {e}")));
            }
        }
    }
}
