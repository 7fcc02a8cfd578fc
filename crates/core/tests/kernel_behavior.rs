//! Behavioural tests of the WBM kernel: stealing invariance, coalesced
//! search equivalence, determinism of the simulated clock, and seed
//! coverage of the coalesced plan.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gamma_core::wbm::{build_update_order, KernelShared, QueryMeta, WbmTask};
use gamma_core::{
    GammaConfig, GammaEngine, IncrementalEncoder, QueryConfig, QueryRegistry, ShardedConfig,
    ShardedEngine, StealingMode,
};
use gamma_datasets::{generate_queries, skewed_star_workload, DatasetPreset, QueryClass};
use gamma_gpma::{Gpma, GpmaConfig};
use gamma_gpu::{run_block, DeviceConfig, KernelStats, Stealing};
use gamma_graph::{QueryGraph, Update, UpdateBatch, VMatch};

/// Runs one raw block over the given anchors and returns sorted matches,
/// the block's stats and each warp's busy cycles.
fn run_raw_block(
    g2: &gamma_graph::DynamicGraph,
    q: &QueryGraph,
    anchors: &[Update],
    stealing: Stealing,
    coalesced: bool,
) -> (Vec<VMatch>, KernelStats, Vec<u64>) {
    let (enc, table) = IncrementalEncoder::build(g2, q, 2);
    let meta = Arc::new(QueryMeta::build(q, &table, enc.scheme(), coalesced, 2));
    let gpma = Gpma::from_graph(g2, GpmaConfig::default());
    let shared = KernelShared {
        gpma: Arc::new(gpma),
        meta,
        table,
        encodings: Arc::clone(&enc.encodings),
        update_order: build_update_order(anchors),
        sink: Mutex::new(Vec::new()),
        match_count: std::sync::atomic::AtomicU64::new(0),
        collect: true,
        abort: Arc::new(AtomicBool::new(false)),
        deadline: None,
        match_limit: u64::MAX,
        signatures: true,
        residency: None,
    };
    let tasks = anchors
        .iter()
        .enumerate()
        .map(|(i, a)| WbmTask::new(&shared, a, i as u32))
        .collect();
    let cfg = DeviceConfig {
        stealing,
        ..DeviceConfig::single_sm()
    };
    let (stats, warp_busy) = run_block(&shared, tasks, &cfg);
    let mut ms = shared.sink.into_inner().unwrap();
    ms.sort_unstable();
    (ms, stats, warp_busy)
}

fn star_instance() -> (gamma_graph::DynamicGraph, Vec<Update>, QueryGraph) {
    let (g, ups, q) = skewed_star_workload(3, 150);
    let mut g2 = g.clone();
    UpdateBatch::canonicalize(&g, &ups).apply(&mut g2);
    (g2, ups, q)
}

#[test]
fn stealing_preserves_exact_match_set() {
    let (g2, ups, q) = star_instance();
    let (off, s_off, _) = run_raw_block(&g2, &q, &ups, Stealing::Off, false);
    let (act, s_act, _) = run_raw_block(&g2, &q, &ups, Stealing::Active, false);
    assert_eq!(off, act, "active stealing changed the match multiset");
    assert!(s_act.steals > 0);
    assert!(s_act.device_cycles < s_off.device_cycles);
}

#[test]
fn coalesced_search_preserves_exact_match_set() {
    let d = DatasetPreset::AZ.build(0.05, 51);
    for class in QueryClass::ALL {
        let queries = generate_queries(&d.graph, class, 5, 3, 52);
        for q in &queries {
            let mut g = d.graph.clone();
            let ups = gamma_datasets::split_insertion_workload(&mut g, 0.08, 53);
            let mut g2 = g.clone();
            UpdateBatch::canonicalize(&g, &ups).apply(&mut g2);
            let (plain, ..) = run_raw_block(&g2, &q.clone(), &ups, Stealing::Off, false);
            let (coal, ..) = run_raw_block(&g2, &q.clone(), &ups, Stealing::Off, true);
            assert_eq!(plain, coal, "coalesced search changed results");
        }
    }
}

#[test]
fn simulated_clock_is_deterministic() {
    let (g2, ups, q) = star_instance();
    let (_, a, _) = run_raw_block(&g2, &q, &ups, Stealing::Active, true);
    let (_, b, _) = run_raw_block(&g2, &q, &ups, Stealing::Active, true);
    assert_eq!(a.device_cycles, b.device_cycles);
    assert_eq!(a.busy_cycles, b.busy_cycles);
    assert_eq!(a.steals, b.steals);
    assert_eq!(a.global_transactions, b.global_transactions);
}

#[test]
fn seed_plans_cover_all_query_edges_exactly_once() {
    let d = DatasetPreset::GH.build(0.05, 54);
    for class in QueryClass::ALL {
        for size in [4usize, 6, 8] {
            for q in generate_queries(&d.graph, class, size, 3, 55) {
                let (enc, table) = IncrementalEncoder::build(&d.graph, &q, 2);
                let meta = QueryMeta::build(&q, &table, enc.scheme(), true, 2);
                // Every edge: either a seed or a member of exactly one class.
                let mut covered = std::collections::BTreeSet::new();
                for s in &meta.seeds {
                    assert!(covered.insert((s.a.min(s.b), s.a.max(s.b))));
                }
                for class in &meta.plan.classes {
                    for m in &class.members {
                        let e = (m.edge.0.min(m.edge.1), m.edge.0.max(m.edge.1));
                        assert!(covered.insert(e), "edge {e:?} covered twice");
                    }
                }
                assert_eq!(covered.len(), q.num_edges());
                // Rep seeds place all of V^k before R^k in their order.
                for s in meta.seeds.iter().filter(|s| s.class.is_some()) {
                    let ci = s.class.unwrap();
                    let mask = meta.plan.classes[ci].vk_mask;
                    for (lvl, &qv) in s.order.iter().enumerate() {
                        let in_vk = mask & (1 << qv) != 0;
                        assert_eq!(
                            in_vk,
                            lvl < s.vk_size,
                            "order {:?} violates V^k-first at level {lvl}",
                            s.order
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn vk_codes_are_weaker_than_full_codes() {
    // The V^k-restricted code of a vertex must never be stricter than the
    // full-query code (it drops R^k-derived constraints).
    let mut b = QueryGraph::builder();
    let u0 = b.vertex(0);
    let u1 = b.vertex(1);
    let u2 = b.vertex(1);
    let u3 = b.vertex(2);
    b.edge(u0, u1).edge(u0, u2).edge(u1, u2).edge(u1, u3);
    let q = b.build();
    let g = {
        let mut g = gamma_graph::DynamicGraph::new();
        for &l in &[0u16, 1, 1, 2] {
            g.add_vertex(l);
        }
        g.insert_edge(0, 1, 0);
        g.insert_edge(0, 2, 0);
        g.insert_edge(1, 2, 0);
        g.insert_edge(1, 3, 0);
        g
    };
    let (enc, table) = IncrementalEncoder::build(&g, &q, 2);
    let meta = QueryMeta::build(&q, &table, enc.scheme(), true, 2);
    assert!(!meta.plan.classes.is_empty());
    for (ci, class) in meta.plan.classes.iter().enumerate() {
        for w in 0..q.num_vertices() as u8 {
            if class.vk_mask & (1 << w) == 0 {
                continue;
            }
            let vk_code = meta.class_vk_codes[ci][w as usize];
            let full_code = enc.qcodes[w as usize];
            // vk_code's bits are a subset of full_code's bits.
            assert_eq!(
                vk_code & full_code,
                vk_code,
                "V^k code stricter than full code for u{w}"
            );
        }
    }
}

#[test]
fn per_warp_skew_is_visible_without_stealing() {
    let (g2, ups, q) = star_instance();
    let (_, _, warp_busy) = run_raw_block(&g2, &q, &ups, Stealing::Off, false);
    assert_eq!(warp_busy.len(), 2);
    let (small, large) = (warp_busy[0], warp_busy[1]);
    assert!(
        large > 5 * small,
        "expected heavy skew: small={small} large={large}"
    );
}

#[test]
fn count_only_mode_counts_exactly_like_collection() {
    // The count-only fast paths (bulk last-level emit, stream counting,
    // sibling memoization) must report bit-identical totals to full
    // materialization.
    for preset in [DatasetPreset::GH, DatasetPreset::AZ] {
        let d = preset.build(0.08, 61);
        for class in QueryClass::ALL {
            for q in generate_queries(&d.graph, class, 6, 2, 62) {
                let mut g = d.graph.clone();
                let ups = gamma_datasets::split_insertion_workload(&mut g, 0.08, 63);
                let run = |collect: bool| {
                    let mut cfg = GammaConfig::default();
                    cfg.collect_matches = collect;
                    let mut engine = GammaEngine::new(g.clone(), &q, cfg);
                    let r = engine.apply_batch(&ups);
                    (
                        r.positive_count,
                        r.negative_count,
                        r.positive.len(),
                        r.stats.kernel.buf_reuse,
                        r.stats.kernel.buf_alloc,
                        r.stats.kernel.num_tasks,
                    )
                };
                let (cp, cn, c_len, _, _, _) = run(true);
                let (kp, kn, k_len, reuse, alloc, tasks) = run(false);
                assert_eq!(cp, kp, "positive count drift ({class:?})");
                assert_eq!(cn, kn, "negative count drift ({class:?})");
                assert_eq!(cp as usize, c_len, "collection incomplete");
                assert_eq!(k_len, 0, "count-only mode must not materialize");
                // Zero-allocation steady state: pool misses are warm-up
                // only — bounded by live frames per task (≤ 2·|V(Q)| each:
                // one per DFS level plus a memo), never by quanta.
                let warmup_bound = tasks as u64 * 2 * q.num_vertices() as u64;
                assert!(
                    alloc <= warmup_bound,
                    "buffer allocations scale past warm-up: {alloc} > {warmup_bound}"
                );
                let _ = reuse;
            }
        }
    }
}

#[test]
fn count_only_coalesced_search_counts_like_collection() {
    // A whole-query class (k = 0) counts each representative match once
    // per member plus itself in count-only launches instead of
    // materializing its permutations; k > 0 classes and plain seeds keep
    // enumerating. Every count must equal the collected coalesced and the
    // collected plain counts, with stealing off and on. A batch that hit
    // `match_limit` is skipped: where an aborted phase stops depends on
    // when its tasks flushed.
    let (mut whole_query, mut partial) = (0usize, 0usize);
    for preset in [DatasetPreset::GH, DatasetPreset::AZ, DatasetPreset::NF] {
        let d = preset.build(0.03, 91);
        for class in QueryClass::ALL {
            for size in 4..=8 {
                for q in generate_queries(&d.graph, class, size, 1, 92) {
                    let mut g = d.graph.clone();
                    let inserts = gamma_datasets::split_insertion_workload(&mut g, 0.10, 93);
                    let mut g2 = g.clone();
                    UpdateBatch::canonicalize(&g, &inserts).apply(&mut g2);
                    let deletes = gamma_datasets::sample_deletion_workload(&g2, 0.05, 94);
                    // `(positive, negative)` of the insert batch, then of the
                    // delete batch; `None` where the batch hit `match_limit`.
                    let run = |coalesced: bool, collect: bool, stealing: StealingMode| {
                        let mut cfg = GammaConfig::default();
                        cfg.coalesced_search = coalesced;
                        cfg.collect_matches = collect;
                        cfg.match_limit = 20_000;
                        cfg.device.stealing = stealing;
                        let mut engine = GammaEngine::new(g.clone(), &q, cfg);
                        [&inserts, &deletes].map(|b| {
                            let r = engine.apply_batch(b);
                            (!r.stats.timed_out).then_some((r.positive_count, r.negative_count))
                        })
                    };
                    let plain = run(false, true, StealingMode::Off);
                    let mut compared = false;
                    for stealing in [StealingMode::Off, StealingMode::Active] {
                        let collected = run(true, true, stealing);
                        let counted = run(true, false, stealing);
                        for i in 0..2 {
                            let (Some(p), Some(c), Some(k)) = (plain[i], collected[i], counted[i])
                            else {
                                continue;
                            };
                            let at =
                                format!("{preset:?} {class:?} size {size} batch {i} {stealing:?}");
                            assert_eq!(c, p, "collected coalesced vs plain at {at}");
                            assert_eq!(k, p, "count-only coalesced vs plain at {at}");
                            compared |= p.0 + p.1 > 0;
                        }
                    }
                    if compared {
                        let engine = GammaEngine::new(g, &q, GammaConfig::default());
                        let classes = &engine.meta().plan.classes;
                        whole_query += usize::from(classes.iter().any(|c| c.k == 0));
                        partial += usize::from(classes.iter().any(|c| c.k > 0));
                    }
                }
            }
        }
    }
    assert!(
        whole_query > 0,
        "no compared query planned a whole-query class"
    );
    assert!(partial > 0, "no compared query planned a k > 0 class");
}

#[test]
fn whole_query_class_counts_without_enumerating_permutations() {
    // Hub A with three B spokes: one k = 0 class whose two members permute
    // the spokes. Four A hubs with 12 B spokes each gain 4 spokes apiece,
    // so each hub adds 16·15·14 − 12·11·10 = 2040 ordered embeddings.
    let mut b = QueryGraph::builder();
    let hub = b.vertex(0);
    for _ in 0..3 {
        let spoke = b.vertex(1);
        b.edge(hub, spoke);
    }
    let q = b.build();
    let mut g = gamma_graph::DynamicGraph::new();
    let mut ups = Vec::new();
    for _ in 0..4 {
        let h = g.add_vertex(0);
        for i in 0..16 {
            let s = g.add_vertex(1);
            if i < 12 {
                g.insert_edge(h, s, 0);
            } else {
                ups.push(Update::insert(h, s));
            }
        }
    }
    let run = |coalesced: bool, collect: bool| {
        let mut cfg = GammaConfig::default();
        cfg.coalesced_search = coalesced;
        cfg.collect_matches = collect;
        cfg.device.stealing = StealingMode::Off;
        let mut engine = GammaEngine::new(g.clone(), &q, cfg);
        if coalesced {
            let classes = &engine.meta().plan.classes;
            assert_eq!(classes.len(), 1);
            assert_eq!((classes[0].k, classes[0].members.len()), (0, 2));
        }
        let r = engine.apply_batch(&ups);
        (r.positive_count, r.stats.kernel.busy_cycles)
    };
    let (counted, counted_cycles) = run(true, false);
    let (plain_counted, plain_cycles) = run(false, false);
    assert_eq!(counted, 8160);
    assert_eq!(plain_counted, 8160);
    assert_eq!(run(true, true).0, 8160);
    assert_eq!(run(false, true).0, 8160);
    // Counting the permuted matches is one multiply, so coalesced search
    // must cost less than searching every spoke edge.
    assert!(
        counted_cycles < plain_cycles,
        "count-only coalesced {counted_cycles} busy cycles vs plain {plain_cycles}"
    );
}

#[test]
fn buffer_pool_reuses_in_steady_state() {
    // A deep DFS workload (8-vertex queries, several materialized levels)
    // must hit the pool far more often than the allocator once warm.
    let d = DatasetPreset::GH.build(0.12, 71);
    let q = generate_queries(&d.graph, QueryClass::Tree, 8, 1, 72)
        .into_iter()
        .next()
        .expect("tree query");
    let mut g = d.graph.clone();
    let ups = gamma_datasets::split_insertion_workload(&mut g, 0.10, 73);
    let mut cfg = GammaConfig::default();
    cfg.collect_matches = false;
    let mut engine = GammaEngine::new(g, &q, cfg);
    let r = engine.apply_batch(&ups);
    let k = &r.stats.kernel;
    assert!(k.buf_reuse > 0, "pool never reused");
    assert!(
        k.buf_reuse >= 4 * k.buf_alloc,
        "steady state not allocation-free: reuse={} alloc={}",
        k.buf_reuse,
        k.buf_alloc
    );
}

#[test]
fn bitmap_intersect_toggle_preserves_exact_results() {
    // The chunked path's u64-signature prefilter is an exact reject (a
    // clear bit proves absence), so forcing it on/off must be invisible in
    // the results: identical positive/negative counts AND an identical
    // collected match multiset, across dense and sparse query classes.
    for preset in [DatasetPreset::GH, DatasetPreset::AZ] {
        let d = preset.build(0.08, 81);
        for class in QueryClass::ALL {
            for q in generate_queries(&d.graph, class, 6, 2, 82) {
                let mut g = d.graph.clone();
                let ups = gamma_datasets::split_insertion_workload(&mut g, 0.08, 83);
                let run = |bitmap: bool| {
                    let mut cfg = GammaConfig::default();
                    cfg.bitmap_intersect = bitmap;
                    let mut engine = GammaEngine::new(g.clone(), &q, cfg);
                    let mut r = engine.apply_batch(&ups);
                    r.positive.sort_unstable();
                    (r.positive_count, r.negative_count, r.positive)
                };
                let (on_p, on_n, on_m) = run(true);
                let (off_p, off_n, off_m) = run(false);
                assert_eq!(on_p, off_p, "positive count drift ({class:?})");
                assert_eq!(on_n, off_n, "negative count drift ({class:?})");
                assert_eq!(on_m, off_m, "match multiset drift ({class:?})");
            }
        }
    }
}

#[test]
fn engine_abort_flag_stops_everything() {
    // A pre-set abort aborts instantly; the engine reports timed_out.
    let d = DatasetPreset::GH.build(0.05, 56);
    let queries = generate_queries(&d.graph, QueryClass::Sparse, 5, 1, 57);
    let q = &queries[0];
    let mut g = d.graph.clone();
    let ups = gamma_datasets::split_insertion_workload(&mut g, 0.05, 58);
    let mut cfg = GammaConfig::default();
    cfg.device.stealing = StealingMode::Active;
    cfg.timeout = Some(std::time::Duration::ZERO);
    let mut engine = GammaEngine::new(g.clone(), q, cfg.clone());
    let r = engine.apply_batch(&ups);
    assert!(r.stats.timed_out);

    // Every view of the one batch pipeline honours the same deadline.
    let mut reg = QueryRegistry::new(g.clone(), cfg.clone());
    reg.register(q, QueryConfig::default());
    assert!(reg.apply_batch(&ups).timed_out, "registry");
    let sharded = ShardedConfig {
        base: cfg,
        ..ShardedConfig::default()
    };
    let mut engine = ShardedEngine::new(g.clone(), q, sharded.clone());
    assert!(engine.apply_batch(&ups).stats.timed_out, "sharded engine");
    let mut reg = QueryRegistry::sharded(g, &sharded);
    reg.register(q, QueryConfig::default());
    assert!(reg.apply_batch(&ups).timed_out, "sharded registry");
}

#[test]
fn timeout_edges_on_every_view() {
    // `Duration::MAX` cannot be added to a clock reading, so it is no
    // deadline at all; a deadline that has already passed when the first
    // kernel step polls it trips `timed_out` on every run, not only when a
    // timer happens to win a race against the kernel.
    let d = DatasetPreset::GH.build(0.05, 56);
    let queries = generate_queries(&d.graph, QueryClass::Sparse, 5, 1, 57);
    let q = &queries[0];
    let other = &generate_queries(&d.graph, QueryClass::Dense, 4, 1, 59)[0];
    let mut g = d.graph.clone();
    let inserts = gamma_datasets::split_insertion_workload(&mut g, 0.05, 58);
    let deletes: Vec<Update> = inserts.iter().map(|u| Update::delete(u.u, u.v)).collect();
    // A timed-out batch leaves the store and every table in place, so the
    // batch after it runs.
    let batches = [inserts, deletes];
    const VIEWS: usize = 5;
    // (positive, negative, timed_out) per batch, on each view.
    let run = |timeout: Option<Duration>| -> Vec<(u64, u64, bool)> {
        let mut cfg = GammaConfig::default();
        cfg.timeout = timeout;
        let sharded = ShardedConfig {
            base: cfg.clone(),
            ..ShardedConfig::default()
        };
        let mut out = Vec::new();
        let mut engine = GammaEngine::new(g.clone(), q, cfg.clone());
        let mut reg = QueryRegistry::new(g.clone(), cfg.clone());
        let id = reg.register(q, QueryConfig::default());
        let mut sengine = ShardedEngine::new(g.clone(), q, sharded.clone());
        let mut sreg = QueryRegistry::sharded(g.clone(), &sharded);
        let sid = sreg.register(q, QueryConfig::default());
        // Two groups in one launch call per phase: `q` twice (one launch
        // of `q` for both subscribers) and a pattern of its own.
        let mut greg = QueryRegistry::new(g.clone(), cfg);
        let gid = greg.register(q, QueryConfig::default());
        greg.register(q, QueryConfig::default());
        greg.register(other, QueryConfig::default());
        assert_eq!(
            greg.groups().iter().map(Vec::len).collect::<Vec<_>>(),
            [2, 1]
        );
        for b in &batches {
            let r = engine.apply_batch(b);
            out.push((r.positive_count, r.negative_count, r.stats.timed_out));
            let r = reg.apply_batch(b);
            let dq = r.delta(id).expect("registered");
            out.push((dq.positive_count, dq.negative_count, r.timed_out));
            let r = sengine.apply_batch(b);
            out.push((r.positive_count, r.negative_count, r.stats.timed_out));
            let r = sreg.apply_batch(b);
            let dq = r.delta(sid).expect("registered");
            out.push((dq.positive_count, dq.negative_count, r.timed_out));
            let r = greg.apply_batch(b);
            let dq = r.delta(gid).expect("registered");
            out.push((dq.positive_count, dq.negative_count, r.timed_out));
        }
        out
    };
    let none = run(None);
    assert!(none.iter().all(|&(_, _, t)| !t), "{none:?}");
    assert!(
        none[0].0 > 0 && none[VIEWS].1 > 0,
        "the batches must match: {none:?}"
    );
    for batch in none.chunks(VIEWS) {
        assert!(
            batch.iter().all(|v| v == &batch[0]),
            "views disagree: {none:?}"
        );
    }
    assert_eq!(run(Some(Duration::MAX)), none, "Duration::MAX");
    for timeout in [Duration::ZERO, Duration::from_nanos(1)] {
        for (i, &(_, _, t)) in run(Some(timeout)).iter().enumerate() {
            assert!(
                t,
                "batch {} on view {} ran past {timeout:?}",
                i / VIEWS,
                i % VIEWS
            );
        }
    }
}
