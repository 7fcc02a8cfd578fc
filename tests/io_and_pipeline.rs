//! Integration tests for the I/O formats and the asynchronous pipeline on
//! dataset-scale workloads, plus metrics validation of the preset shapes.

use gamma::engine::PipelinedEngine;
use gamma::graph::io;
use gamma::graph::metrics;
use gamma::prelude::*;

#[test]
fn dataset_roundtrips_through_text_format() {
    let d = DatasetPreset::NF.build(0.1, 61);
    let mut buf = Vec::new();
    io::write_graph(&d.graph, &mut buf).unwrap();
    let g2 = io::read_graph(&buf[..]).unwrap();
    assert_eq!(g2.num_vertices(), d.graph.num_vertices());
    assert_eq!(g2.num_edges(), d.graph.num_edges());
    for (u, v, l) in d.graph.edges() {
        assert_eq!(g2.edge_label(u, v), Some(l));
    }

    // Queries and update streams too.
    let queries = gamma::datasets::generate_queries(&d.graph, QueryClass::Tree, 5, 2, 62);
    for q in &queries {
        let mut qb = Vec::new();
        io::write_query(q, &mut qb).unwrap();
        let q2 = io::read_query(&qb[..]).unwrap();
        assert_eq!(q2.edges(), q.edges());
        assert_eq!(q2.labels(), q.labels());
    }
    let mut g = d.graph.clone();
    let ups = gamma::datasets::mixed_workload(&mut g, 0.05, 63);
    let mut ub = Vec::new();
    io::write_updates(&ups, &mut ub).unwrap();
    assert_eq!(io::read_updates(&ub[..]).unwrap(), ups);
}

#[test]
fn preset_metrics_match_table2_shapes() {
    // The generators must actually deliver the shape parameters
    // `DatasetPreset` promises (Table II analogues: the paper's average
    // degree and label alphabets).
    let checks = [
        (DatasetPreset::GH, 15.3, 5usize, 1usize),
        (DatasetPreset::NF, 2.0, 1, 7),
        (DatasetPreset::LS, 8.2, 1, 44),
    ];
    for (preset, avg_deg, vlabels, elabels) in checks {
        let d = preset.build(0.3, 64);
        let m = metrics(&d.graph);
        assert!(
            (m.avg_degree - avg_deg).abs() < 0.3,
            "{}: avg degree {} vs {}",
            preset.name(),
            m.avg_degree,
            avg_deg
        );
        assert!(m.label_histogram.len() <= vlabels, "{}", preset.name());
        assert!(m.edge_label_histogram.len() <= elabels, "{}", preset.name());
        // Power-law skew present: hubs well above average.
        assert!(
            m.max_degree as f64 > 3.0 * m.avg_degree,
            "{}",
            preset.name()
        );
        assert!(
            m.degree_gini > 0.2,
            "{}: gini {}",
            preset.name(),
            m.degree_gini
        );
    }
}

#[test]
fn pipeline_processes_a_batch_stream_on_dataset() {
    let d = DatasetPreset::GH.build(0.06, 66);
    let queries = gamma::datasets::generate_queries(&d.graph, QueryClass::Sparse, 5, 1, 67);
    let q = &queries[0];

    // Build a stream of three disjoint insertion batches by carving edges
    // off the generated graph.
    let mut g0 = d.graph.clone();
    let b1 = gamma::datasets::split_insertion_workload(&mut g0, 0.04, 1);
    let mut g1 = g0.clone();
    let b2 = gamma::datasets::split_insertion_workload(&mut g1, 0.04, 2);
    let mut g2 = g1.clone();
    let b3 = gamma::datasets::split_insertion_workload(&mut g2, 0.04, 3);
    // Stream order restores them: g2 + b3 -> g1, + b2 -> g0, + b1 -> full.
    let stream = [b3, b2, b1];

    // Synchronous reference.
    let mut sync_engine = GammaEngine::new(g2.clone(), q, GammaConfig::default());
    let sync_counts: Vec<u64> = stream
        .iter()
        .map(|b| sync_engine.apply_batch(b).positive_count)
        .collect();

    // Pipelined.
    let mut pipe = PipelinedEngine::new(g2, q, GammaConfig::default(), 2);
    for b in &stream {
        pipe.submit(b.clone());
    }
    let outs = pipe.finish();
    assert_eq!(outs.len(), 3);
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(out.seq, i as u64);
        assert_eq!(
            out.result.positive_count, sync_counts[i],
            "batch {i} count divergence"
        );
    }
    // The final graph state equals the original dataset graph.
    assert_eq!(sync_engine.graph().num_edges(), d.graph.num_edges());
}
