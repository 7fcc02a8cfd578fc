//! Standing queries: the serving tier that keeps N registered patterns
//! continuously matched against one evolving graph.
//!
//! A [`QueryRegistry`] owns the data graph and its device-resident store.
//! Clients `register` patterns and get back a [`QueryId`]; every
//! `apply_batch` then runs the batch **once** — one structural update, one
//! re-encoding pass, and one kernel grid per *group*, the subscriptions of
//! one pattern, all grids of a phase in one launch call — and routes a
//! per-query match delta to every subscription. A group launches its
//! pattern once, so serving many subscribers to one pattern costs barely
//! more than serving one.
//!
//! The delta each subscription receives is bit-identical to what a
//! dedicated [`GammaEngine`] running that pattern alone would report —
//! pinned by `tests/registry_parity.rs` across the preset matrix.
//!
//! Run with: `cargo run --release --example standing_queries`

use gamma::prelude::*;

fn main() {
    // A synthetic GitHub-shaped dataset, small enough to read the numbers.
    let dataset = DatasetPreset::GH.build(0.06, 7);
    let graph = dataset.graph;

    // Three standing patterns: a dense clique-ish motif, a sparse path
    // motif, and a *duplicate* of the dense one (a second subscriber to
    // the same alert — the registry serves both from one shared group).
    let dense = gamma::datasets::generate_queries(&graph, QueryClass::Dense, 4, 1, 1234)
        .pop()
        .expect("dense query extractable");
    let sparse = gamma::datasets::generate_queries(&graph, QueryClass::Sparse, 4, 1, 4321)
        .pop()
        .expect("sparse query extractable");

    let mut registry = QueryRegistry::new(graph.clone(), GammaConfig::default());
    let alerts_team = registry.register(&dense, QueryConfig::default());
    let analytics = registry.register(&sparse, QueryConfig::default());
    let audit_team = registry.register(&dense, QueryConfig::default());

    println!(
        "registered {} standing queries in {} kernel groups",
        registry.num_queries(),
        registry.group_count()
    );
    assert_eq!(
        registry.group_count(),
        2,
        "the duplicate dense subscriptions share one group"
    );

    // A churn stream: delete 8% of live edges, then re-insert them.
    let deletes = gamma::datasets::sample_deletion_workload(&graph, 0.08, 99);
    let inserts: Vec<Update> = deletes
        .iter()
        .map(|u| {
            let label = graph.edge_label(u.u, u.v).expect("live edge");
            Update::insert_labeled(u.u, u.v, label)
        })
        .collect();

    for (name, batch) in [("delete", &deletes), ("re-insert", &inserts)] {
        let r = registry.apply_batch(batch);
        println!("\nbatch `{name}` ({} updates):", batch.len());
        for (label, id) in [
            ("alerts", alerts_team),
            ("analytics", analytics),
            ("audit", audit_team),
        ] {
            let d = r.delta(id).expect("registered id has a delta");
            println!(
                "  {label:>9}: +{} / -{} matches",
                d.positive_count, d.negative_count
            );
        }
        // Duplicate subscriptions receive identical deltas from the
        // shared launch.
        let a = r.delta(alerts_team).expect("delta");
        let b = r.delta(audit_team).expect("delta");
        assert_eq!(a.positive_count, b.positive_count);
        assert_eq!(a.negative_count, b.negative_count);
    }

    // Unregistering one duplicate keeps the other subscription live.
    assert!(registry.unregister(audit_team));
    let r = registry.apply_batch(&deletes);
    assert!(r.delta(audit_team).is_none());
    assert!(r.delta(alerts_team).is_some());
    println!(
        "\nafter unregister: {} queries in {} groups",
        registry.num_queries(),
        registry.group_count()
    );

    // Per-subscription telemetry accumulates across the stream.
    let st = registry.stats(alerts_team).expect("stats");
    println!(
        "alerts telemetry: {} batches, {} positive / {} negative total",
        st.batches, st.positive_total, st.negative_total
    );
}
