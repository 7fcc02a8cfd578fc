//! Property tests for the standing-query serving tier: under a random
//! interleaving of `register` / `unregister` / `apply_batch` operations,
//! every live subscription's delta stream must equal that of a dedicated
//! [`GammaEngine`] spawned from the registry's graph at registration time.
//!
//! This is the mid-stream churn property the fixed-preset matrix in
//! `tests/registry_parity.rs` cannot cover: registrations land between
//! batches (so their baseline graph is a moving target), unregistrations
//! force group rebuilds and encoder tombstoning, and duplicate patterns
//! enter and leave shared groups while batches keep flowing.

use gamma_core::registry::{QueryConfig, QueryId, QueryRegistry};
use gamma_core::{GammaConfig, GammaEngine, StealingMode};
use gamma_datasets::QueryClass;
use gamma_gpu::DeviceConfig;
use gamma_graph::{DynamicGraph, QueryGraph, Update, VMatch, NO_ELABEL};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn test_config() -> GammaConfig {
    let mut cfg = GammaConfig {
        device: DeviceConfig::single_sm(),
        ..GammaConfig::default()
    };
    cfg.device.stealing = StealingMode::Active;
    cfg
}

fn sorted(mut ms: Vec<VMatch>) -> Vec<VMatch> {
    ms.sort_unstable();
    ms
}

/// Random labeled graph plus a pool of extractable query patterns
/// (duplicated, so register picks collide and exercise grouping).
fn random_instance(seed: u64) -> (DynamicGraph, Vec<QueryGraph>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(10..26);
    let labels = rng.random_range(1..4u16);
    let mut g = DynamicGraph::new();
    for _ in 0..n {
        g.add_vertex(rng.random_range(0..labels));
    }
    let edges = rng.random_range(2 * n..5 * n);
    for _ in 0..edges {
        let u = rng.random_range(0..n) as u32;
        let v = rng.random_range(0..n) as u32;
        if u != v {
            g.insert_edge(u, v, NO_ELABEL);
        }
    }
    let mut pool = Vec::new();
    for class in [QueryClass::Tree, QueryClass::Sparse, QueryClass::Dense] {
        let size = rng.random_range(3..6);
        if let Some(q) = gamma_datasets::generate_query(&g, class, size, &mut rng) {
            pool.push(q);
        }
    }
    if pool.is_empty() {
        let mut b = QueryGraph::builder();
        let x = b.vertex(0);
        let y = b.vertex(0);
        let z = b.vertex(0);
        b.edge(x, y).edge(y, z).edge(x, z);
        pool.push(b.build());
    }
    // Duplicate the pool so random picks collide into shared groups.
    let dups: Vec<QueryGraph> = pool.clone();
    pool.extend(dups);
    (g, pool, rng)
}

fn random_batch(rng: &mut StdRng, n: usize) -> Vec<Update> {
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
    raw
}

fn check_churn_sequence(seed: u64) -> Result<(), String> {
    let (g, pool, mut rng) = random_instance(seed);
    let n = g.num_vertices();
    let mut reg = QueryRegistry::new(g.clone(), test_config());
    let mut live: Vec<(QueryId, GammaEngine)> = Vec::new();

    // Seed with one subscription so the first batches are never vacuous.
    let q0 = &pool[0];
    let id0 = reg.register(q0, QueryConfig::default());
    live.push((id0, GammaEngine::new(g.clone(), q0, test_config())));

    let steps = rng.random_range(4..9);
    for step in 0..steps {
        // Maybe register: the reference engine starts from the registry's
        // *current* graph — the contract for mid-stream registration.
        if live.len() < 6 && rng.random_bool(0.5) {
            let q = &pool[rng.random_range(0..pool.len())];
            let id = reg.register(q, QueryConfig::default());
            live.push((id, GammaEngine::new(reg.graph().clone(), q, test_config())));
        }
        // Maybe unregister a random live subscription.
        if live.len() > 1 && rng.random_bool(0.3) {
            let victim = rng.random_range(0..live.len());
            let (id, _) = live.remove(victim);
            if !reg.unregister(id) {
                return Err(format!("step {step}: unregister({id:?}) returned false"));
            }
        }
        // Sanity on the registry's bookkeeping after churn.
        if reg.num_queries() != live.len() {
            return Err(format!(
                "step {step}: registry holds {} queries, harness holds {}",
                reg.num_queries(),
                live.len()
            ));
        }

        let raw = random_batch(&mut rng, n);
        let r = reg.apply_batch(&raw);
        if r.deltas.len() != live.len() {
            return Err(format!(
                "step {step}: got {} deltas for {} live queries",
                r.deltas.len(),
                live.len()
            ));
        }
        for (id, engine) in &mut live {
            let d = r
                .delta(*id)
                .ok_or_else(|| format!("step {step}: no delta for live {id:?}"))?;
            let e = engine.apply_batch(&raw);
            if d.positive_count != e.positive_count || d.negative_count != e.negative_count {
                return Err(format!(
                    "step {step} {id:?}: counts (+{} -{}) vs engine (+{} -{})",
                    d.positive_count, d.negative_count, e.positive_count, e.negative_count
                ));
            }
            if sorted(d.positive.clone()) != sorted(e.positive.clone()) {
                return Err(format!("step {step} {id:?}: positive match sets diverge"));
            }
            if sorted(d.negative.clone()) != sorted(e.negative.clone()) {
                return Err(format!("step {step} {id:?}: negative match sets diverge"));
            }
        }
        // Host mirrors must agree after every batch.
        let want = live[0].1.graph().num_edges();
        if reg.graph().num_edges() != want {
            return Err(format!(
                "step {step}: registry graph has {} edges, engine has {want}",
                reg.graph().num_edges()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn registry_tracks_dedicated_engines_under_churn(seed in 0u64..10_000) {
        if let Err(e) = check_churn_sequence(seed) {
            return Err(TestCaseError::fail(e));
        }
    }
}
