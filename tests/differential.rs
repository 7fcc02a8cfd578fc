//! Differential test harness: every engine in the workspace must agree
//! with the exhaustive-enumeration oracle on every batch delta.
//!
//! Seeded dynamic workloads — dataset presets × query classes × batched
//! insert / delete / Zipf-skewed churn streams — are replayed through
//!
//! * [`GammaEngine`] under multiple `StealingMode`s, and in count-only
//!   mode (`collect_matches` off: its counts are checked),
//! * [`PipelinedEngine`] (asynchronous three-stage pipeline),
//! * [`ShardedEngine`] at 1, 2 and 4 simulated devices (hash and greedy
//!   partitions, both inter-device stealing modes — embedding migration
//!   and cross-shard stealing run under the same oracle as everything
//!   else — and a 4-shard count-only cell, whose counts are checked), and
//! * the sequential CSM baselines (`TurboFluxLite`, `RapidFlowLite`),
//!
//! and after **every** batch each engine's positive/negative incremental
//! match sets must equal the snapshot diff `matches(G') − matches(G)` /
//! `matches(G) − matches(G')` computed by `enumerate_matches`. Engines are
//! long-lived across batches, so incremental state maintenance (dirty
//! vertex re-encoding, candidate index repair, GPMA updates) is what is
//! actually under test — exactly how GSI and the CSM papers validate
//! incremental deltas.

use std::collections::BTreeMap;

use gamma::csm::{CsmEngine, RapidFlowLite, TurboFluxLite};
use gamma::datasets::{
    sample_deletion_workload, split_insertion_workload, DatasetPreset, QueryClass, Zipf,
};
use gamma::engine::{
    GammaConfig, GammaEngine, PartitionStrategy, PipelinedEngine, ShardStealing, ShardedConfig,
    ShardedEngine, StealingMode,
};
use gamma::gpu::DeviceConfig;
use gamma::graph::{enumerate_matches, DynamicGraph, QueryGraph, Update, UpdateBatch, VMatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sorted, deduplicated full match set (the oracle's snapshot view).
fn all_matches(g: &DynamicGraph, q: &QueryGraph) -> Vec<VMatch> {
    let mut ms = enumerate_matches(g, q, None);
    ms.sort_unstable();
    ms.dedup();
    ms
}

/// Set difference `a − b` over sorted slices.
fn diff(a: &[VMatch], b: &[VMatch]) -> Vec<VMatch> {
    a.iter()
        .filter(|m| b.binary_search(m).is_err())
        .copied()
        .collect()
}

/// Sorts an engine's reported delta and rejects duplicates.
fn sorted_unique(mut ms: Vec<VMatch>, engine: &str, side: &str) -> Vec<VMatch> {
    ms.sort_unstable();
    assert!(
        ms.windows(2).all(|w| w[0] != w[1]),
        "{engine}: duplicate {side} matches reported"
    );
    ms
}

fn assert_delta(
    engine: &str,
    context: &str,
    got_pos: Vec<VMatch>,
    got_neg: Vec<VMatch>,
    want_pos: &[VMatch],
    want_neg: &[VMatch],
) {
    let got_pos = sorted_unique(got_pos, engine, "positive");
    let got_neg = sorted_unique(got_neg, engine, "negative");
    assert_eq!(
        got_pos, want_pos,
        "{engine} positive delta diverges from oracle at {context}"
    );
    assert_eq!(
        got_neg, want_neg,
        "{engine} negative delta diverges from oracle at {context}"
    );
}

/// One synchronous GAMMA engine variant under test.
struct GammaVariant {
    name: &'static str,
    engine: GammaEngine,
}

/// One sequential CSM baseline under test. Updates are fed one at a time
/// (the sequential regime) and per-update deltas are folded into a net
/// batch delta: a match created then destroyed inside one batch cancels,
/// matching the canonicalized semantics of Definition 1.
struct CsmVariant {
    name: &'static str,
    engine: Box<dyn CsmEngine>,
}

impl CsmVariant {
    fn apply_batch(&mut self, raw: &[Update]) -> (Vec<VMatch>, Vec<VMatch>) {
        let mut net: BTreeMap<VMatch, i32> = BTreeMap::new();
        for &u in raw {
            let r = self.engine.apply_update(u);
            for m in r.positive {
                *net.entry(m).or_default() += 1;
            }
            for m in r.negative {
                *net.entry(m).or_default() -= 1;
            }
        }
        for (m, c) in &net {
            assert!(
                c.abs() <= 1,
                "{}: match {m:?} net count {c} — an embedding flipped \
                 presence more often than its edges changed",
                self.name
            );
        }
        let pos = net
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(m, _)| *m)
            .collect();
        let neg = net
            .iter()
            .filter(|(_, &c)| c < 0)
            .map(|(m, _)| *m)
            .collect();
        (pos, neg)
    }
}

fn gamma_config(stealing: StealingMode) -> GammaConfig {
    let mut cfg = GammaConfig {
        device: DeviceConfig::single_sm(),
        ..GammaConfig::default()
    };
    cfg.device.stealing = stealing;
    cfg.device.min_steal_hint = 2; // make stealing actually fire on small work
    cfg
}

/// Builds the batched workload for one `(dataset, query)` pair:
/// two insertion batches (edges removed from the generated graph, so the
/// insertions are distributionally real), one deletion batch over live
/// edges, and one Zipf-skewed churn batch mixing inserts and deletes on
/// hub-biased endpoints. Returns the start graph and the batch sequence.
fn build_workload(dataset: &mut DynamicGraph, seed: u64) -> Vec<Vec<Update>> {
    let mut batches = Vec::new();

    // Insertion stream: carve 12% of edges out of the graph and replay
    // them in two batches.
    let inserts = split_insertion_workload(dataset, 0.12, seed);
    let half = inserts.len().div_ceil(2).max(1);
    for chunk in inserts.chunks(half) {
        batches.push(chunk.to_vec());
    }

    // Deletion batch: sample 6% of the *current* (post-carve) live edges.
    // The replay below applies batches in order, so by the time this batch
    // runs the insertions have landed again; deleting edges that survived
    // the carve keeps every deletion valid regardless.
    let deletes = sample_deletion_workload(dataset, 0.06, seed ^ 0xdead);
    if !deletes.is_empty() {
        batches.push(deletes);
    }

    // Zipf-skewed churn: hub-biased random inserts/deletes, the skewed
    // update distribution of the paper's Figure 6 in miniature.
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

/// The harness core: replays `batches` through every engine, checking each
/// batch delta against the oracle. Returns every sharded cell's name and
/// the parts its units split off.
fn run_differential(
    preset: DatasetPreset,
    class: QueryClass,
    scale: f64,
    query_size: usize,
    seed: u64,
) -> Vec<(String, u64)> {
    let dataset = preset.build(scale, seed);
    let mut start = dataset.graph.clone();
    let mut batches = build_workload(&mut start, seed.wrapping_mul(0x9e37));

    let queries = gamma::datasets::generate_queries(&start, class, query_size, 1, seed ^ 0x51_f1ed);
    let Some(q) = queries.first() else {
        panic!(
            "no {} query of size {query_size} extractable from preset {} at scale {scale} — \
             widen the generator parameters",
            class.name(),
            preset.name()
        );
    };

    // Targeted churn, replayed first: delete an edge from each of a few
    // *actual* embeddings (guaranteed negative deltas), then restore those
    // edges with their original labels (guaranteed positive deltas). This
    // keeps the harness non-vacuous even when the random workload misses
    // the handful of embeddings a label-rich preset admits.
    let seed_matches = all_matches(&start, q);
    let mut kill = Vec::new();
    let mut restore = Vec::new();
    let mut targeted = std::collections::BTreeSet::new();
    for m in seed_matches.iter().take(4) {
        let e = q.edges().first().expect("non-empty query");
        let (du, dv) = (
            m.get(e.u).expect("complete match"),
            m.get(e.v).expect("complete match"),
        );
        let label = start.edge_label(du, dv).expect("match uses live edge");
        if targeted.insert((du.min(dv), du.max(dv))) {
            kill.push(Update::delete(du, dv));
            restore.push(Update::insert_labeled(du, dv, label));
        }
    }
    if !kill.is_empty() {
        batches.insert(0, restore);
        batches.insert(0, kill);
    }

    // Engines under test, all starting from the same snapshot.
    let mut gammas = vec![
        GammaVariant {
            name: "gamma[steal=off]",
            engine: GammaEngine::new(start.clone(), q, gamma_config(StealingMode::Off)),
        },
        GammaVariant {
            name: "gamma[steal=active]",
            engine: GammaEngine::new(start.clone(), q, gamma_config(StealingMode::Active)),
        },
        // Count-only launches take the kernel's bulk-count fast paths,
        // where a whole-query coalesced class multiplies its count.
        GammaVariant {
            name: "gamma[count-only]",
            engine: GammaEngine::new(
                start.clone(),
                q,
                GammaConfig {
                    collect_matches: false,
                    ..gamma_config(StealingMode::Active)
                },
            ),
        },
    ];
    let mut csms = vec![
        CsmVariant {
            name: "turboflux",
            engine: Box::new(TurboFluxLite::new(start.clone(), q)),
        },
        CsmVariant {
            name: "rapidflow",
            engine: Box::new(RapidFlowLite::new(start.clone(), q)),
        },
    ];
    let mut pipeline = PipelinedEngine::new(
        start.clone(),
        q,
        gamma_config(StealingMode::Active),
        2, // double-buffered: preprocessing genuinely overlaps device work
    );
    let mut shardeds: Vec<(String, ShardedEngine)> = [1usize, 2, 4]
        .iter()
        .map(|&n| {
            let cfg = ShardedConfig {
                base: gamma_config(StealingMode::Active),
                num_shards: n,
                strategy: PartitionStrategy::Hash,
                stealing: ShardStealing::Active,
                faults: None,
                query_id: 0,
            };
            (
                format!("sharded[{n}]"),
                ShardedEngine::new(start.clone(), q, cfg),
            )
        })
        .collect();
    // Locality-aware partition cells: same oracle, greedy placement. The
    // count-only cell takes the kernel's count-only paths (the last-level
    // count and the parent-frame memo) under migration and batch stealing:
    // its counts are checked, and it must materialize nothing.
    for (n, stealing, collect) in [
        (2usize, ShardStealing::Off, true),
        (4, ShardStealing::Active, true),
        (4, ShardStealing::Active, false),
    ] {
        let cfg = ShardedConfig {
            base: GammaConfig {
                collect_matches: collect,
                ..gamma_config(StealingMode::Active)
            },
            num_shards: n,
            strategy: PartitionStrategy::Greedy,
            stealing,
            faults: None,
            query_id: 0,
        };
        let name = if collect {
            format!("sharded-greedy[{n}]")
        } else {
            format!("sharded-greedy[{n},count-only]")
        };
        shardeds.push((name, ShardedEngine::new(start.clone(), q, cfg)));
    }

    let mut host = start;
    let mut before = all_matches(&host, q);
    let mut total_delta = 0usize;
    for (i, raw) in batches.iter().enumerate() {
        let context = format!(
            "preset {} / class {} / batch {i} ({} updates)",
            preset.name(),
            class.name(),
            raw.len()
        );

        // Oracle: canonicalized snapshot diff.
        let batch = UpdateBatch::canonicalize(&host, raw);
        batch.apply(&mut host);
        let after = all_matches(&host, q);
        let want_pos = diff(&after, &before);
        let want_neg = diff(&before, &after);
        total_delta += want_pos.len() + want_neg.len();

        for v in &mut gammas {
            let r = v.engine.apply_batch(raw);
            assert_eq!(
                r.positive_count,
                want_pos.len() as u64,
                "{} positive_count at {context}",
                v.name
            );
            assert_eq!(
                r.negative_count,
                want_neg.len() as u64,
                "{} negative_count at {context}",
                v.name
            );
            if v.engine.config().collect_matches {
                assert_delta(
                    v.name, &context, r.positive, r.negative, &want_pos, &want_neg,
                );
            } else {
                assert!(
                    r.positive.is_empty() && r.negative.is_empty(),
                    "{} materialized matches at {context}",
                    v.name
                );
            }
            assert_eq!(
                v.engine.graph().num_edges(),
                host.num_edges(),
                "{} host mirror drifted at {context}",
                v.name
            );
        }

        for (name, engine) in &mut shardeds {
            let r = engine.apply_batch(raw);
            assert_eq!(
                r.positive_count,
                want_pos.len() as u64,
                "{name} positive_count at {context}"
            );
            assert_eq!(
                r.negative_count,
                want_neg.len() as u64,
                "{name} negative_count at {context}"
            );
            if engine.config().base.collect_matches {
                assert_delta(name, &context, r.positive, r.negative, &want_pos, &want_neg);
            } else {
                assert!(
                    r.positive.is_empty() && r.negative.is_empty(),
                    "{name} materialized matches at {context}"
                );
            }
            assert_eq!(
                engine.graph().num_edges(),
                host.num_edges(),
                "{name} host mirror drifted at {context}"
            );
        }

        let seq = pipeline.submit(raw.clone());
        let out = pipeline.recv().expect("pipeline alive");
        assert_eq!(out.seq, seq, "pipeline must deliver in submission order");
        assert_delta(
            "pipelined",
            &context,
            out.result.positive,
            out.result.negative,
            &want_pos,
            &want_neg,
        );

        for c in &mut csms {
            let (pos, neg) = c.apply_batch(raw);
            assert_delta(c.name, &context, pos, neg, &want_pos, &want_neg);
            assert_eq!(
                c.engine.graph().num_edges(),
                host.num_edges(),
                "{} graph drifted at {context}",
                c.name
            );
        }

        before = after;
    }
    drop(pipeline.finish());
    // Guard against a vacuous replay: the workloads above must actually
    // create and destroy matches, or the agreement checks prove nothing.
    assert!(
        total_delta > 0,
        "workload for preset {} / class {} produced no match deltas — \
         harness has gone vacuous",
        preset.name(),
        class.name()
    );
    shardeds
        .iter()
        .map(|(name, e)| (name.clone(), e.shard_stats().unit_splits))
        .collect()
}

// ---------------------------------------------------------------------------
// The preset × class matrix. Three presets (GH dense-ish 5-label, AZ
// mid-density 6-label, ST 25-label) × all three query classes, plus an
// edge-labeled preset as a fourth corner. Scales are chosen so the oracle
// stays exhaustive in well under a second per batch.
// ---------------------------------------------------------------------------

#[test]
fn differential_gh_dense() {
    run_differential(DatasetPreset::GH, QueryClass::Dense, 0.04, 4, 101);
}

#[test]
fn differential_gh_sparse() {
    run_differential(DatasetPreset::GH, QueryClass::Sparse, 0.04, 5, 102);
}

/// The Tree query's hub anchors run past the shard split budget, so every
/// sharded cell (device stealing is on in all of them) splits units into
/// parts, and its deltas check the parts too.
#[test]
fn differential_gh_tree() {
    for (name, splits) in run_differential(DatasetPreset::GH, QueryClass::Tree, 0.04, 5, 103) {
        assert!(splits > 0, "{name}: no unit split — vacuous for parts");
    }
}

#[test]
fn differential_az_dense() {
    run_differential(DatasetPreset::AZ, QueryClass::Dense, 0.03, 4, 104);
}

#[test]
fn differential_az_sparse() {
    run_differential(DatasetPreset::AZ, QueryClass::Sparse, 0.03, 5, 105);
}

#[test]
fn differential_az_tree() {
    run_differential(DatasetPreset::AZ, QueryClass::Tree, 0.03, 5, 106);
}

#[test]
fn differential_st_dense() {
    // Seed picked so the extracted dense query has enough embeddings for
    // the workload to actually churn them (ST is label-rich, so dense
    // 4-cliques with matching label sequences are rare at small scale).
    run_differential(DatasetPreset::ST, QueryClass::Dense, 0.03, 4, 106);
}

#[test]
fn differential_st_sparse() {
    run_differential(DatasetPreset::ST, QueryClass::Sparse, 0.02, 5, 108);
}

#[test]
fn differential_st_tree() {
    run_differential(DatasetPreset::ST, QueryClass::Tree, 0.02, 5, 109);
}

/// Edge-labeled corner: the NF shape (single vertex label, 7 edge labels)
/// exercises edge-label matching through the whole stack.
#[test]
fn differential_nf_edge_labeled() {
    run_differential(DatasetPreset::NF, QueryClass::Tree, 0.03, 4, 110);
}
