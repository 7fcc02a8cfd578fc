//! Fuzz of the run-cursor layer the chunked intersection kernel leans on.
//!
//! Two bug classes ride here:
//!
//! * the PR-1 `lower_bound` class — cursor walks across re-segmentation
//!   boundaries and **empty middle segments** (left-compacted by deletes),
//!   where an off-by-one strands the cursor or skips live slots. The store
//!   is driven through delete-heavy batch sequences precisely to mint such
//!   shapes, and `run_seek` is pinned against a naive sorted-list scan —
//!   including cursor state *after* a seek past the end of a run;
//! * the chunked/bitmap intersection (`run_seek_chunk`, `run_signature`)
//!   must be bit-identical with the scalar galloping reference on random
//!   sorted duplicate-free target lists, empty lists, and every chunk-tail
//!   size.

use gamma_gpma::{Gpma, GpmaConfig, RunCursor, CHUNK_WIDTH};
use gamma_graph::ELabel;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Builds a store whose segment geometry went through growth, deletion
/// (left-compaction ⇒ empty middle segments) and re-insertion
/// (re-segmentation), plus the reference adjacency it must agree with.
fn build_churned(
    seed_edges: Vec<(u32, u32, u16)>,
    delete_idx: Vec<usize>,
    reinsert: Vec<(u32, u32, u16)>,
) -> (Gpma, BTreeMap<u32, Vec<(u32, ELabel)>>) {
    let mut pma = Gpma::new(64, GpmaConfig::default());
    let mut reference: BTreeMap<(u32, u32), u16> = BTreeMap::new();
    let ins = |pma: &mut Gpma, refr: &mut BTreeMap<(u32, u32), u16>, edges: &[(u32, u32, u16)]| {
        pma.insert_edges(edges);
        for &(u, v, l) in edges {
            if u != v {
                refr.entry((u.min(v), u.max(v))).or_insert(l);
            }
        }
    };
    ins(&mut pma, &mut reference, &seed_edges);
    // Delete a chosen subset — the left-compaction that mints empty middle
    // segments and stales run heads.
    let keys: Vec<(u32, u32)> = reference.keys().copied().collect();
    let dels: Vec<(u32, u32)> = delete_idx
        .iter()
        .filter_map(|&i| keys.get(i % keys.len().max(1)).copied())
        .collect();
    pma.delete_edges(&dels);
    for d in &dels {
        reference.remove(d);
    }
    ins(&mut pma, &mut reference, &reinsert);
    pma.assert_consistent();
    // Flip the reference into per-vertex sorted adjacency.
    let mut adj: BTreeMap<u32, Vec<(u32, ELabel)>> = BTreeMap::new();
    for (&(u, v), &l) in &reference {
        adj.entry(u).or_default().push((v, l));
        adj.entry(v).or_default().push((u, l));
    }
    for run in adj.values_mut() {
        run.sort_unstable();
    }
    (pma, adj)
}

/// Naive forward-only reference for a run: seeks ascending targets through
/// a sorted `(neighbor, label)` list, mirroring `run_seek`'s contract.
struct NaiveCursor<'a> {
    run: &'a [(u32, ELabel)],
    idx: usize,
}

impl<'a> NaiveCursor<'a> {
    fn new(run: &'a [(u32, ELabel)]) -> Self {
        Self { run, idx: 0 }
    }

    fn seek(&mut self, dst: u32) -> Option<ELabel> {
        while self.idx < self.run.len() && self.run[self.idx].0 < dst {
            self.idx += 1;
        }
        match self.run.get(self.idx) {
            Some(&(v, l)) if v == dst => Some(l),
            _ => None,
        }
    }
}

fn edges_strategy(max_v: u32, n: usize) -> impl Strategy<Value = Vec<(u32, u32, u16)>> {
    prop::collection::vec((0..max_v, 0..max_v, 0u16..4), 0..n)
}

type Churn = (Vec<(u32, u32, u16)>, Vec<usize>, Vec<(u32, u32, u16)>);

/// Seed edges, delete picks, re-insert edges — one generator so the proptest
/// macro sees a single argument per shape.
fn churn_strategy() -> impl Strategy<Value = Churn> {
    (
        edges_strategy(48, 120),
        prop::collection::vec(0usize..256, 0..100),
        edges_strategy(48, 60),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `run_seek` vs the naive scan across churned geometry, including the
    /// exhausted-cursor tail: after a seek past the run's end, every later
    /// seek must keep returning `None` without panicking.
    #[test]
    fn run_seek_matches_naive_scan(
        churn in churn_strategy(),
        probes in prop::collection::vec(0u32..64, 1..40),
    ) {
        let (seed, del, reins) = churn;
        let (pma, adj) = build_churned(seed, del, reins);
        let empty = Vec::new();
        for u in 0..48u32 {
            let run = adj.get(&u).unwrap_or(&empty);
            prop_assert_eq!(pma.degree(u), run.len(), "degree drift at {}", u);
            let mut targets = probes.clone();
            targets.sort_unstable();
            let mut cur = pma.run_cursor(u);
            let mut naive = NaiveCursor::new(run);
            for &t in &targets {
                prop_assert_eq!(
                    pma.run_seek(&mut cur, t),
                    naive.seek(t),
                    "diverged at vertex {} target {}", u, t
                );
            }
            // Seek far past the end, then keep going: the cursor must stay
            // exhausted (the PR-1 stranded-cursor shape).
            prop_assert_eq!(pma.run_seek(&mut cur, u32::MAX - 1), None);
            prop_assert_eq!(pma.run_seek(&mut cur, u32::MAX), None);
        }
    }

    /// The chunked merge must be bit-identical with scalar galloping —
    /// same found mask, same labels, same final cursor — for arbitrary
    /// chunk partitions of the target list (all tail sizes included).
    #[test]
    fn run_seek_chunk_matches_scalar(
        churn in churn_strategy(),
        raw_targets in prop::collection::vec(0u32..64, 0..150),
        chunk_sizes in prop::collection::vec(1usize..=CHUNK_WIDTH, 1..8),
    ) {
        let (seed, del, reins) = churn;
        let (pma, adj) = build_churned(seed, del, reins);
        // Duplicate-free ascending targets (the kernel's invariant).
        let mut targets = raw_targets;
        targets.sort_unstable();
        targets.dedup();
        let empty = Vec::new();
        for u in 0..48u32 {
            let run = adj.get(&u).unwrap_or(&empty);
            let mut scalar_cur = pma.run_cursor(u);
            let mut chunk_cur = pma.run_cursor(u);
            let mut naive = NaiveCursor::new(run);
            let mut off = 0usize;
            let mut sizes = chunk_sizes.iter().copied().cycle();
            while off <= targets.len() {
                let take = sizes.next().expect("cycle never ends").min(targets.len() - off);
                let chunk = &targets[off..off + take];
                let mut labels = [0 as ELabel; CHUNK_WIDTH];
                let mask = pma.run_seek_chunk(&mut chunk_cur, chunk, &mut labels);
                for (i, &t) in chunk.iter().enumerate() {
                    let scalar = pma.run_seek(&mut scalar_cur, t);
                    let naive_hit = naive.seek(t);
                    prop_assert_eq!(scalar, naive_hit, "scalar diverged at {}:{}", u, t);
                    let hit = mask & (1u64 << i) != 0;
                    prop_assert_eq!(hit, scalar.is_some(), "mask diverged at {}:{}", u, t);
                    if hit {
                        prop_assert_eq!(Some(labels[i]), scalar, "label diverged at {}:{}", u, t);
                    }
                }
                if take == 0 {
                    break; // empty-chunk call exercised; nothing consumed
                }
                off += take;
            }
            // Final cursor parity: one more probe behaves identically.
            let t = 63u32;
            prop_assert_eq!(
                pma.run_seek(&mut chunk_cur, t),
                pma.run_seek(&mut scalar_cur, t),
                "post-chunk cursor diverged at {}", u
            );
        }
    }

    /// A clear signature bit must prove absence on every churned shape.
    #[test]
    fn run_signature_is_exact_reject(churn in churn_strategy()) {
        let (seed, del, reins) = churn;
        let (pma, adj) = build_churned(seed, del, reins);
        let bulk = pma.run_signatures();
        let kept = pma.signatures();
        let empty = Vec::new();
        for u in 0..48u32 {
            let sig = pma.run_signature(u);
            prop_assert_eq!(bulk[u as usize], sig, "bulk signature drift at v{}", u);
            prop_assert_eq!(kept[u as usize], sig, "maintained signature drift at v{}", u);
            let run = adj.get(&u).unwrap_or(&empty);
            for &(v, _) in run {
                prop_assert!(sig & (1u64 << (v & 63)) != 0, "live bit clear at {}:{}", u, v);
            }
            for v in 0..64u32 {
                if sig & (1u64 << (v & 63)) == 0 {
                    prop_assert!(!pma.has_edge(u, v), "sig cleared live edge {}:{}", u, v);
                }
            }
        }
    }
}

/// An unused default cursor (e.g. for an isolated vertex) must behave like
/// an exhausted run for both the scalar and the chunked probe.
#[test]
fn default_cursor_is_exhausted() {
    let pma = Gpma::new(4, GpmaConfig::default());
    let mut cur = RunCursor::default();
    assert_eq!(pma.run_seek(&mut cur, 0), None);
    let mut labels = [0 as ELabel; 2];
    assert_eq!(pma.run_seek_chunk(&mut cur, &[0, 1], &mut labels), 0);
    assert_eq!(cur.rem(), 0);
}
