//! The PMA store itself, with a **vertex directory** index over it.
//!
//! # The vertex directory
//!
//! Entries are keyed `(src << 32) | dst`, so a vertex's neighborhood is one
//! contiguous *run* of live slots in global key order (possibly spanning
//! several segments, with segment-tail gaps in between). The directory
//! holds, per vertex, the `(segment, offset)` of the run's **first** live
//! slot; together with the degree cache that pins down the whole run, so
//!
//! * [`Gpma::neighbors_into`] / [`Gpma::for_each_neighbor`] /
//!   [`Gpma::neighbor_run`] scan the run directly — **no segment-tree
//!   descent** — in O(deg) with zero copies for the iterator forms;
//! * [`Gpma::edge_label`] / [`Gpma::has_edge`] resolve through a bounded
//!   galloping search *inside* the smaller endpoint's run
//!   ([`RunCursor`]) instead of a root-to-leaf binary descent;
//! * batch updates filter already-present / missing keys at directory cost
//!   (`O(1)` + run search) and only pay full descents to position **new**
//!   keys, which is reflected in the split `dir_hits` / `descents`
//!   accounting of [`GpmaStats`].
//!
//! ## Maintenance invariants
//!
//! The directory entry of vertex `u` is meaningful only while
//! `degrees[u] > 0`; it then names the slot of `u`'s smallest directed key,
//! i.e. the slot is live, holds a key with source `u`, and its predecessor
//! (previous live slot in segment order) belongs to a different source.
//! Every structural mutation restores this invariant before returning:
//!
//! * `redistribute` (and therefore every insert
//!   merge, grow, shrink and bulk load, which all funnel through it)
//!   re-derives the entries of every run *starting* inside the rewritten
//!   segment range via one linear sweep; runs that merely extend into the
//!   range keep their (untouched) entry, which the sweep detects by
//!   seeding its source tracker with the last live key left of the range.
//! * `batch_delete` refreshes each left-compacted segment the same way and
//!   then *repairs* the entries of deletion-touched sources whose run head
//!   moved past a rewritten segment (checked by `dir_valid`, re-located by
//!   one descent only when actually stale).
//!
//! `assert_consistent` cross-checks the whole directory against a full
//! scan.
//!
//! # Run signatures
//!
//! Beside the degree cache the store keeps every vertex's 64-bit run
//! signature ([`Gpma::run_signature`]), so a kernel phase reads them
//! ([`Gpma::signatures`]) instead of sweeping the array. An insert ORs its
//! bit in; `batch_delete` recomputes the run of every source it deleted
//! from (a clear bit must prove absence, so a bit cannot simply be
//! dropped); only the passes that already touch every key — bulk load,
//! grow (`rebuild_with`) and snapshot restore — rebuild all of them.
//! Redistributions move keys but never change a run's key set, so they
//! leave the signatures alone.

use gamma_gpu::CostModel;
use gamma_graph::{DynamicGraph, ELabel, VertexId};

use crate::EMPTY;

/// Configuration of the PMA and its simulated-GPU cost accounting.
#[derive(Clone, Debug)]
pub struct GpmaConfig {
    /// Leaf segment size in slots (power of two).
    pub seg_size: usize,
    /// Number of top tree layers held in simulated shared memory during
    /// segment location (§V-C optimization; 0 disables).
    pub top_layers_cached: usize,
    /// Cooperative-Group sub-warp sizing for small segments (§V-C).
    pub cg_subwarps: bool,
    /// Leaf upper density threshold.
    pub tau_leaf: f64,
    /// Root upper density threshold.
    pub tau_root: f64,
    /// Leaf lower density threshold.
    pub rho_leaf: f64,
    /// Root lower density threshold.
    pub rho_root: f64,
    /// Fill fraction targeted right after a grow/bulk-load redistribution.
    pub bulk_fill: f64,
    /// Cycle cost model (shared with the device executing the kernels).
    pub cost: CostModel,
    /// Threads per warp for coalescing arithmetic.
    pub warp_size: u32,
}

impl Default for GpmaConfig {
    fn default() -> Self {
        Self {
            seg_size: 32,
            top_layers_cached: 3,
            cg_subwarps: true,
            tau_leaf: 0.92,
            tau_root: 0.70,
            rho_leaf: 0.08,
            rho_root: 0.30,
            bulk_fill: 0.55,
            cost: CostModel::default(),
            warp_size: 32,
        }
    }
}

/// Counters describing the work a batch performed, including the simulated
/// cycles the equivalent GPU kernels would take (feeds Figure 12).
#[derive(Clone, Copy, Debug, Default)]
pub struct GpmaStats {
    /// Update batches processed.
    pub batches: u64,
    /// Directed entries inserted.
    pub inserted: u64,
    /// Directed entries deleted.
    pub deleted: u64,
    /// Updates skipped (duplicate insert / missing delete).
    pub skipped: u64,
    /// Node redistributions performed.
    pub rebalances: u64,
    /// Capacity doublings.
    pub grows: u64,
    /// Capacity halvings.
    pub shrinks: u64,
    /// Total simulated cycles across batches.
    pub sim_cycles: u64,
    /// Portion of `sim_cycles` spent locating leaf segments.
    pub locate_cycles: u64,
    /// Portion of `sim_cycles` spent merging/redistributing.
    pub rebalance_cycles: u64,
    /// Key lookups resolved through the vertex directory (constant cost).
    pub dir_hits: u64,
    /// Full segment-tree descents (fresh-key positioning, stale-entry
    /// repair) — the height-dependent cost the directory avoids.
    pub descents: u64,
}

/// A packed-memory-array edge store over directed entries
/// `(src << 32) | dst`, with a parallel edge-label array.
///
/// Both directions of an undirected edge are stored, so a vertex's
/// neighborhood is the contiguous key range `[src<<32, (src+1)<<32)` — one
/// coalesced range scan on the simulated GPU.
#[derive(Clone, Debug)]
pub struct Gpma {
    keys: Vec<u64>,
    vals: Vec<ELabel>,
    /// Number of live elements per segment (left-compacted within segment).
    seg_counts: Vec<u32>,
    num_elems: usize,
    degrees: Vec<u32>,
    /// Per-vertex run signatures, maintained beside `degrees` (see the
    /// module docs).
    sigs: Vec<u64>,
    /// Vertex directory: position of each vertex's first directed entry
    /// (meaningful only while the vertex's degree is non-zero; see the
    /// module docs for the maintenance invariants).
    dir: Vec<DirEnt>,
    cfg: GpmaConfig,
    stats: GpmaStats,
}

/// One vertex-directory slot: `(segment, offset)` of the run head.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct DirEnt {
    seg: u32,
    off: u32,
}

/// A resumable, forward-only cursor into one vertex's neighbor run, used
/// for monotone membership probes (galloping intersection). Plain indices —
/// `Copy`, no borrow of the store — so callers can keep one per backward
/// edge on the stack; all methods live on [`Gpma`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunCursor {
    seg: u32,
    off: u32,
    /// Entries of the run at or after `(seg, off)`.
    rem: u32,
}

impl RunCursor {
    /// Entries of the run not yet consumed by seeks. The before/after
    /// difference across an intersection is the span the cursor actually
    /// walked — what the skew-aware chunked cost model charges for.
    #[inline]
    pub fn rem(&self) -> u32 {
        self.rem
    }
}

/// Zero-copy iterator over a vertex's sorted neighbor run (see
/// [`Gpma::neighbor_run`]).
pub struct NeighborRun<'a> {
    keys: &'a [u64],
    vals: &'a [ELabel],
    seg_counts: &'a [u32],
    seg_size: usize,
    seg: usize,
    off: usize,
    rem: usize,
}

impl Iterator for NeighborRun<'_> {
    type Item = (VertexId, ELabel);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, ELabel)> {
        if self.rem == 0 {
            return None;
        }
        while self.off >= self.seg_counts[self.seg] as usize {
            self.seg += 1;
            self.off = 0;
        }
        let idx = self.seg * self.seg_size + self.off;
        self.off += 1;
        self.rem -= 1;
        Some((self.keys[idx] as VertexId, self.vals[idx]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.rem, Some(self.rem))
    }
}

impl ExactSizeIterator for NeighborRun<'_> {}

impl Gpma {
    /// Creates an empty store able to address `num_vertices` vertices.
    pub fn new(num_vertices: usize, cfg: GpmaConfig) -> Self {
        assert!(
            cfg.seg_size.is_power_of_two(),
            "seg_size must be a power of two"
        );
        let capacity = cfg.seg_size;
        Self {
            keys: vec![EMPTY; capacity],
            vals: vec![0; capacity],
            seg_counts: vec![0; 1],
            num_elems: 0,
            degrees: vec![0; num_vertices],
            sigs: vec![0; num_vertices],
            dir: vec![DirEnt::default(); num_vertices],
            cfg,
            stats: GpmaStats::default(),
        }
    }

    /// Bulk-loads a [`DynamicGraph`] (both directions of every edge).
    pub fn from_graph(g: &DynamicGraph, cfg: GpmaConfig) -> Self {
        let mut items: Vec<(u64, ELabel)> = Vec::with_capacity(2 * g.num_edges());
        for (u, v, l) in g.edges() {
            items.push(((u as u64) << 32 | v as u64, l));
            items.push(((v as u64) << 32 | u as u64, l));
        }
        items.sort_unstable_by_key(|&(k, _)| k);
        let mut pma = Self::new(g.num_vertices(), cfg);
        pma.rebuild_with(items);
        pma
    }

    /// Ensures vertex ids up to `n - 1` are addressable.
    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.degrees.len() {
            self.degrees.resize(n, 0);
            self.sigs.resize(n, 0);
            self.dir.resize(n, DirEnt::default());
        }
    }

    /// Number of addressable vertices.
    pub fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    /// Number of undirected edges stored.
    pub fn num_edges(&self) -> usize {
        debug_assert_eq!(self.num_elems % 2, 0);
        self.num_elems / 2
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.degrees[u as usize] as usize
    }

    /// Total slot capacity (for density/occupancy inspection).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &GpmaStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = GpmaStats::default();
    }

    // ------------------------------------------------------------------
    // Geometry helpers
    // ------------------------------------------------------------------

    #[inline]
    fn seg_size(&self) -> usize {
        self.cfg.seg_size
    }

    #[inline]
    fn num_segments(&self) -> usize {
        self.keys.len() / self.cfg.seg_size
    }

    /// Tree height: level 0 = leaves, level `height` = root.
    #[inline]
    fn height(&self) -> usize {
        self.num_segments().trailing_zeros() as usize
    }

    /// Upper density threshold at `level` (leaf = loosest, root = tightest).
    fn tau(&self, level: usize) -> f64 {
        let h = self.height();
        if h == 0 {
            return self.cfg.tau_leaf;
        }
        self.cfg.tau_leaf + (self.cfg.tau_root - self.cfg.tau_leaf) * level as f64 / h as f64
    }

    /// Lower density threshold at `level`.
    fn rho(&self, level: usize) -> f64 {
        let h = self.height();
        if h == 0 {
            return 0.0; // a single segment may be arbitrarily empty
        }
        self.cfg.rho_leaf + (self.cfg.rho_root - self.cfg.rho_leaf) * level as f64 / h as f64
    }

    /// Live elements in segment range `[s0, s1)`.
    fn count_range(&self, s0: usize, s1: usize) -> usize {
        self.seg_counts[s0..s1].iter().map(|&c| c as usize).sum()
    }

    // ------------------------------------------------------------------
    // Lookup / iteration
    // ------------------------------------------------------------------

    /// First key of segment `s`, walking left over empty segments so the
    /// result is monotone in `s`. Returns 0 for a prefix of empty segments.
    fn effective_first(&self, mut s: usize) -> u64 {
        loop {
            if self.seg_counts[s] > 0 {
                return self.keys[s * self.seg_size()];
            }
            if s == 0 {
                return 0;
            }
            s -= 1;
        }
    }

    /// Position (segment, offset) of the first element ≥ `key`; the offset
    /// may equal the segment count, meaning "continue at the next segment".
    fn lower_bound(&self, key: u64) -> (usize, usize) {
        let nsegs = self.num_segments();
        // Last segment whose effective first key ≤ key.
        let mut lo = 0usize;
        let mut hi = nsegs; // exclusive
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.effective_first(mid) <= key {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // An empty segment inherits its effective first key from the
        // nearest non-empty segment on its left, so the binary search can
        // land inside a run of empty segments *after* the one actually
        // holding `key`. Walk left to that segment before the in-segment
        // search — otherwise `find` misses live entries (and inserts could
        // land out of global order).
        while lo > 0 && self.seg_counts[lo] == 0 {
            lo -= 1;
        }
        let base = lo * self.seg_size();
        let cnt = self.seg_counts[lo] as usize;
        let off = self.keys[base..base + cnt].partition_point(|&k| k < key);
        (lo, off)
    }

    /// Degree of `u`, tolerating out-of-range ids.
    #[inline]
    fn degree_or_zero(&self, u: VertexId) -> usize {
        self.degrees.get(u as usize).map_or(0, |&d| d as usize)
    }

    /// Whether the directed entry `key` exists; returns its value slot.
    /// Resolves through the vertex directory: O(1) run-head fetch plus a
    /// bounded galloping search, never a tree descent.
    fn find(&self, key: u64) -> Option<usize> {
        let src = (key >> 32) as VertexId;
        if self.degree_or_zero(src) == 0 {
            return None;
        }
        let mut cur = self.run_cursor(src);
        self.run_seek_slot(&mut cur, key as VertexId)
    }

    /// Whether undirected edge `(u, v)` is present, with its label.
    /// Searches the run of the **smaller-degree** endpoint (both directions
    /// are stored with the same label).
    pub fn edge_label(&self, u: VertexId, v: VertexId) -> Option<ELabel> {
        let (du, dv) = (self.degree_or_zero(u), self.degree_or_zero(v));
        if du == 0 || dv == 0 {
            return None;
        }
        let (a, b) = if dv < du { (v, u) } else { (u, v) };
        let mut cur = self.run_cursor(a);
        self.run_seek(&mut cur, b)
    }

    /// Whether undirected edge `(u, v)` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_label(u, v).is_some()
    }

    /// A forward-only cursor at the head of `u`'s neighbor run. Feed it to
    /// [`Gpma::run_seek`] with ascending targets for galloping-intersection
    /// membership probes.
    #[inline]
    pub fn run_cursor(&self, u: VertexId) -> RunCursor {
        let deg = self.degree_or_zero(u);
        if deg == 0 {
            return RunCursor::default();
        }
        let e = self.dir[u as usize];
        RunCursor {
            seg: e.seg,
            off: e.off,
            rem: deg as u32,
        }
    }

    /// Advances `cur` to the first entry with neighbor ≥ `dst` (targets
    /// must be sought in ascending order per cursor) and returns the edge
    /// label if `dst` is present. Gallops within each segment slice, so a
    /// probe costs O(log run) instead of O(log |E|).
    pub fn run_seek(&self, cur: &mut RunCursor, dst: VertexId) -> Option<ELabel> {
        self.run_seek_slot(cur, dst).map(|slot| self.vals[slot])
    }

    /// [`Gpma::run_seek`], returning the absolute slot index instead.
    fn run_seek_slot(&self, cur: &mut RunCursor, dst: VertexId) -> Option<usize> {
        while cur.rem > 0 {
            let seg = cur.seg as usize;
            let cnt = self.seg_counts[seg] as usize;
            let off = cur.off as usize;
            if off >= cnt {
                cur.seg += 1;
                cur.off = 0;
                continue;
            }
            // The run's slice within this segment (the run may end before
            // the segment does — stop at `rem` entries).
            let n = (cnt - off).min(cur.rem as usize);
            let base = seg * self.seg_size();
            let slice = &self.keys[base + off..base + off + n];
            if (slice[n - 1] as VertexId) < dst {
                cur.rem -= n as u32;
                cur.off += n as u32;
                continue;
            }
            let p = gallop_lower(slice, dst);
            cur.off += p as u32;
            cur.rem -= p as u32;
            return if slice[p] as VertexId == dst {
                Some(base + off + p)
            } else {
                None
            };
        }
        None
    }

    /// Chunked merge intersection: advances `cur` through one **ascending**
    /// chunk of probe targets (at most [`crate::CHUNK_WIDTH`], strictly
    /// increasing) and returns a bitmask with bit `i` set iff `targets[i]`
    /// is present in the run; `labels[i]` receives the edge label for every
    /// set bit. Behaves exactly like seeking each target through
    /// [`Gpma::run_seek`] in order — final cursor state included — but
    /// consumes whole run slices per step: targets beyond a slice's last
    /// key skip the slice with a single comparison, and targets inside it
    /// resume galloping from the previous target's landing point. This is
    /// the portable-u64 stand-in for a `std::simd` chunk compare; the mask
    /// is the warp ballot the simulated kernel votes with.
    pub fn run_seek_chunk(
        &self,
        cur: &mut RunCursor,
        targets: &[VertexId],
        labels: &mut [ELabel],
    ) -> u64 {
        debug_assert!(targets.len() <= 64, "chunk wider than the u64 mask");
        debug_assert!(targets.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(labels.len() >= targets.len());
        let mut mask = 0u64;
        let mut ti = 0usize;
        while ti < targets.len() && cur.rem > 0 {
            let seg = cur.seg as usize;
            let cnt = self.seg_counts[seg] as usize;
            let off = cur.off as usize;
            if off >= cnt {
                cur.seg += 1;
                cur.off = 0;
                continue;
            }
            let n = (cnt - off).min(cur.rem as usize);
            let base = seg * self.seg_size();
            let slice = &self.keys[base + off..base + off + n];
            let last = slice[n - 1] as VertexId;
            // Consume every target that lands in this slice's key range,
            // galloping forward from the previous target's position.
            let mut p = 0usize;
            while ti < targets.len() {
                let dst = targets[ti];
                if dst > last {
                    break;
                }
                let q = p + gallop_lower(&slice[p..], dst);
                if slice[q] as VertexId == dst {
                    mask |= 1u64 << ti;
                    labels[ti] = self.vals[base + off + q];
                }
                p = q;
                ti += 1;
            }
            if ti >= targets.len() {
                // Chunk done mid-slice: park the cursor at the last landing
                // point, exactly where per-target seeks would leave it.
                cur.off += p as u32;
                cur.rem -= p as u32;
                return mask;
            }
            // Every remaining target is beyond this slice: skip it whole.
            cur.rem -= n as u32;
            cur.off += n as u32;
        }
        mask
    }

    /// Calls `f` with each contiguous `(keys, labels)` slice of `u`'s
    /// neighbor run, in ascending key order. Keys are full directed entries
    /// (`(src << 32) | dst`); cast to [`VertexId`] for the neighbor. This is
    /// the chunk-granularity sibling of [`Gpma::for_each_neighbor`] — the
    /// intersection kernel gathers candidate chunks from these slices with
    /// bounds-check-free sweeps.
    #[inline]
    pub fn for_each_run_slice(&self, u: VertexId, mut f: impl FnMut(&[u64], &[ELabel])) {
        let mut rem = self.degree_or_zero(u);
        if rem == 0 {
            return;
        }
        let e = self.dir[u as usize];
        let (mut seg, mut off) = (e.seg as usize, e.off as usize);
        let ss = self.cfg.seg_size;
        while rem > 0 {
            let cnt = self.seg_counts[seg] as usize;
            if off >= cnt {
                seg += 1;
                off = 0;
                continue;
            }
            let n = (cnt - off).min(rem);
            let base = seg * ss + off;
            f(&self.keys[base..base + n], &self.vals[base..base + n]);
            rem -= n;
            off += n;
        }
    }

    /// A 64-bit membership signature of `u`'s neighbor run: bit `v & 63` is
    /// set for every neighbor `v`. A **clear** bit proves absence, so the
    /// signature is an exact quick-reject in front of a
    /// [`Gpma::run_seek`]-style probe (a set bit proves nothing and must
    /// fall through to the probe). Worth building only for low-degree runs
    /// (≲ 64 neighbors) where the signature stays sparse enough to reject
    /// most misses with a single AND+popcount.
    pub fn run_signature(&self, u: VertexId) -> u64 {
        let mut sig = 0u64;
        self.for_each_run_slice(u, |ks, _| {
            for &k in ks {
                sig |= sig_bit(k);
            }
        });
        sig
    }

    /// [`Gpma::run_signature`] for **every** vertex, recomputed in one
    /// O(capacity) sweep over the live slots. The reference the maintained
    /// [`Gpma::signatures`] are checked against; kernels read those.
    pub fn run_signatures(&self) -> Vec<u64> {
        let mut sigs = vec![0u64; self.num_vertices()];
        let ss = self.cfg.seg_size;
        for seg in 0..self.num_segments() {
            let base = seg * ss;
            let cnt = self.seg_counts[seg] as usize;
            for &k in &self.keys[base..base + cnt] {
                sigs[(k >> 32) as usize] |= sig_bit(k);
            }
        }
        sigs
    }

    /// Every vertex's [`Gpma::run_signature`], indexed by vertex id and
    /// kept current by every update, so reading it costs nothing. Equal to
    /// [`Gpma::run_signatures`] at all times ([`Gpma::assert_consistent`]
    /// checks it).
    #[inline]
    pub fn signatures(&self) -> &[u64] {
        &self.sigs
    }

    /// Zero-copy iterator over `u`'s sorted neighbor run.
    #[inline]
    pub fn neighbor_run(&self, u: VertexId) -> NeighborRun<'_> {
        let cur = self.run_cursor(u);
        NeighborRun {
            keys: &self.keys,
            vals: &self.vals,
            seg_counts: &self.seg_counts,
            seg_size: self.cfg.seg_size,
            seg: cur.seg as usize,
            off: cur.off as usize,
            rem: cur.rem as usize,
        }
    }

    /// Calls `f` for every `(neighbor, label)` of `u`, in ascending
    /// neighbor order, straight off the run — no descent, no copy. Chunked
    /// per segment slice so the inner loop is a plain bounds-check-free
    /// sweep (the hot-path form; `neighbor_run` is the composable one).
    #[inline]
    pub fn for_each_neighbor(&self, u: VertexId, mut f: impl FnMut(VertexId, ELabel)) {
        let mut rem = self.degree_or_zero(u);
        if rem == 0 {
            return;
        }
        let e = self.dir[u as usize];
        let (mut seg, mut off) = (e.seg as usize, e.off as usize);
        let ss = self.cfg.seg_size;
        while rem > 0 {
            let cnt = self.seg_counts[seg] as usize;
            if off >= cnt {
                seg += 1;
                off = 0;
                continue;
            }
            let n = (cnt - off).min(rem);
            let base = seg * ss + off;
            let ks = &self.keys[base..base + n];
            let vs = &self.vals[base..base + n];
            for (&k, &v) in ks.iter().zip(vs) {
                f(k as VertexId, v);
            }
            rem -= n;
            off += n;
        }
    }

    /// Appends `u`'s sorted neighbor list into `out` (cleared first).
    pub fn neighbors_into(&self, u: VertexId, out: &mut Vec<(VertexId, ELabel)>) {
        out.clear();
        out.reserve(self.degree_or_zero(u));
        out.extend(self.neighbor_run(u));
    }

    /// Iterates all directed entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, ELabel)> + '_ {
        (0..self.num_segments()).flat_map(move |s| {
            let base = s * self.seg_size();
            let cnt = self.seg_counts[s] as usize;
            (0..cnt).map(move |i| (self.keys[base + i], self.vals[base + i]))
        })
    }

    /// Materializes the store back into a [`DynamicGraph`] with the given
    /// vertex labels (testing / interop aid).
    pub fn to_dynamic_graph(&self, labels: &[gamma_graph::VLabel]) -> DynamicGraph {
        let mut g = DynamicGraph::with_vertices(self.degrees.len());
        for (v, &l) in labels.iter().enumerate() {
            g.set_label(v as VertexId, l);
        }
        for (k, el) in self.iter() {
            let (u, v) = ((k >> 32) as VertexId, k as VertexId);
            if u < v {
                g.insert_edge(u, v, el);
            }
        }
        g
    }

    // ------------------------------------------------------------------
    // Batch updates
    // ------------------------------------------------------------------

    /// Inserts a batch of undirected edges, returning how many were new.
    ///
    /// Within-batch duplicates of the same undirected edge are collapsed to
    /// the **first** occurrence (so both directed entries always carry the
    /// same label, regardless of later conflicting labels in the batch).
    pub fn insert_edges(&mut self, edges: &[(VertexId, VertexId, ELabel)]) -> usize {
        let mut seen = std::collections::HashSet::with_capacity(edges.len());
        let mut items = Vec::with_capacity(edges.len() * 2);
        let mut max_v = 0;
        for &(u, v, l) in edges {
            if u == v {
                continue;
            }
            let canonical = ((u.min(v) as u64) << 32) | u.max(v) as u64;
            if !seen.insert(canonical) {
                continue;
            }
            max_v = max_v.max(u.max(v));
            items.push(((u as u64) << 32 | v as u64, l));
            items.push(((v as u64) << 32 | u as u64, l));
        }
        self.ensure_vertices(max_v as usize + 1);
        self.batch_insert(&mut items) / 2
    }

    /// Deletes a batch of undirected edges, returning how many existed.
    pub fn delete_edges(&mut self, edges: &[(VertexId, VertexId)]) -> usize {
        let mut keys = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            if u == v || (u as usize) >= self.degrees.len() || (v as usize) >= self.degrees.len() {
                continue;
            }
            keys.push((u as u64) << 32 | v as u64);
            keys.push((v as u64) << 32 | u as u64);
        }
        self.batch_delete(&mut keys) / 2
    }

    /// Inserts sorted-deduped directed entries; returns how many were new.
    pub fn batch_insert(&mut self, items: &mut Vec<(u64, ELabel)>) -> usize {
        self.stats.batches += 1;
        items.sort_unstable_by_key(|&(k, _)| k);
        items.dedup_by_key(|&mut (k, _)| k);
        // Drop already-present keys: membership resolves through the vertex
        // directory (constant per key), not a descent.
        self.charge_dir_locates(items.len());
        let before = items.len();
        items.retain(|&(k, _)| self.find(k).is_none());
        self.stats.skipped += (before - items.len()) as u64;
        if items.is_empty() {
            return 0;
        }
        // Positioning genuinely *new* keys has no run to land in yet — each
        // surviving item pays the segment-tree descent.
        self.charge_locates(items.len());

        // Group per leaf segment.
        let mut groups: Vec<(usize, Vec<(u64, ELabel)>)> = Vec::new();
        for &(k, v) in items.iter() {
            let (seg, _) = self.lower_bound(k);
            match groups.last_mut() {
                Some((s, g)) if *s == seg => g.push((k, v)),
                _ => groups.push((seg, vec![(k, v)])),
            }
        }

        // Bottom-up escalation, exactly one pass per tree level.
        let mut level = 0usize;
        let mut pending: Vec<(usize, Vec<(u64, ELabel)>)> = groups; // (node idx at `level`, items)
        while !pending.is_empty() {
            if level > self.height() {
                // Root overflow: grow and rebuild with everything pending.
                let mut all: Vec<(u64, ELabel)> = self.collect_range(0, self.num_segments());
                for (_, mut g) in pending {
                    all.append(&mut g);
                }
                all.sort_unstable_by_key(|&(k, _)| k);
                self.stats.grows += 1;
                // `rebuild_with` reconstructs `num_elems` and the degree
                // cache from scratch, so only the insert counter is bumped.
                self.rebuild_with(all);
                self.stats.inserted += items.len() as u64;
                return items.len();
            }
            let spn = 1usize << level; // segments per node
            let mut next: Vec<(usize, Vec<(u64, ELabel)>)> = Vec::new();
            for (node, group) in pending {
                let s0 = node * spn;
                let s1 = ((node + 1) * spn).min(self.num_segments());
                let existing = self.count_range(s0, s1);
                let total = existing + group.len();
                let cap = (s1 - s0) * self.seg_size();
                if (total as f64) <= self.tau(level) * cap as f64 {
                    self.merge_into_range(s0, s1, group);
                } else {
                    // Escalate: merge with a sibling group at the parent.
                    let parent = node / 2;
                    match next.last_mut() {
                        Some((p, g)) if *p == parent => {
                            let mut merged = Vec::with_capacity(g.len() + group.len());
                            merge_sorted(g, &group, &mut merged);
                            *g = merged;
                        }
                        _ => next.push((parent, group)),
                    }
                }
            }
            pending = next;
            level += 1;
        }
        self.recount_inserted(items);
        items.len()
    }

    fn recount_inserted(&mut self, items: &[(u64, ELabel)]) {
        for &(k, _) in items {
            let src = (k >> 32) as usize;
            self.degrees[src] += 1;
            self.sigs[src] |= sig_bit(k);
        }
        self.num_elems += items.len();
        self.stats.inserted += items.len() as u64;
    }

    /// Deletes sorted-deduped directed keys; returns how many existed.
    pub fn batch_delete(&mut self, keys: &mut Vec<u64>) -> usize {
        self.stats.batches += 1;
        keys.sort_unstable();
        keys.dedup();
        // Existing keys resolve through the vertex directory.
        self.charge_dir_locates(keys.len());
        keys.retain(|&k| self.find(k).is_some());
        if keys.is_empty() {
            return 0;
        }

        // Remove per leaf segment (left-compacting the remainder). The
        // group head's segment also comes from the directory — the delete
        // path performs no descents at all.
        let mut affected: Vec<usize> = Vec::new();
        let mut i = 0usize;
        while i < keys.len() {
            // Earlier groups may have deleted this source's run head from a
            // segment to our left, staling its directory entry; self-heal
            // before trusting it (exact check, descent only when stale).
            let u = (keys[i] >> 32) as usize;
            if !self.dir_valid(u) {
                self.dir[u] = self.locate_first(u);
            }
            let seg = self.find(keys[i]).expect("retained keys exist") / self.seg_size();
            let base = seg * self.seg_size();
            let cnt = self.seg_counts[seg] as usize;
            let seg_hi_key = {
                // All keys of this batch that fall in this segment.

                self.keys[base + cnt - 1]
            };
            let mut j = i;
            while j < keys.len() && keys[j] <= seg_hi_key {
                j += 1;
            }
            let to_delete = &keys[i..j];
            let mut kept: Vec<(u64, ELabel)> = Vec::with_capacity(cnt);
            let mut d = 0usize;
            for slot in base..base + cnt {
                let k = self.keys[slot];
                while d < to_delete.len() && to_delete[d] < k {
                    d += 1;
                }
                if d < to_delete.len() && to_delete[d] == k {
                    d += 1;
                    continue;
                }
                kept.push((k, self.vals[slot]));
            }
            let removed = cnt - kept.len();
            debug_assert_eq!(removed, to_delete.len());
            self.write_segment(seg, &kept);
            self.refresh_dir_range(seg, seg + 1);
            // Degrees must track each group immediately: later groups size
            // their directory run cursors off them.
            for &k in to_delete {
                self.degrees[(k >> 32) as usize] -= 1;
            }
            self.charge_rebalance(cnt, 1);
            affected.push(seg);
            i = j;
        }

        self.num_elems -= keys.len();
        self.stats.deleted += keys.len() as u64;

        // Repair directory entries whose run head moved past a rewritten
        // segment (all of a vertex's entries in its head segment deleted,
        // remainder living further right). `dir_valid` is exact, so the
        // descent is paid only for genuinely stale entries. The repaired
        // entry then leads the walk that recomputes the shrunk run's
        // signature (the rebalancing below moves keys, not run contents).
        let mut prev_src = u64::MAX;
        for &k in keys.iter() {
            let src = k >> 32;
            if src == prev_src {
                continue;
            }
            prev_src = src;
            let u = src as usize;
            if self.degrees[u] > 0 && !self.dir_valid(u) {
                self.dir[u] = self.locate_first(u);
            }
            self.sigs[u] = self.run_signature(u as VertexId);
        }

        // Fix lower-density violations bottom-up.
        let mut s = 0usize;
        let mut fixed_until = 0usize; // segments < fixed_until are settled
        while s < affected.len() {
            let seg = affected[s];
            s += 1;
            // A shrink inside an earlier iteration both settles everything
            // and invalidates recorded indices beyond the new extent.
            if seg < fixed_until || seg >= self.num_segments() {
                continue;
            }
            let cnt = self.seg_counts[seg] as usize;
            if (cnt as f64) >= self.rho(0) * self.seg_size() as f64 {
                continue;
            }
            // Climb to the lowest ancestor satisfying its lower bound.
            let mut level = 1usize;
            loop {
                if level > self.height() {
                    // Whole array too sparse: shrink (if possible) and stop.
                    self.maybe_shrink();
                    fixed_until = self.num_segments();
                    break;
                }
                let spn = 1usize << level;
                let node = seg / spn;
                let s0 = node * spn;
                let s1 = ((node + 1) * spn).min(self.num_segments());
                let existing = self.count_range(s0, s1);
                let cap = (s1 - s0) * self.seg_size();
                if (existing as f64) >= self.rho(level) * cap as f64 {
                    let all = self.collect_range(s0, s1);
                    self.redistribute(s0, s1, &all);
                    fixed_until = s1;
                    break;
                }
                level += 1;
            }
        }
        self.maybe_shrink();
        keys.len()
    }

    // ------------------------------------------------------------------
    // Vertex-directory maintenance
    // ------------------------------------------------------------------

    /// Re-derives the directory entries of every run **starting** inside
    /// segments `[s0, s1)` after those segments were rewritten. Runs that
    /// begin left of the range and merely extend into it are recognized
    /// (and skipped) by seeding the source tracker with the last live key
    /// before `s0`.
    fn refresh_dir_range(&mut self, s0: usize, s1: usize) {
        let mut prev_src: Option<u32> = None;
        let mut s = s0;
        while s > 0 {
            s -= 1;
            let cnt = self.seg_counts[s] as usize;
            if cnt > 0 {
                prev_src = Some((self.keys[s * self.seg_size() + cnt - 1] >> 32) as u32);
                break;
            }
        }
        for seg in s0..s1 {
            let base = seg * self.seg_size();
            for off in 0..self.seg_counts[seg] as usize {
                let src = (self.keys[base + off] >> 32) as u32;
                if prev_src != Some(src) {
                    self.dir[src as usize] = DirEnt {
                        seg: seg as u32,
                        off: off as u32,
                    };
                    prev_src = Some(src);
                }
            }
        }
    }

    /// Whether `u`'s directory entry still names its run head: the slot is
    /// live, holds a key with source `u`, and the previous live slot (if
    /// any) belongs to a different source. Exact — never accepts a stale
    /// entry — so it doubles as the repair trigger after deletions.
    fn dir_valid(&self, u: usize) -> bool {
        if self.degrees[u] == 0 {
            return true; // entry is meaningless (and never read)
        }
        let e = self.dir[u];
        let (seg, off) = (e.seg as usize, e.off as usize);
        if seg >= self.num_segments() || off >= self.seg_counts[seg] as usize {
            return false;
        }
        if (self.keys[seg * self.seg_size() + off] >> 32) as usize != u {
            return false;
        }
        // Predecessor check.
        let (mut s, mut o) = (seg, off);
        loop {
            if o > 0 {
                return (self.keys[s * self.seg_size() + o - 1] >> 32) as usize != u;
            }
            if s == 0 {
                return true;
            }
            s -= 1;
            o = self.seg_counts[s] as usize;
        }
    }

    /// Locates `u`'s run head by a full descent (directory repair path —
    /// only legal while `degrees[u] > 0`).
    fn locate_first(&mut self, u: usize) -> DirEnt {
        debug_assert!(self.degrees[u] > 0);
        self.stats.descents += 1;
        let (mut seg, mut off) = self.lower_bound((u as u64) << 32);
        loop {
            if off < self.seg_counts[seg] as usize {
                debug_assert_eq!(
                    (self.keys[seg * self.seg_size() + off] >> 32) as usize,
                    u,
                    "degree cache promises a run"
                );
                return DirEnt {
                    seg: seg as u32,
                    off: off as u32,
                };
            }
            seg += 1;
            off = 0;
        }
    }

    // ------------------------------------------------------------------
    // Internal mechanics
    // ------------------------------------------------------------------

    /// Collects the live `(key, value)` pairs of segments `[s0, s1)`.
    fn collect_range(&self, s0: usize, s1: usize) -> Vec<(u64, ELabel)> {
        let mut out = Vec::with_capacity(self.count_range(s0, s1));
        for s in s0..s1 {
            let base = s * self.seg_size();
            let cnt = self.seg_counts[s] as usize;
            for i in 0..cnt {
                out.push((self.keys[base + i], self.vals[base + i]));
            }
        }
        out
    }

    /// Overwrites segment `seg` with `items` (≤ seg_size), left-compacted.
    fn write_segment(&mut self, seg: usize, items: &[(u64, ELabel)]) {
        debug_assert!(items.len() <= self.seg_size());
        let base = seg * self.seg_size();
        for (i, &(k, v)) in items.iter().enumerate() {
            self.keys[base + i] = k;
            self.vals[base + i] = v;
        }
        for i in items.len()..self.seg_size() {
            self.keys[base + i] = EMPTY;
        }
        self.seg_counts[seg] = items.len() as u32;
    }

    /// Merges `group` (sorted new items) with the existing contents of
    /// segments `[s0, s1)` and redistributes evenly.
    fn merge_into_range(&mut self, s0: usize, s1: usize, group: Vec<(u64, ELabel)>) {
        let existing = self.collect_range(s0, s1);
        let mut merged = Vec::with_capacity(existing.len() + group.len());
        merge_sorted(&existing, &group, &mut merged);
        self.redistribute(s0, s1, &merged);
    }

    /// Evenly spreads `items` across segments `[s0, s1)` and refreshes the
    /// directory entries of runs starting inside the range.
    fn redistribute(&mut self, s0: usize, s1: usize, items: &[(u64, ELabel)]) {
        let nsegs = s1 - s0;
        let base_cnt = items.len() / nsegs;
        let extra = items.len() % nsegs;
        debug_assert!(base_cnt < self.seg_size(), "redistribute overflow");
        let mut idx = 0usize;
        for s in 0..nsegs {
            let take = base_cnt + usize::from(s < extra);
            self.write_segment(s0 + s, &items[idx..idx + take]);
            idx += take;
        }
        self.refresh_dir_range(s0, s1);
        self.stats.rebalances += 1;
        self.charge_rebalance(items.len(), nsegs);
    }

    /// Rebuilds the whole array for `items`, growing/shrinking capacity to
    /// hit the bulk fill target.
    fn rebuild_with(&mut self, items: Vec<(u64, ELabel)>) {
        debug_assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
        let needed =
            ((items.len() as f64 / self.cfg.bulk_fill).ceil() as usize).max(self.cfg.seg_size);
        let mut capacity = self.cfg.seg_size;
        while capacity < needed {
            capacity *= 2;
        }
        self.keys = vec![EMPTY; capacity];
        self.vals = vec![0; capacity];
        self.seg_counts = vec![0; capacity / self.cfg.seg_size];
        self.num_elems = items.len();
        // Degrees and signatures are rebuilt from scratch.
        self.degrees.fill(0);
        self.sigs.fill(0);
        for &(k, _) in &items {
            let src = (k >> 32) as usize;
            if src >= self.degrees.len() {
                self.degrees.resize(src + 1, 0);
                self.sigs.resize(src + 1, 0);
            }
            self.degrees[src] += 1;
            self.sigs[src] |= sig_bit(k);
        }
        self.dir.resize(self.degrees.len(), DirEnt::default());
        // `redistribute` over the full extent rebuilds the directory too.
        self.redistribute(0, self.num_segments(), &items);
    }

    /// Halves capacity while the array is emptier than the root's lower
    /// bound would allow at the smaller size.
    fn maybe_shrink(&mut self) {
        let mut target = self.keys.len();
        while target > self.cfg.seg_size
            && (self.num_elems as f64) < self.cfg.rho_root * (target / 2) as f64
        {
            target /= 2;
        }
        if target < self.keys.len() {
            let all = self.collect_range(0, self.num_segments());
            self.keys = vec![EMPTY; target];
            self.vals = vec![0; target];
            self.seg_counts = vec![0; target / self.cfg.seg_size];
            self.stats.shrinks += 1;
            self.redistribute(0, self.num_segments(), &all);
        }
    }

    // ------------------------------------------------------------------
    // Simulated-GPU cost accounting
    // ------------------------------------------------------------------

    /// Charges the segment-location kernel: one thread per update performs
    /// a binary descent over the segment tree; the top cached layers hit
    /// shared memory, the rest global memory.
    fn charge_locates(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.stats.descents += n as u64;
        let h = self.height().max(1) as u64;
        let cached = (self.cfg.top_layers_cached as u64).min(h);
        let uncached = h - cached;
        let warps = (n as u64).div_ceil(self.cfg.warp_size as u64);
        let per_warp =
            cached * self.cfg.cost.shared_latency + uncached * self.cfg.cost.global_latency;
        let cycles = warps * per_warp;
        self.stats.locate_cycles += cycles;
        self.stats.sim_cycles += cycles;
    }

    /// Charges directory-resolved lookups: one warp-coalesced fetch of the
    /// run head plus a galloping search bounded by the typical run length —
    /// independent of the segment-tree height, however tall the array grows
    /// (the directory's Figure-12 saving).
    fn charge_dir_locates(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.stats.dir_hits += n as u64;
        let avg_run = self.num_elems as u64 / self.degrees.len().max(1) as u64;
        let warps = (n as u64).div_ceil(self.cfg.warp_size as u64);
        let cycles = warps * (self.cfg.cost.directory_locate() + self.cfg.cost.run_search(avg_run));
        self.stats.locate_cycles += cycles;
        self.stats.sim_cycles += cycles;
    }

    /// Charges a merge/redistribute of `n` elements over `nsegs` segments:
    /// coalesced read + write. GPMA's warp method dedicates a whole warp to
    /// a (sub-)segment even when it holds fewer than `warp_size` elements;
    /// the Cooperative-Group optimization partitions the warp into power-of-
    /// two sub-groups sized to the segment, so small merges cost a fraction
    /// of a warp round. Costs are accounted in quarter-round units so the
    /// sub-warp saving is visible.
    fn charge_rebalance(&mut self, n: usize, nsegs: usize) {
        let ws = self.cfg.warp_size as u64;
        let words = (n as u64 * 2).max(1); // key (2 words) per element
        let quarter_rounds = if self.cfg.cg_subwarps {
            // Sub-warps (down to ws/4) pack small work onto partial warps.
            (4 * words).div_ceil(ws).max(1)
        } else {
            // A full warp round per segment, even for tiny segments.
            4 * (nsegs as u64).max(words.div_ceil(ws)).max(1)
        };
        let cycles = (2 * quarter_rounds * self.cfg.cost.global_latency) / 4;
        self.stats.rebalance_cycles += cycles;
        self.stats.sim_cycles += cycles;
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests)
    // ------------------------------------------------------------------

    /// Panics if any structural invariant is violated (test support).
    pub fn assert_consistent(&self) {
        // Segment counts match slot contents; prefixes sorted & compacted.
        let mut prev = None;
        let mut total = 0usize;
        for s in 0..self.num_segments() {
            let base = s * self.seg_size();
            let cnt = self.seg_counts[s] as usize;
            total += cnt;
            for i in 0..self.seg_size() {
                let k = self.keys[base + i];
                if i < cnt {
                    assert_ne!(k, EMPTY, "live slot marked empty at seg {s} off {i}");
                    if let Some(p) = prev {
                        assert!(p < k, "keys out of order: {p} !< {k}");
                    }
                    prev = Some(k);
                } else {
                    assert_eq!(k, EMPTY, "stale key beyond segment count");
                }
            }
        }
        assert_eq!(total, self.num_elems, "element count drift");
        assert_eq!(self.num_elems % 2, 0, "directed entries must pair up");
        // Degrees match contents.
        let mut deg = vec![0u32; self.degrees.len()];
        for (k, _) in self.iter() {
            deg[(k >> 32) as usize] += 1;
        }
        assert_eq!(deg, self.degrees, "degree cache drift");
        // Vertex directory: every live vertex's entry names the first slot
        // of its run, as derived by a full scan.
        assert_eq!(self.dir.len(), self.degrees.len(), "directory length drift");
        let mut expected: Vec<Option<DirEnt>> = vec![None; self.degrees.len()];
        for s in 0..self.num_segments() {
            let base = s * self.seg_size();
            for i in 0..self.seg_counts[s] as usize {
                let src = (self.keys[base + i] >> 32) as usize;
                expected[src].get_or_insert(DirEnt {
                    seg: s as u32,
                    off: i as u32,
                });
            }
        }
        for (u, &d) in self.degrees.iter().enumerate() {
            if d > 0 {
                assert_eq!(
                    Some(self.dir[u]),
                    expected[u],
                    "directory drift at vertex {u}"
                );
            }
        }
        // Maintained run signatures equal a fresh sweep.
        assert!(self.sigs == self.run_signatures(), "run signature drift");
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Serializes the store into a compact versioned byte blob: segment
    /// geometry, the live `(key, label)` entries of every segment, the
    /// degree cache and the vertex directory (live vertices only). Empty
    /// slots are not stored — the restore side re-inflates them — so the
    /// blob size tracks `num_elems`, not capacity.
    ///
    /// Cumulative [`GpmaStats`] counters are *not* part of the snapshot:
    /// they describe work performed, not state, and restart at zero after
    /// a restore.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_snapshot(&mut out);
        out
    }

    /// Appends [`Gpma::snapshot_bytes`]'s blob to `out`, so a caller
    /// assembling a larger image writes it in place.
    pub fn write_snapshot(&self, out: &mut Vec<u8>) {
        let nsegs = self.num_segments();
        out.reserve(32 + self.num_elems * 10 + self.degrees.len() * 12);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.cfg.seg_size as u32).to_le_bytes());
        out.extend_from_slice(&(nsegs as u32).to_le_bytes());
        out.extend_from_slice(&(self.degrees.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.num_elems as u64).to_le_bytes());
        for s in 0..nsegs {
            let base = s * self.seg_size();
            let cnt = self.seg_counts[s];
            out.extend_from_slice(&cnt.to_le_bytes());
            for i in 0..cnt as usize {
                out.extend_from_slice(&self.keys[base + i].to_le_bytes());
                out.extend_from_slice(&self.vals[base + i].to_le_bytes());
            }
        }
        for (u, &d) in self.degrees.iter().enumerate() {
            out.extend_from_slice(&d.to_le_bytes());
            if d > 0 {
                out.extend_from_slice(&self.dir[u].seg.to_le_bytes());
                out.extend_from_slice(&self.dir[u].off.to_le_bytes());
            }
        }
    }

    /// Rebuilds a store from [`Gpma::snapshot_bytes`] output. `cfg` is the
    /// runtime configuration (cost model etc.); its `seg_size` must match
    /// the recorded geometry. The restored store is cross-checked against
    /// a full scan ([`Gpma::assert_consistent`]) before being returned, so
    /// a snapshot that decodes but violates a structural invariant panics
    /// here rather than corrupting queries later.
    pub fn from_snapshot_bytes(bytes: &[u8], cfg: GpmaConfig) -> Result<Self, String> {
        struct R<'a>(&'a [u8], usize);
        impl R<'_> {
            fn take(&mut self, n: usize) -> Result<&[u8], String> {
                if self.0.len() - self.1 < n {
                    return Err("gpma snapshot truncated".into());
                }
                let s = &self.0[self.1..self.1 + n];
                self.1 += n;
                Ok(s)
            }
            fn u16(&mut self) -> Result<u16, String> {
                Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
            }
            fn u32(&mut self) -> Result<u32, String> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn u64(&mut self) -> Result<u64, String> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
        }
        let mut r = R(bytes, 0);
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(format!(
                "gpma snapshot version {version}, expected {SNAPSHOT_VERSION}"
            ));
        }
        let seg_size = r.u32()? as usize;
        if seg_size != cfg.seg_size {
            return Err(format!(
                "gpma snapshot seg_size {seg_size} != configured {}",
                cfg.seg_size
            ));
        }
        let nsegs = r.u32()? as usize;
        if nsegs == 0 || !nsegs.is_power_of_two() {
            return Err(format!(
                "gpma snapshot segment count {nsegs} not a power of two"
            ));
        }
        let nverts = r.u32()? as usize;
        let num_elems = r.u64()? as usize;
        let capacity = nsegs * seg_size;
        let mut keys = vec![EMPTY; capacity];
        let mut vals: Vec<ELabel> = vec![0; capacity];
        let mut seg_counts = vec![0u32; nsegs];
        let mut sigs = vec![0u64; nverts];
        let mut total = 0usize;
        for (s, sc) in seg_counts.iter_mut().enumerate() {
            let cnt = r.u32()?;
            if cnt as usize > seg_size {
                return Err(format!("segment {s} count {cnt} exceeds seg_size"));
            }
            *sc = cnt;
            total += cnt as usize;
            let base = s * seg_size;
            for i in 0..cnt as usize {
                let k = r.u64()?;
                if k == EMPTY {
                    return Err(format!("empty-sentinel key in live slot of segment {s}"));
                }
                let Some(sig) = sigs.get_mut((k >> 32) as usize) else {
                    return Err(format!(
                        "key source beyond {nverts} vertices in segment {s}"
                    ));
                };
                *sig |= sig_bit(k);
                keys[base + i] = k;
                vals[base + i] = r.u16()?;
            }
        }
        if total != num_elems {
            return Err(format!(
                "element count drift: header {num_elems}, segments {total}"
            ));
        }
        let mut degrees = vec![0u32; nverts];
        let mut dir = vec![DirEnt::default(); nverts];
        for u in 0..nverts {
            let d = r.u32()?;
            degrees[u] = d;
            if d > 0 {
                dir[u] = DirEnt {
                    seg: r.u32()?,
                    off: r.u32()?,
                };
            }
        }
        if r.0.len() != r.1 {
            return Err("trailing bytes after gpma snapshot".into());
        }
        let pma = Self {
            keys,
            vals,
            seg_counts,
            num_elems,
            degrees,
            sigs,
            dir,
            cfg,
            stats: GpmaStats::default(),
        };
        pma.assert_consistent();
        Ok(pma)
    }
}

/// Version tag of the [`Gpma::snapshot_bytes`] format.
const SNAPSHOT_VERSION: u32 = 1;

/// The bit directed entry `k` contributes to its source's run signature.
#[inline]
fn sig_bit(k: u64) -> u64 {
    1u64 << (k as u32 & 63)
}

/// First index of `slice` whose low 32 bits (the dst) are ≥ `dst`,
/// galloping from the front. The caller guarantees the last element
/// qualifies, so the result is always in bounds. All keys in `slice` share
/// their high 32 bits (one vertex's run), so comparing dsts is comparing
/// keys.
#[inline]
fn gallop_lower(slice: &[u64], dst: VertexId) -> usize {
    let mut hi = 1usize;
    while hi < slice.len() && (slice[hi - 1] as VertexId) < dst {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = hi.min(slice.len());
    lo + slice[lo..hi].partition_point(|&k| (k as VertexId) < dst)
}

/// Merges two sorted `(key, value)` runs into `out`. Duplicate keys across
/// runs keep the `b` (newer) value; duplicates cannot occur in practice
/// because inserts are pre-filtered, but the merge is total anyway.
fn merge_sorted(a: &[(u64, ELabel)], b: &[(u64, ELabel)], out: &mut Vec<(u64, ELabel)>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(b[j]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamma_graph::NO_ELABEL;

    fn key(u: u32, v: u32) -> u64 {
        (u as u64) << 32 | v as u64
    }

    #[test]
    fn empty_store() {
        let pma = Gpma::new(4, GpmaConfig::default());
        assert_eq!(pma.num_edges(), 0);
        assert!(!pma.has_edge(0, 1));
        let mut buf = Vec::new();
        pma.neighbors_into(0, &mut buf);
        assert!(buf.is_empty());
        pma.assert_consistent();
    }

    #[test]
    fn insert_and_lookup() {
        let mut pma = Gpma::new(5, GpmaConfig::default());
        assert_eq!(pma.insert_edges(&[(0, 1, 7), (1, 2, 8), (0, 3, 9)]), 3);
        assert_eq!(pma.num_edges(), 3);
        assert_eq!(pma.edge_label(0, 1), Some(7));
        assert_eq!(pma.edge_label(1, 0), Some(7));
        assert_eq!(pma.edge_label(2, 1), Some(8));
        assert_eq!(pma.edge_label(0, 2), None);
        assert_eq!(pma.degree(0), 2);
        assert_eq!(pma.degree(1), 2);
        pma.assert_consistent();
    }

    #[test]
    fn duplicate_inserts_skipped() {
        let mut pma = Gpma::new(4, GpmaConfig::default());
        assert_eq!(pma.insert_edges(&[(0, 1, 1)]), 1);
        assert_eq!(pma.insert_edges(&[(0, 1, 1), (1, 2, 2)]), 1);
        assert_eq!(pma.num_edges(), 2);
        assert_eq!(pma.stats().skipped, 2); // both directions of (0,1)
        pma.assert_consistent();
    }

    #[test]
    fn delete_and_missing_delete() {
        let mut pma = Gpma::new(4, GpmaConfig::default());
        pma.insert_edges(&[(0, 1, 1), (1, 2, 2), (2, 3, 3)]);
        assert_eq!(pma.delete_edges(&[(1, 2)]), 1);
        assert!(!pma.has_edge(1, 2));
        assert!(pma.has_edge(0, 1));
        assert_eq!(pma.num_edges(), 2);
        assert_eq!(pma.delete_edges(&[(1, 2)]), 0);
        assert_eq!(pma.degree(1), 1);
        pma.assert_consistent();
    }

    #[test]
    fn growth_under_many_inserts() {
        let mut pma = Gpma::new(0, GpmaConfig::default());
        let edges: Vec<(u32, u32, ELabel)> =
            (0..500u32).map(|i| (i, i + 1000, NO_ELABEL)).collect();
        assert_eq!(pma.insert_edges(&edges), 500);
        assert_eq!(pma.num_edges(), 500);
        assert!(pma.stats().grows >= 1);
        assert!(pma.capacity() >= 1000);
        for &(u, v, _) in &edges {
            assert!(pma.has_edge(u, v), "missing ({u},{v})");
        }
        pma.assert_consistent();
    }

    #[test]
    fn incremental_batches_match_reference() {
        use std::collections::BTreeSet;
        let mut pma = Gpma::new(64, GpmaConfig::default());
        let mut reference: BTreeSet<u64> = BTreeSet::new();
        // Deterministic pseudo-random batched workload.
        let mut x = 0x12345678u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _round in 0..30 {
            let mut ins = Vec::new();
            let mut del = Vec::new();
            for _ in 0..20 {
                let u = (rnd() % 64) as u32;
                let v = (rnd() % 64) as u32;
                if u == v {
                    continue;
                }
                if rnd() % 3 == 0 {
                    del.push((u, v));
                } else {
                    ins.push((u, v, NO_ELABEL));
                }
            }
            pma.insert_edges(&ins);
            for (u, v, _) in ins {
                reference.insert(key(u.min(v), u.max(v)));
            }
            pma.delete_edges(&del);
            for (u, v) in del {
                reference.remove(&key(u.min(v), u.max(v)));
            }
            pma.assert_consistent();
            assert_eq!(pma.num_edges(), reference.len());
            for &k in &reference {
                let (u, v) = ((k >> 32) as u32, k as u32);
                assert!(pma.has_edge(u, v));
            }
        }
    }

    #[test]
    fn neighbors_sorted_and_complete() {
        let mut pma = Gpma::new(10, GpmaConfig::default());
        pma.insert_edges(&[(5, 9, 1), (5, 2, 2), (5, 7, 3), (3, 5, 4)]);
        let mut buf = Vec::new();
        pma.neighbors_into(5, &mut buf);
        assert_eq!(buf, vec![(2, 2), (3, 4), (7, 3), (9, 1)]);
        pma.neighbors_into(9, &mut buf);
        assert_eq!(buf, vec![(5, 1)]);
        pma.neighbors_into(0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn from_graph_roundtrip() {
        let mut g = DynamicGraph::with_vertices(8);
        g.set_label(0, 1);
        g.set_label(1, 2);
        for &(u, v) in &[(0u32, 1u32), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6)] {
            g.insert_edge(u, v, (u + v) as ELabel);
        }
        let pma = Gpma::from_graph(&g, GpmaConfig::default());
        pma.assert_consistent();
        assert_eq!(pma.num_edges(), g.num_edges());
        let g2 = pma.to_dynamic_graph(g.labels());
        for (u, v, l) in g.edges() {
            assert_eq!(g2.edge_label(u, v), Some(l));
        }
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.label(0), 1);
    }

    #[test]
    fn shrink_after_mass_delete() {
        let mut pma = Gpma::new(0, GpmaConfig::default());
        let edges: Vec<(u32, u32, ELabel)> = (0..400u32).map(|i| (i, i + 500, NO_ELABEL)).collect();
        pma.insert_edges(&edges);
        let big = pma.capacity();
        let dels: Vec<(u32, u32)> = (0..396u32).map(|i| (i, i + 500)).collect();
        pma.delete_edges(&dels);
        assert_eq!(pma.num_edges(), 4);
        assert!(pma.capacity() < big, "expected shrink from {big}");
        assert!(pma.stats().shrinks >= 1);
        pma.assert_consistent();
        for i in 396..400u32 {
            assert!(pma.has_edge(i, i + 500));
        }
    }

    #[test]
    fn cost_accounting_monotone() {
        let mut pma = Gpma::new(0, GpmaConfig::default());
        let c0 = pma.stats().sim_cycles;
        pma.insert_edges(&[(0, 1, 0)]);
        let c1 = pma.stats().sim_cycles;
        assert!(c1 > c0);
        let edges: Vec<(u32, u32, ELabel)> = (0..200u32).map(|i| (i, i + 300, NO_ELABEL)).collect();
        pma.insert_edges(&edges);
        assert!(pma.stats().sim_cycles > c1);
        assert!(pma.stats().locate_cycles > 0);
        assert!(pma.stats().rebalance_cycles > 0);
    }

    #[test]
    fn cached_layers_reduce_locate_cost() {
        // Descents happen only when positioning *new* keys (existing keys
        // resolve through the directory at height-independent cost), so the
        // shared-memory cache is probed with fresh inserts.
        let run = |cached: usize| {
            let mut cfg = GpmaConfig::default();
            cfg.top_layers_cached = cached;
            let mut pma = Gpma::new(0, cfg);
            let seed: Vec<(u32, u32, ELabel)> =
                (0..1000u32).map(|i| (i, i + 2000, NO_ELABEL)).collect();
            pma.insert_edges(&seed);
            pma.reset_stats();
            let fresh: Vec<(u32, u32, ELabel)> =
                (0..1000u32).map(|i| (i, i + 4000, NO_ELABEL)).collect();
            pma.insert_edges(&fresh);
            pma.stats().locate_cycles
        };
        assert!(
            run(4) < run(0),
            "shared-memory cache should cut locate cost"
        );
    }

    #[test]
    fn deletes_resolve_without_descents() {
        let mut pma = Gpma::new(0, GpmaConfig::default());
        let edges: Vec<(u32, u32, ELabel)> =
            (0..500u32).map(|i| (i, i + 1000, NO_ELABEL)).collect();
        pma.insert_edges(&edges);
        pma.reset_stats();
        let probe: Vec<(u32, u32)> = (0..500u32).map(|i| (i, i + 1000)).collect();
        pma.delete_edges(&probe);
        assert_eq!(
            pma.stats().descents,
            0,
            "directory-indexed deletes must not descend"
        );
        assert!(pma.stats().dir_hits >= 1000);
        pma.assert_consistent();
    }

    #[test]
    fn run_seek_gallops_monotonically() {
        let mut pma = Gpma::new(0, GpmaConfig::default());
        let edges: Vec<(u32, u32, ELabel)> =
            (0..64u32).map(|i| (5, 100 + 2 * i, i as u16)).collect();
        pma.insert_edges(&edges);
        let mut cur = pma.run_cursor(5);
        // Ascending probes: hits return labels, misses advance past.
        assert_eq!(pma.run_seek(&mut cur, 100), Some(0));
        assert_eq!(pma.run_seek(&mut cur, 101), None);
        assert_eq!(pma.run_seek(&mut cur, 102), Some(1));
        assert_eq!(pma.run_seek(&mut cur, 200), Some(50));
        assert_eq!(pma.run_seek(&mut cur, 226), Some(63));
        assert_eq!(pma.run_seek(&mut cur, 300), None);
        // Exhausted cursor stays exhausted.
        assert_eq!(pma.run_seek(&mut cur, 400), None);
    }

    #[test]
    fn run_seek_chunk_matches_scalar_seeks() {
        let mut pma = Gpma::new(0, GpmaConfig::default());
        let edges: Vec<(u32, u32, ELabel)> =
            (0..64u32).map(|i| (5, 100 + 2 * i, i as u16)).collect();
        pma.insert_edges(&edges);
        // Mix of hits and misses, in ascending order, crossing segments.
        let targets: Vec<u32> = vec![99, 100, 101, 102, 150, 160, 200, 226, 300];
        let mut scalar_cur = pma.run_cursor(5);
        let mut want_mask = 0u64;
        let mut want_labels = vec![0 as ELabel; targets.len()];
        for (i, &t) in targets.iter().enumerate() {
            if let Some(l) = pma.run_seek(&mut scalar_cur, t) {
                want_mask |= 1 << i;
                want_labels[i] = l;
            }
        }
        let mut chunk_cur = pma.run_cursor(5);
        let mut labels = vec![0 as ELabel; targets.len()];
        let mask = pma.run_seek_chunk(&mut chunk_cur, &targets, &mut labels);
        assert_eq!(mask, want_mask);
        for i in 0..targets.len() {
            if mask & (1 << i) != 0 {
                assert_eq!(labels[i], want_labels[i], "label lane {i}");
            }
        }
        // Cursor parity: a follow-up scalar seek behaves identically.
        assert_eq!(
            pma.run_seek(&mut chunk_cur, 400),
            pma.run_seek(&mut scalar_cur, 400)
        );
    }

    #[test]
    fn run_seek_chunk_empty_inputs() {
        let mut pma = Gpma::new(8, GpmaConfig::default());
        pma.insert_edges(&[(0, 1, 7)]);
        let mut labels = [0 as ELabel; 4];
        // Empty target chunk.
        let mut cur = pma.run_cursor(0);
        assert_eq!(pma.run_seek_chunk(&mut cur, &[], &mut labels), 0);
        // Empty run (vertex with no neighbors).
        let mut cur = pma.run_cursor(5);
        assert_eq!(pma.run_seek_chunk(&mut cur, &[1, 2], &mut labels), 0);
    }

    #[test]
    fn run_signature_rejects_absent_neighbors() {
        let mut pma = Gpma::new(0, GpmaConfig::default());
        pma.insert_edges(&[(3, 10, 1), (3, 75, 2), (3, 128, 3)]);
        let sig = pma.run_signature(3);
        // Present neighbors always have their bit set.
        for v in [10u32, 75, 128] {
            assert_ne!(sig & (1 << (v & 63)), 0, "neighbor {v} missing from sig");
        }
        // A clear bit proves absence: every vertex whose bit is clear must
        // genuinely not neighbor 3.
        for v in 0..200u32 {
            if sig & (1 << (v & 63)) == 0 {
                assert!(!pma.has_edge(3, v), "sig cleared live neighbor {v}");
            }
        }
        assert_eq!(pma.run_signature(7), 0, "empty run has empty signature");
    }

    #[test]
    fn run_slices_cover_whole_run_in_order() {
        let mut pma = Gpma::new(0, GpmaConfig::default());
        let edges: Vec<(u32, u32, ELabel)> =
            (0..200u32).map(|i| (9, 1000 + i, (i % 7) as u16)).collect();
        pma.insert_edges(&edges);
        let mut via_slices = Vec::new();
        pma.for_each_run_slice(9, |ks, vs| {
            assert_eq!(ks.len(), vs.len());
            assert!(!ks.is_empty(), "empty slice emitted");
            for (&k, &v) in ks.iter().zip(vs) {
                via_slices.push((k as VertexId, v));
            }
        });
        let via_run: Vec<(u32, ELabel)> = pma.neighbor_run(9).collect();
        assert_eq!(via_slices, via_run);
    }

    #[test]
    fn neighbor_run_is_zero_copy_equal_to_neighbors_into() {
        let mut pma = Gpma::new(10, GpmaConfig::default());
        pma.insert_edges(&[(5, 9, 1), (5, 2, 2), (5, 7, 3), (3, 5, 4)]);
        let mut buf = Vec::new();
        pma.neighbors_into(5, &mut buf);
        let run: Vec<(u32, ELabel)> = pma.neighbor_run(5).collect();
        assert_eq!(run, buf);
        assert_eq!(pma.neighbor_run(5).len(), pma.degree(5));
        let mut via_closure = Vec::new();
        pma.for_each_neighbor(5, |v, l| via_closure.push((v, l)));
        assert_eq!(via_closure, buf);
        assert_eq!(pma.neighbor_run(0).count(), 0);
    }

    #[test]
    fn cg_subwarps_reduce_rebalance_cost() {
        // Many tiny per-leaf merges: CG packing should be cheaper.
        let run = |cg: bool| {
            let mut cfg = GpmaConfig::default();
            cfg.cg_subwarps = cg;
            let mut pma = Gpma::new(0, cfg);
            // Seed spread-out keys so batches hit many distinct segments.
            let seed: Vec<(u32, u32, ELabel)> =
                (0..2000u32).map(|i| (i, i + 4000, NO_ELABEL)).collect();
            pma.insert_edges(&seed);
            pma.reset_stats();
            for b in 0..10u32 {
                let batch: Vec<(u32, u32, ELabel)> = (0..50u32)
                    .map(|i| (i * 37 % 2000, 6000 + b * 50 + i, NO_ELABEL))
                    .collect();
                pma.insert_edges(&batch);
            }
            pma.stats().rebalance_cycles
        };
        assert!(
            run(true) < run(false),
            "CG sub-warps should cut rebalance cost"
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_state_and_geometry() {
        let mut pma = Gpma::new(50, GpmaConfig::default());
        let edges: Vec<(u32, u32, ELabel)> = (0..300u32)
            .map(|i| (i % 50, 50 + i % 200, (i % 5) as ELabel))
            .collect();
        pma.insert_edges(&edges);
        pma.delete_edges(
            &edges[..40]
                .iter()
                .map(|&(u, v, _)| (u, v))
                .collect::<Vec<_>>(),
        );
        pma.assert_consistent();

        let blob = pma.snapshot_bytes();
        let back = Gpma::from_snapshot_bytes(&blob, GpmaConfig::default()).unwrap();
        assert_eq!(back.num_edges(), pma.num_edges());
        assert_eq!(back.num_vertices(), pma.num_vertices());
        // Geometry preserved exactly, not just contents.
        assert_eq!(back.num_segments(), pma.num_segments());
        let a: Vec<(u64, ELabel)> = pma.iter().collect();
        let b: Vec<(u64, ELabel)> = back.iter().collect();
        assert_eq!(a, b);
        for v in 0..50u32 {
            assert_eq!(back.degree(v), pma.degree(v));
            let x: Vec<_> = pma.neighbor_run(v).collect();
            let y: Vec<_> = back.neighbor_run(v).collect();
            assert_eq!(x, y, "neighbor run drift at {v}");
        }
        // Restored store keeps working as a live store.
        let mut back = back;
        assert_eq!(back.insert_edges(&[(0, 49, 9)]), 1);
        back.assert_consistent();
    }

    #[test]
    fn snapshot_empty_store_roundtrip() {
        let pma = Gpma::new(7, GpmaConfig::default());
        let back = Gpma::from_snapshot_bytes(&pma.snapshot_bytes(), GpmaConfig::default()).unwrap();
        assert_eq!(back.num_edges(), 0);
        assert_eq!(back.num_vertices(), 7);
    }

    #[test]
    fn snapshot_rejects_truncation_and_mismatched_geometry() {
        let mut pma = Gpma::new(10, GpmaConfig::default());
        pma.insert_edges(&[(0, 1, 1), (2, 3, 2)]);
        let blob = pma.snapshot_bytes();
        for cut in 0..blob.len() {
            assert!(
                Gpma::from_snapshot_bytes(&blob[..cut], GpmaConfig::default()).is_err(),
                "cut at {cut}"
            );
        }
        let mut other = GpmaConfig::default();
        other.seg_size = 64;
        assert!(Gpma::from_snapshot_bytes(&blob, other).is_err());
        // A header vertex count that leaves key sources 2 and 3 out (the
        // degree section trimmed to match) is an error, not an index out
        // of bounds. Degree entries: 12 bytes per live vertex (0..4), 4
        // per isolated one (4..10).
        let degrees_at = blob.len() - (4 * 12 + 6 * 4);
        let mut short = blob[..degrees_at + 2 * 12].to_vec();
        short[12..16].copy_from_slice(&2u32.to_le_bytes());
        assert!(Gpma::from_snapshot_bytes(&short, GpmaConfig::default()).is_err());
    }
}
