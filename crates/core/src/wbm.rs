//! WBM — the warp-centric batch-dynamic subgraph matching kernel
//! (Algorithm 1), as a [`WarpTask`] state machine for the SIMT simulator.
//!
//! One task = one update edge (the paper's warp-centric assignment), and
//! one launch = one query's plan: the registry runs a group of
//! subscriptions to one pattern as a single launch of that pattern and
//! copies its result to each subscriber. The DFS of Algorithm 1 is kept in
//! explicit per-level frames (`C[l]`, `p[l]`, the partial match `M`),
//! which is exactly the state the paper parks in shared memory — and
//! exactly what lets
//!
//! * the block scheduler interleave warps deterministically,
//! * idle warps **steal half of the unexplored work at the shallowest
//!   level** (§V-A): a task offers what its split would take
//!   ([`WarpTask::offer`]: half the shallowest frame with two or more
//!   unexplored candidates, else half its pending partials, else half its
//!   unstarted seeds, which sit at level 1), the thief picks the
//!   shallowest offer of its block, and a warp that finds none waits for
//!   the next busy warp that offers one. A frame that holds a count-only
//!   memo stays whole: each of its siblings costs one binary probe of the
//!   memo, which a thief would rescan,
//! * waiting warps **share a busy warp's scan**: the work a
//!   `GenCandidates` scan charges after its directory locate (the base
//!   run and candidate-row reads, the gate compute, the bitmap probes and
//!   the chunked intersections, in either probe direction) is marked
//!   shareable ([`WarpCtx::shareable`]), and the block scheduler splits
//!   it between the scanning warp and its block's waiting warps when
//!   that pays ([`gamma_gpu::run_block`]); a shard unit has no block and
//!   drains its steps without reading the share — and
//! * **coalesced search** inject permuted `V^k` partial matches as pending
//!   subtrees instead of re-traversing the same data subgraph (§V-B).
//!
//! Duplicate suppression across anchors follows \[19\] as cited in §IV-C:
//! while enumerating from update edge #o, any data edge that is itself an
//! update of the current phase with order < o is rejected, so every
//! incremental match is attributed to exactly one (its lowest-order)
//! anchor.
//!
//! # Hot-path discipline
//!
//! `GenCandidates` is the innermost loop of the whole system and is kept
//! **allocation-free in steady state**: the base adjacency is scanned
//! straight off the GPMA vertex-directory run ([`Gpma::neighbor_run`],
//! zero-copy), candidate buffers and frame stacks are recycled through a
//! pool per host thread (reuse is reported via `KernelStats::buf_reuse` /
//! `buf_alloc`, counted per task), and the
//! anchor-order dedup rule reads a sorted array of the batch's update
//! edges through a small hashed index of their endpoints
//! ([`UpdateOrder`]).
//!
//! Backward-edge checks are **chunked**, not per-element: base-run
//! survivors are gathered into [`CHUNK_WIDTH`]-wide chunks and each chunk
//! is intersected against every other matched vertex's run in one
//! [`Gpma::run_seek_chunk`] merge pass, carrying a u64 survivor mask
//! between probes (the host realization of §IV-C's warp-cooperative
//! intersection, in GSI's Prealloc-Combine shape: gather → mask AND →
//! popcount → contention-free ascending emit). Backward runs additionally
//! get the u64 run signature the store maintains ([`Gpma::signatures`]) in
//! front of the exact probe, so most misses die on a single AND+popcount
//! without touching the run. Both paths are exact filters — a rejected
//! lane is *proven* absent — so results stay bit-identical with the scalar
//! galloping reference (`KernelShared::signatures` set to `false` disables
//! the prefilter for parity testing).
//!
//! Nothing a launch sets up scales with the graph: the signatures are the
//! store's, and the dedup rule's incident index ([`UpdateOrder`]) is sized
//! by the phase's anchors.
//!
//! Tasks borrow their launch. A [`WbmTask`] is the search state it
//! writes and nothing else: the launch lends its `&KernelShared` (the
//! task's [`WarpTask::Launch`]) to every step and every split, and each
//! block of the launch holds the one `Arc` to it. So no `Arc` is cloned
//! per task or per steal, a DFS step changes no reference count, and the
//! hot loop writes only memory its task or thread owns. Shared memory is
//! written only when a task flushes its matches, every `FLUSH_THRESHOLD`
//! (1024) of them, and when it finishes. This matters on the host: a
//! counter that launch threads on different cores write moves its cache
//! line between the cores on every write.
//!
//! A task owns no scratch. Its step borrows its thread's (candidate
//! buffers, frame stacks and scan buffers), and so does a steal, whose
//! taken candidates go into a buffer from that pool. A thief is a plain
//! task value, so it starts with warm buffers, and a steal allocates only
//! while its thread's buffers warm up.
//!
//! # Count-only launches and coalesced search
//!
//! Without `collect`, the last DFS level is counted, never materialized:
//! a last frame collapses into one bulk count, and a second-to-last level
//! stream-counts its child's candidates (memoized across siblings when
//! they cannot differ).
//! Seeds of a **whole-query class** (`k = 0`, `vk_size == n`) keep both
//! fast paths: each counted match stands for itself plus one permuted
//! match per class member, the matches collect mode emits one by one, so
//! the count is multiplied by `1 + members`. That multiply is exact. A
//! `k = 0` member permutation is an automorphism of the whole query,
//! which keeps vertex labels, degrees and edge labels, so every permuted
//! match is a valid embedding over the same data vertices and the same
//! data edges. Injectivity and the anchor-order dedup rule (which looks
//! only at which data edges a match uses) therefore hold for it exactly
//! when they hold for the representative match. The candidate-table
//! recheck in collect mode can never fail either, since an automorphism
//! keeps every query vertex's code; a `debug_assert!` there states it.
//! `k > 0` classes still push permuted partials to extend: their removed
//! vertices constrain the permuted roles differently. Shard launches plan
//! whole-query classes only ([`crate::ShardedConfig::base`]). A shard
//! unit would split a k > 0 class's pending partials off like any other
//! work, but with the cap lifted 9 of the 27 SHARD cells of the
//! fixed-trace replay do more simulated work, GH Dense 67% more.
//!
//! # One scan shape, and shard units
//!
//! A scan's **base** is the matched backward neighbor with the least
//! `(degree, vertex id)`; the other backward neighbors are probed in
//! query-adjacency order. `backward_set` is the one definition of both,
//! shared with the shard executor's migration routing and batch-steal
//! eligibility, which must agree with the scans exactly.
//!
//! The shard executor ([`crate::shard`]) runs this same search. A shard
//! unit (an anchor's seed sweep, an arrived migrant's subtree, or a part
//! split off a unit) steps one search on one [`WarpCtx`] and keeps its
//! matches, count and shipped migrants as its outcome instead of flushing
//! them. With device stealing on it also splits: every `SPLIT_BUDGET`
//! (65,536) cycles, while its weighted work hint is at least
//! `SPLIT_MIN_HINT` (32), it hands work off through the split the device's
//! warps steal with, in the same order but memoized frames included, and
//! the part runs as a unit of its own. Its launch carries a residency context
//! ([`KernelShared::residency`]; `None` on the single device, where nothing
//! migrates or flips), and the search knows its shard. Before every scan
//! (the warm frame, the count-only last level and its memo, the next-level
//! generation) the search runs a **license check**: the scan may run here
//! when the base's live owner is this shard or every backward vertex is
//! resident here (a migrant's first scan is licensed by its delivery). An
//! unlicensed scan ships the subtree to the base's owner as a migrant and
//! the level counts as empty here. A licensed scan whose non-base backward
//! runs are not all resident takes the **flipped direction**: each
//! candidate's own run (complete, since the base is owned here and
//! residency covers its one-hop boundary) is probed for every backward
//! vertex in one [`Gpma::run_seek_chunk`] pass. All shards read one shared
//! store that holds every run, so debug builds assert that every run a scan
//! reads is resident on its shard: a scan past a missing license check
//! would otherwise still return correct matches.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use gamma_gpma::{Gpma, RunCursor, CHUNK_WIDTH};
use gamma_gpu::{lock, Offer, StepResult, WarpCtx, WarpTask};
use gamma_graph::{ELabel, QueryGraph, Update, VMatch, VertexId};

use crate::auto::{permute_partial, CoalescedPlan};
use crate::encoding::CandidateTable;
use crate::order::matching_order;
use crate::shard::{Migrant, Residency, UnitWork};

/// Candidate attempts processed per scheduler quantum; bounds step length
/// so intra-block interleaving (and thus stealing) stays fine-grained.
const ATTEMPTS_PER_STEP: usize = 4;
/// Complete matches emitted per quantum at the last level.
const EMITS_PER_STEP: usize = 64;
/// Local match-buffer size before flushing to the shared sink.
const FLUSH_THRESHOLD: usize = 1024;
/// Survivor chunks narrower than this are intersected candidate-by-
/// candidate (early-exit scalar probes) instead of mask-carrying chunked
/// merges: the per-lane bookkeeping only amortizes on wide fronts.
const SCALAR_CHUNK_MIN: usize = 8;
/// Kernel steps between two reads of the clock against a batch deadline;
/// every task also reads it on its first step. A clock read costs tens of
/// nanoseconds, a step typically more.
pub const DEADLINE_POLL_STEPS: u32 = 64;

/// Sets `abort` once `deadline` has passed. Reads the clock on a task's
/// first step and on every [`DEADLINE_POLL_STEPS`]th after it; `steps`
/// counts the calling task's steps. A deadline that passed before the
/// launch therefore aborts every task before its first scan.
#[inline]
pub(crate) fn poll_deadline(deadline: Option<Instant>, steps: &mut u32, abort: &AtomicBool) {
    let Some(at) = deadline else {
        return;
    };
    if steps.is_multiple_of(DEADLINE_POLL_STEPS) && Instant::now() >= at {
        abort.store(true, Ordering::Relaxed);
    }
    *steps = steps.wrapping_add(1);
}

/// One seed: a query edge the kernel maps update edges onto, with its
/// offline matching order.
#[derive(Clone, Debug)]
pub struct SeedPlan {
    /// Query edge endpoints.
    pub a: u8,
    /// Query edge endpoints.
    pub b: u8,
    /// Required edge label.
    pub elabel: ELabel,
    /// Matching order `π` (starts `[a, b]`; for class representatives the
    /// whole `V^k` precedes `R^k`).
    pub order: Vec<u8>,
    /// If this seed is a coalesced-search class representative: the class
    /// index in [`QueryMeta::plan`].
    pub class: Option<usize>,
    /// Number of leading order positions inside `V^k` (= `n` if no class).
    pub vk_size: usize,
}

/// Immutable per-query kernel metadata: seeds and the coalesced plan.
#[derive(Clone, Debug)]
pub struct QueryMeta {
    /// The query graph.
    pub q: QueryGraph,
    /// Seeds, one per searched query edge (class members are folded into
    /// their representative when coalesced search is on).
    pub seeds: Vec<SeedPlan>,
    /// The coalesced-search plan (empty when disabled).
    pub plan: CoalescedPlan,
    /// Per class: `V^k`-restricted query-vertex codes, indexed by original
    /// query vertex id. During the `V^k` phase of a representative search,
    /// candidates are gated by these *induced-subgraph* constraints — full-
    /// query constraints would wrongly reject vertices that only fit a
    /// member edge's (weaker) role and are recovered by permutation
    /// ("Avoid Invalid Matching", §V-B). `u64::MAX` for vertices ∉ `V^k`.
    pub class_vk_codes: Vec<Vec<u64>>,
}

impl QueryMeta {
    /// Builds kernel metadata. With `coalesced` off every query edge gets a
    /// seed; with it on, class member edges are skipped (their matches are
    /// produced by permutation from the representative's search).
    pub fn build(
        q: &QueryGraph,
        table: &CandidateTable,
        scheme: &crate::encoding::EncodingScheme,
        coalesced: bool,
        max_k: usize,
    ) -> Self {
        let plan = if coalesced {
            CoalescedPlan::build(q, max_k)
        } else {
            CoalescedPlan::default()
        };
        let n = q.num_vertices();
        let mut class_vk_codes = Vec::with_capacity(plan.classes.len());
        for class in &plan.classes {
            let (sub, back) = q.induced(class.vk_mask);
            let mut codes = vec![u64::MAX; n];
            for (new_idx, &orig) in back.iter().enumerate() {
                codes[orig as usize] = scheme.encode_query_vertex(&sub, new_idx as u8);
            }
            class_vk_codes.push(codes);
        }
        let mut seeds = Vec::new();
        for e in q.edges() {
            match plan.role(e.u, e.v) {
                Some((_ci, false)) => continue, // member: covered by its rep
                Some((ci, true)) => {
                    let class = &plan.classes[ci];
                    seeds.push(SeedPlan {
                        a: e.u,
                        b: e.v,
                        elabel: e.label,
                        order: matching_order(q, e.u, e.v, table, Some(class.vk_mask)),
                        class: Some(ci),
                        vk_size: class.vk_size,
                    });
                }
                None => {
                    seeds.push(SeedPlan {
                        a: e.u,
                        b: e.v,
                        elabel: e.label,
                        order: matching_order(q, e.u, e.v, table, None),
                        class: None,
                        vk_size: n,
                    });
                }
            }
        }
        Self {
            q: q.clone(),
            seeds,
            plan,
            class_vk_codes,
        }
    }
}

/// State shared by every warp task of one kernel launch.
pub struct KernelShared {
    /// The device edge store being searched (pre-update graph for the
    /// negative phase, post-update graph for the positive phase). Every
    /// grid of one multi-grid launch searches the same store.
    pub gpma: Arc<Gpma>,
    /// Query metadata.
    pub meta: Arc<QueryMeta>,
    /// Candidate table matching `gpma`'s graph state.
    pub table: CandidateTable,
    /// Per-data-vertex NLF codes matching `gpma`'s graph state (used for
    /// the `V^k`-restricted candidate tests of coalesced search).
    pub encodings: Arc<Vec<u64>>,
    /// Canonical edge key → anchor order, for the dedup rule. Contains the
    /// current phase's update edges only.
    pub update_order: UpdateOrder,
    /// Collected matches (when `collect` is set).
    pub sink: Mutex<Vec<VMatch>>,
    /// Total matches found (always maintained).
    pub match_count: AtomicU64,
    /// Whether to materialize matches into `sink`.
    pub collect: bool,
    /// Cooperative abort flag (timeout / match-limit).
    pub abort: Arc<AtomicBool>,
    /// The batch deadline: tasks poll it ([`DEADLINE_POLL_STEPS`]) and set
    /// `abort` once it has passed. `None`: no deadline.
    pub deadline: Option<Instant>,
    /// Abort the launch once this many matches were found.
    pub match_limit: u64,
    /// Put the store's maintained run signatures ([`Gpma::signatures`])
    /// in front of the exact chunked probe as a quick-reject. `false`
    /// disables the prefilter — results are bit-identical either way (a
    /// clear bit proves absence); the toggle exists for parity testing and
    /// ablation.
    pub signatures: bool,
    /// The shard residency context of a launch on the shard executor
    /// (`None` on the single device): the license check and the probe
    /// direction of every scan read it (see the module docs).
    pub residency: Option<Residency>,
}

impl KernelShared {
    /// Adds `n` matches to the launch's count and raises `abort` once it
    /// passes `match_limit`.
    pub(crate) fn note_matches(&self, n: u64) {
        let total = self.match_count.fetch_add(n, Ordering::Relaxed) + n;
        if total > self.match_limit {
            self.abort.store(true, Ordering::Relaxed);
        }
    }

    /// Candidate gate for query vertex `qv` at a given DFS `level` of
    /// `seed`. Inside a class representative's `V^k` phase the test uses
    /// the `V^k`-restricted code (weaker, so member-edge matches survive to
    /// be recovered by permutation); everywhere else it uses the full
    /// candidate table.
    #[inline]
    fn candidate_ok(&self, seed: &SeedPlan, level: usize, qv: u8, v: VertexId) -> bool {
        match seed.class {
            Some(ci) if level < seed.vk_size => {
                let ucode = self.meta.class_vk_codes[ci][qv as usize];
                let vcode = self.encodings.get(v as usize).copied().unwrap_or(0);
                crate::encoding::EncodingScheme::is_candidate(ucode, vcode)
            }
            _ => self.table.is_candidate(v, qv),
        }
    }
}

/// One DFS frame: the candidate list `C[l]` and cursor `p[l]` of a level.
#[derive(Clone, Debug)]
struct Frame {
    cands: Vec<VertexId>,
    p: usize,
    /// Count-only memo: the sorted candidate set of the **last** DFS level
    /// when it is independent of this frame's own assignment (i.e. the
    /// last query vertex has no backward edge to this level's vertex).
    /// Every sibling then resolves in one binary search — membership of
    /// the sibling's own vertex is the only per-sibling difference — in
    /// place of a full rescan of the base run.
    memo_last: Option<Vec<VertexId>>,
}

/// A permuted `V^k` partial match (coalesced search) awaiting suffix
/// extension.
#[derive(Clone, Debug)]
struct PendingPartial {
    m: VMatch,
    seed: usize,
    /// DFS level the suffix search resumes at (the seed's `vk_size`).
    base_level: usize,
}

/// The DFS engine state for the current seed / pending partial.
#[derive(Clone, Debug)]
struct DfsState {
    seed: usize,
    /// First DFS level of this search (2 for fresh seeds, `vk_size` for
    /// permuted partials, arbitrary for stolen subtrees).
    base_level: usize,
    /// Assignments for all levels `< base_level + frames.len() - 1` plus
    /// the current candidates of non-top frames.
    m: VMatch,
    frames: Vec<Frame>,
    /// Needs its initial frame generated on the next step.
    warm: bool,
}

impl DfsState {
    /// Unexplored candidates of frame `fi`. A non-top frame has its
    /// current candidate assigned at `p`, so its unexplored ones start at
    /// `p + 1`; the top frame's start at `p`.
    fn unexplored(&self, fi: usize) -> usize {
        let f = &self.frames[fi];
        let first = if fi + 1 == self.frames.len() {
            f.p
        } else {
            f.p + 1
        };
        f.cands.len().saturating_sub(first)
    }

    /// The shallowest frame with at least two unexplored candidates. With
    /// `keep_memo` a frame that holds a count-only memo
    /// ([`Frame::memo_last`]) is passed over: each of its siblings costs
    /// one binary probe of the memo, which a thief would have to rescan.
    fn split_frame_at(&self, keep_memo: bool) -> Option<usize> {
        (0..self.frames.len()).find(|&fi| {
            self.unexplored(fi) >= 2 && !(keep_memo && self.frames[fi].memo_last.is_some())
        })
    }

    /// The parent partial match of the frame at `level`: the assignments
    /// of the levels above it. `order` is the state's seed order.
    fn parent(&self, order: &[u8], level: usize) -> VMatch {
        let mut m = VMatch::EMPTY;
        for &qv in &order[..level] {
            if let Some(v) = self.m.get(qv) {
                m.set(qv, v);
            }
        }
        m
    }

    /// Splits off half of frame `fi`'s unexplored candidates, with their
    /// parent partial match (the paper's "appropriates half of the
    /// unexplored candidates along with their parents"). `order` is the
    /// state's seed order; the taken candidates are copied into a buffer
    /// from `buf`, and the new state's frame stack comes from `scratch`.
    fn split_frame(
        &mut self,
        fi: usize,
        order: &[u8],
        scratch: &mut Scratch,
        buf: impl FnOnce(&mut Scratch) -> Vec<VertexId>,
    ) -> DfsState {
        let level = self.base_level + fi;
        let keep = self.frames[fi].cands.len() - self.unexplored(fi) / 2;
        let f = &mut self.frames[fi];
        let mut stolen = buf(scratch);
        stolen.extend_from_slice(&f.cands[keep..]);
        f.cands.truncate(keep);
        let mut frames = scratch.stack();
        frames.push(Frame {
            cands: stolen,
            p: 0,
            memo_last: None,
        });
        DfsState {
            seed: self.seed,
            base_level: level,
            m: self.parent(order, level),
            frames,
            warm: false,
        }
    }
}

/// What a split of a search takes, in the order [`WbmTask::take`] looks
/// for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Take {
    /// Half the unexplored candidates of the running state's frame `.0`.
    Frame(usize),
    /// Half the pending partials, from the back.
    Pending,
    /// Half the unstarted seed slots, from the back.
    Seeds,
}

/// The warp task for one update edge: the search state it writes. Its
/// steps and splits take the launch's state as a `&KernelShared` borrow,
/// so a task holds no reference to it, and a DFS step writes only memory
/// its task or thread owns.
pub struct WbmTask {
    /// Update edge endpoints (anchor).
    v1: VertexId,
    v2: VertexId,
    elabel: ELabel,
    /// This anchor's order `o` in the batch.
    anchor_order: u32,
    /// Seed slots not yet started: slot `k` is seed `k / 2` in orientation
    /// `k % 2` (`1`: flipped).
    seeds: Range<usize>,
    pending: VecDeque<PendingPartial>,
    state: Option<DfsState>,
    local: Vec<VMatch>,
    local_count: u64,
    /// Buffers this search returned to the scratch and has not drawn
    /// again: what a pool of its own would hold. A draw counts as reused
    /// ([`WarpCtx::note_buffer`]) when this is nonzero, so the buffer
    /// stats do not depend on which thread ran the search.
    spare: u32,
    /// Steps taken, for [`poll_deadline`].
    steps: u32,
    /// The shard a unit search runs on (`None`: a device task). A unit
    /// keeps its matches and count as its outcome and ships the subtrees
    /// its shard may not scan into `migrants`.
    shard: Option<usize>,
    /// The next warm scan is licensed by delivery: the fabric delivers a
    /// migrant only to its base's owner or to a residency-eligible thief.
    delivered: bool,
    /// Subtrees shipped by unlicensed scans, in order, with their
    /// destination shards.
    migrants: Vec<(usize, Migrant)>,
}

/// A search's reusable buffers. No search owns any: a device task borrows
/// its thread's for each step, and a shard unit for its whole run
/// ([`run_unit`]), so searches allocate only while the thread's buffers
/// warm up, and a thief starts with warm buffers.
#[derive(Default)]
struct Scratch {
    /// Recycled candidate buffers: every popped DFS frame returns its
    /// vector here and every new frame draws from here, so steady-state
    /// quanta perform no heap allocation.
    pool: Vec<Vec<VertexId>>,
    /// Recycled frame stacks: every finished DFS state returns its (empty)
    /// stack here and every new one draws from here.
    stacks: Vec<Vec<Frame>>,
    /// The scanned level's matched backward neighbors ([`backward_set`]).
    backward: Vec<(VertexId, ELabel)>,
    /// One probe state per non-base backward vertex (resident direction).
    others: Vec<BackProbe>,
    /// The non-base backward vertices, ascending (flipped direction).
    flipped: Vec<(VertexId, ELabel)>,
    /// Gather buffer: base-run survivors staged for the chunked backward
    /// intersection (the pooled output region of the Prealloc-Combine
    /// pass).
    chunk: Vec<VertexId>,
    /// Scans this thread ran ([`WbmTask::scan_candidates`]): tests tell
    /// the steps that scanned by it.
    #[cfg(test)]
    scans: u64,
}

thread_local! {
    /// Each thread's search scratch, reused by every device task step and
    /// shard unit it runs, launch after launch.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

impl Scratch {
    /// Draws an empty candidate buffer from the pool (warm-up allocates;
    /// steady state recycles) for a search with `spare` buffers of its
    /// own ([`WbmTask::spare`]), reporting to `meter` whether those served.
    fn buf(&mut self, spare: &mut u32, meter: Option<&mut WarpCtx>) -> Vec<VertexId> {
        if let Some(ctx) = meter {
            ctx.note_buffer(*spare > 0);
        }
        *spare = spare.saturating_sub(1);
        self.pool.pop().map_or_else(Vec::new, |mut b| {
            b.clear();
            b
        })
    }

    /// Draws an empty frame stack.
    fn stack(&mut self) -> Vec<Frame> {
        self.stacks.pop().unwrap_or_default()
    }
}

/// Per-scan probe state for one backward-matched vertex: which run to
/// intersect against, the merge cursor into it, the dedup incident range,
/// the optional bitmap signature, and the accounting the cost model is
/// charged from after the scan.
struct BackProbe {
    el: ELabel,
    cur: RunCursor,
    inc: IncidentRange,
    /// u64 run signature when the run is narrow enough ([`CHUNK_WIDTH`]
    /// neighbors) for the bitmap quick-reject to pay off.
    sig: Option<u64>,
    /// Lanes tested against the signature (bitmap-probe accounting).
    tested: u32,
    /// Lanes that reached the exact chunked probe.
    probed: u32,
    /// Cursor entries remaining at scan start (covered-span accounting).
    rem0: u32,
}

/// The cheap per-vertex gates every base-run neighbor of a scan passes
/// before any backward probe: the edge label, the candidate code,
/// injectivity, and the anchor-order dedup rule for the base back-edge
/// (almost every base has no incident update edge, making that one length
/// test). Fixed for the whole scan.
struct Gate<'a> {
    bel: ELabel,
    qv: u8,
    /// The `V^k`-restricted code inside a class representative's `V^k`
    /// phase; else the candidate table decides.
    vk_code: Option<u64>,
    encodings: &'a [u64],
    table: &'a CandidateTable,
    m: &'a VMatch,
    uord: &'a UpdateOrder,
    /// The base's incident update edges.
    incident: IncidentRange,
    anchor_order: u32,
}

impl Gate<'_> {
    /// Whether base-run neighbor `cand`, over an edge labeled `el`,
    /// passes. Forced inline: it is the scan's innermost test.
    #[inline(always)]
    fn pass(&self, cand: VertexId, el: ELabel) -> bool {
        el == self.bel
            && match self.vk_code {
                Some(uc) => crate::encoding::EncodingScheme::is_candidate(
                    uc,
                    self.encodings.get(cand as usize).copied().unwrap_or(0),
                ),
                None => self.table.is_candidate(cand, self.qv),
            }
            && !self.m.uses(cand)
            && (self.incident.is_empty()
                || !matches!(
                    self.uord.order_within(self.incident, cand),
                    Some(o) if o < self.anchor_order
                ))
    }
}

/// Cycles a shard unit runs between two splits. With device stealing on,
/// a unit that has spent this many since it started or last split, and
/// whose work hint is at least [`SPLIT_MIN_HINT`], hands part of its work
/// to a new unit of its shard. Picked from a sweep of 16,384 to 262,144
/// cycles: on the `sharded` benchmark stream each halving cut the
/// simulated cycles by 14–21% and made 1.6–1.8× as many splits, each of
/// which costs host time and heap.
pub(crate) const SPLIT_BUDGET: u64 = 65_536;

/// The least work hint ([`WbmTask::work_hint`]) at which a shard unit
/// splits: an unexplored frame candidate counts 1, a pending partial 8,
/// an unstarted seed slot 16. Device steals have no minimum.
pub(crate) const SPLIT_MIN_HINT: u64 = 32;

/// Work split off a shard unit through the device's split (half the
/// shallowest frame, else half the pending partials, else half the
/// unstarted seeds): a fresh search of the unit's anchor over what it
/// took. It runs as a unit of its own ([`UnitWork::Part`]). Its next scan
/// runs the license check, so any live shard may run it. Boxed, so that
/// the units queued on a shard stay small.
pub(crate) struct Part(Box<WbmTask>);

impl Part {
    /// The lower endpoint of the part's anchor.
    pub(crate) fn anchor_lo(&self) -> VertexId {
        self.0.v1.min(self.0.v2)
    }
}

impl Clone for Part {
    fn clone(&self) -> Self {
        Part(Box::new(self.0.copy()))
    }
}

/// What a shard unit did ([`run_unit`]).
pub(crate) struct UnitRun {
    /// Cycles the unit spent, its hand-offs included.
    pub(crate) cycles: u64,
    /// Its matches (collect mode).
    pub(crate) matches: Vec<VMatch>,
    /// Its match count.
    pub(crate) count: u64,
    /// The subtrees its unlicensed scans shipped, in order, with their
    /// destination shards.
    pub(crate) migrants: Vec<(usize, Migrant)>,
    /// The parts it split off, in order, each with the cycle offset into
    /// the unit at which it left.
    pub(crate) parts: Vec<(u64, Part)>,
}

/// Runs one shard unit to completion on `shard`, metered on `ctx`: an
/// anchor's sweep of every seed in both orientations, an arrived
/// migrant's subtree, or a part split off a unit.
///
/// With `split_hint` set ([`SPLIT_MIN_HINT`], when device stealing is on)
/// the unit splits every [`SPLIT_BUDGET`] cycles while its work hint
/// ([`WbmTask::work_hint`]) is at least `split_hint`: it hands a [`Part`]
/// off through the device's split, memoized frames included. A shard's
/// lanes span SMs and share no shared memory, so a hand-off is one
/// coalesced global transfer of the part on each side: the unit pays it
/// when the part leaves, the part when it starts. The part's candidate
/// buffer comes from this thread's pool, which gets it back when the part's
/// frame pops.
///
/// The outcome depends only on the unit, the shard and `sh`: the search
/// starts empty and clears every scratch buffer it draws from this
/// thread's, so a unit run ahead on any thread has the outcome of one run
/// inline. Only the buffer-reuse counters see which thread it ran on.
pub(crate) fn run_unit(
    sh: &KernelShared,
    shard: usize,
    work: UnitWork,
    split_hint: Option<u64>,
    ctx: &mut WarpCtx,
) -> UnitRun {
    let mut search = match work {
        UnitWork::Anchor(a, order) => WbmTask::new(sh, &a, order),
        UnitWork::Mig(mig) => {
            debug_assert_eq!(
                Some(mig.qid),
                sh.residency.as_ref().map(|r| r.query_id),
                "migrant envelope routed to a different standing query"
            );
            // Resuming a partial, like a pending partial's pull.
            ctx.compute(2);
            let (v1, v2, elabel) = mig.anchor;
            WbmTask {
                state: Some(DfsState {
                    seed: mig.seed,
                    base_level: mig.base_level,
                    m: mig.m,
                    // From the pool its retirement returns it to.
                    frames: SCRATCH.with_borrow_mut(Scratch::stack),
                    warm: true,
                }),
                delivered: true,
                ..WbmTask::idle(v1, v2, elabel, mig.anchor_order)
            }
        }
        UnitWork::Part(Part(search)) => {
            ctx.global_read_coalesced(search.work_hint().max(1));
            *search
        }
    };
    search.shard = Some(shard);
    let (mut cycles, mut since, mut parts) = (0u64, 0u64, Vec::new());
    SCRATCH.with_borrow_mut(|sc| loop {
        let done = search.step_with(sh, sc, ctx) == StepResult::Done;
        cycles += ctx.take_step_cycles();
        if done {
            break;
        }
        let Some(min_hint) = split_hint else {
            continue;
        };
        if cycles - since < SPLIT_BUDGET || search.work_hint() < min_hint {
            continue;
        }
        if let Some(take) = search.take(false) {
            let part = search.split(sh, sc, take, Some(&mut *ctx));
            ctx.global_read_coalesced(part.work_hint().max(1));
            cycles += ctx.take_step_cycles();
            since = cycles;
            parts.push((cycles, Part(Box::new(part))));
        }
    });
    UnitRun {
        cycles,
        matches: search.local,
        count: search.local_count,
        migrants: search.migrants,
        parts,
    }
}

/// The matched backward neighbors of query vertex `qv` under `m` —
/// `(data vertex, required edge label)`, in query-adjacency order — into
/// `out`, and the index in `out` of the scan's base: the one with the
/// least `(degree, vertex id)`.
///
/// This is the **single definition** of a scan's reads, used by every
/// scan, by the license check, and by the shard executor's migrant
/// routing and batch-steal eligibility: they must agree exactly, or a
/// thief could be licensed to run a scan that reads a run its shard does
/// not hold, and a requeued migrant could bounce between shards.
pub(crate) fn backward_set(
    q: &QueryGraph,
    qv: u8,
    m: &VMatch,
    gpma: &Gpma,
    out: &mut Vec<(VertexId, ELabel)>,
) -> usize {
    out.clear();
    let mut base: Option<(usize, VertexId, usize)> = None; // (index, vertex, degree)
    for &(un, el) in q.neighbors(qv) {
        if let Some(dv) = m.get(un) {
            let deg = gpma.degree(dv);
            if base.is_none_or(|(_, bv, bdeg)| (deg, dv) < (bdeg, bv)) {
                base = Some((out.len(), dv, deg));
            }
            out.push((dv, el));
        }
    }
    base.expect("connected matching order").0
}

impl WbmTask {
    /// Creates the task for `anchor` (an insertion for the positive phase,
    /// a deletion for the negative phase) with batch order `anchor_order`:
    /// a sweep of every seed of `sh`'s plan in both orientations.
    pub fn new(sh: &KernelShared, anchor: &Update, anchor_order: u32) -> Self {
        Self {
            seeds: 0..2 * sh.meta.seeds.len(),
            ..Self::idle(anchor.u, anchor.v, anchor.label, anchor_order)
        }
    }

    /// An idle search of one anchor: nothing queued.
    fn idle(v1: VertexId, v2: VertexId, elabel: ELabel, anchor_order: u32) -> Self {
        Self {
            v1,
            v2,
            elabel,
            anchor_order,
            seeds: 0..0,
            pending: VecDeque::new(),
            state: None,
            local: Vec::new(),
            local_count: 0,
            spare: 0,
            steps: 0,
            shard: None,
            delivered: false,
            migrants: Vec::new(),
        }
    }

    /// A fresh search of this one's anchor (the shape every `try_split`
    /// thief starts from).
    fn child(
        &self,
        seeds: Range<usize>,
        pending: VecDeque<PendingPartial>,
        state: Option<DfsState>,
    ) -> WbmTask {
        WbmTask {
            seeds,
            pending,
            state,
            ..WbmTask::idle(self.v1, self.v2, self.elabel, self.anchor_order)
        }
    }

    /// A fresh search of this one's anchor over a copy of its unexplored
    /// work.
    fn copy(&self) -> WbmTask {
        self.child(self.seeds.clone(), self.pending.clone(), self.state.clone())
    }

    /// Returns a frame's candidate buffer to the scratch.
    #[inline]
    fn recycle(&mut self, sc: &mut Scratch, buf: Vec<VertexId>) {
        self.spare += 1;
        sc.pool.push(buf);
    }

    /// Pops `st`'s top frame and recycles its buffers.
    fn pop_frame(&mut self, sc: &mut Scratch, st: &mut DfsState) {
        if let Some(f) = st.frames.pop() {
            self.recycle(sc, f.cands);
            if let Some(s) = f.memo_last {
                self.recycle(sc, s);
            }
        }
    }

    fn flush(&mut self, sh: &KernelShared) {
        // A shard unit's matches and count are its outcome, which the
        // shard scheduler commits.
        if self.shard.is_some() {
            return;
        }
        if self.local_count > 0 {
            sh.note_matches(self.local_count);
            self.local_count = 0;
        }
        if !self.local.is_empty() {
            lock(&sh.sink).append(&mut self.local);
        }
    }

    fn emit(&mut self, sh: &KernelShared, m: VMatch) {
        self.local_count += 1;
        if sh.collect {
            self.local.push(m);
        }
        self.settle(sh);
    }

    /// After new matches: a device task flushes once a buffer is full; a
    /// shard unit keeps them and raises `abort` once its own count passes
    /// the match limit.
    #[inline]
    fn settle(&mut self, sh: &KernelShared) {
        if self.shard.is_some() {
            if self.local_count > sh.match_limit {
                sh.abort.store(true, Ordering::Relaxed);
            }
        } else if self.local.len() >= FLUSH_THRESHOLD || self.local_count >= FLUSH_THRESHOLD as u64
        {
            self.flush(sh);
        }
    }

    /// Bulk count of the count-only fast paths.
    fn note_count(&mut self, sh: &KernelShared, n: u64) {
        self.local_count += n;
        self.settle(sh);
    }

    /// Validates and installs the next seed; returns the ready state.
    fn start_seed(
        &mut self,
        sh: &KernelShared,
        sc: &mut Scratch,
        si: usize,
        flipped: bool,
        ctx: &mut WarpCtx,
    ) -> Option<DfsState> {
        let seed = &sh.meta.seeds[si];
        let (x, y) = if flipped {
            (self.v2, self.v1)
        } else {
            (self.v1, self.v2)
        };
        ctx.compute(4);
        if seed.elabel != self.elabel {
            return None;
        }
        // Candidate gate for the two anchored vertices (levels 0 and 1).
        ctx.shared_access(2);
        if !sh.candidate_ok(seed, 0, seed.a, x) || !sh.candidate_ok(seed, 1, seed.b, y) {
            return None;
        }
        let mut m = VMatch::EMPTY;
        m.set(seed.a, x);
        m.set(seed.b, y);
        Some(DfsState {
            seed: si,
            base_level: 2,
            m,
            frames: sc.stack(),
            warm: true,
        })
    }

    /// `GenCandidates` (Algorithm 1, lines 23–29): candidates for the query
    /// vertex at `level` of `seed`'s order, given partial match `m`.
    ///
    /// Allocation-free in steady state: the base run is iterated in place
    /// (vertex directory, no descent, no copy) and each remaining backward
    /// neighbor keeps a forward-only galloping cursor into its own run —
    /// candidates arrive in ascending order, so every membership probe
    /// resumes where the previous one stopped (the warp-cooperative
    /// binary-search intersection of §IV-C, now also realized on the
    /// host).
    fn gen_candidates(
        &mut self,
        sh: &KernelShared,
        sc: &mut Scratch,
        seed: &SeedPlan,
        level: usize,
        m: &VMatch,
        ctx: &mut WarpCtx,
    ) -> Vec<VertexId> {
        let mut out = sc.buf(&mut self.spare, Some(ctx));
        self.scan_candidates(sh, sc, seed, level, m, ctx, |c| out.push(c));
        out
    }

    /// [`WbmTask::gen_candidates`] without materialization: the number of
    /// valid candidates only. Used by the count-only fast path at the last
    /// DFS level, where the candidate set would be consumed solely to be
    /// counted.
    fn count_candidates(
        &mut self,
        sh: &KernelShared,
        sc: &mut Scratch,
        seed: &SeedPlan,
        level: usize,
        m: &VMatch,
        ctx: &mut WarpCtx,
    ) -> u64 {
        let mut n = 0u64;
        self.scan_candidates(sh, sc, seed, level, m, ctx, |_| n += 1);
        n
    }

    /// The license check in front of every scan: whether this search may
    /// scan `level` of seed `si` under partial match `m` where it runs. A
    /// device search always may. A shard unit may when the base's live
    /// owner is its shard or every backward vertex is resident there;
    /// otherwise it ships the subtree (just `m`) to that owner as a
    /// [`Migrant`], charged as one coalesced read of the partial match,
    /// and the caller treats the level as empty here.
    fn licensed(
        &mut self,
        sh: &KernelShared,
        sc: &mut Scratch,
        si: usize,
        level: usize,
        m: &VMatch,
        ctx: &mut WarpCtx,
    ) -> bool {
        let (Some(res), Some(shard)) = (&sh.residency, self.shard) else {
            return true;
        };
        let q = &sh.meta.q;
        let qv = sh.meta.seeds[si].order[level];
        // Residency first: it is the common license and needs no base,
        // whose choice reads every backward vertex's degree.
        let resident =
            |&(un, _): &(u8, ELabel)| m.get(un).is_none_or(|dv| res.is_resident(shard, dv));
        if q.neighbors(qv).iter().all(resident) {
            return true;
        }
        let back = &mut sc.backward;
        let bi = backward_set(q, qv, m, &sh.gpma, back);
        let owner = res.owner(back[bi].0);
        if owner == shard {
            return true;
        }
        ctx.global_read_coalesced(q.num_vertices() as u64);
        self.migrants.push((
            owner,
            Migrant {
                anchor: (self.v1, self.v2, self.elabel),
                anchor_order: self.anchor_order,
                seed: si,
                base_level: level,
                m: *m,
                qid: res.query_id,
            },
        ));
        false
    }

    /// The scan core shared by [`WbmTask::gen_candidates`] and
    /// [`WbmTask::count_candidates`]: streams every valid candidate into
    /// `sink`, in ascending vertex order. The base run ([`backward_set`])
    /// streams through the cheap per-vertex gates, and the survivors are
    /// verified against the other backward vertices in one of two probe
    /// directions, both exact:
    ///
    /// * **Resident direction** (always on the single device; on a shard
    ///   that holds every backward run), in Prealloc-Combine shape: the
    ///   survivors are **gathered** into the pooled chunk buffer, then every
    ///   [`CHUNK_WIDTH`]-wide chunk is intersected against the other
    ///   backward vertices' runs carrying a u64 survivor mask — a bitmap
    ///   quick-reject for low-degree runs, one [`Gpma::run_seek_chunk`]
    ///   merge pass otherwise — and the surviving lanes are emitted in
    ///   ascending order (popcount = the count pass, bit order = the
    ///   exclusive-scan offsets, so writes are contention-free). The result
    ///   is bit-identical with per-element galloping.
    /// * **Flipped direction** (a shard that owns the base but lacks some
    ///   other backward run): each survivor's own run, complete by the
    ///   owner's one-hop residency, is probed for every other backward
    ///   vertex in one [`Gpma::run_seek_chunk`] pass, behind a signature
    ///   quick-reject on the survivor's run.
    ///
    /// In both directions every charge after the directory locate but the
    /// signature fetch and the emit pass is shareable
    /// ([`WarpCtx::shareable`]): the block's waiting warps can split it.
    #[allow(clippy::too_many_arguments)]
    fn scan_candidates(
        &mut self,
        sh: &KernelShared,
        sc: &mut Scratch,
        seed: &SeedPlan,
        level: usize,
        m: &VMatch,
        ctx: &mut WarpCtx,
        mut sink: impl FnMut(VertexId),
    ) {
        #[cfg(test)]
        {
            sc.scans += 1;
        }
        let qv = seed.order[level];
        let q = &sh.meta.q;
        let gpma: &Gpma = &sh.gpma;
        let uord = &sh.update_order;
        let sigs: &[u64] = if sh.signatures {
            gpma.signatures()
        } else {
            &[]
        };
        let mut back = std::mem::take(&mut sc.backward);
        let bi = backward_set(q, qv, m, gpma, &mut back);
        let (bv, bel) = back[bi];
        let bdeg = gpma.degree(bv);
        // The shard this scan runs on, if any: whether a run is resident
        // there picks the probe direction, and debug builds check every run
        // the scan reads.
        let here = sh.residency.as_ref().zip(self.shard);
        let resident = |v: VertexId| here.is_none_or(|(r, s)| r.is_resident(s, v));
        let flipped = here.is_some_and(|(r, s)| {
            back.iter()
                .enumerate()
                .any(|(i, &(dv, _))| i != bi && !r.is_resident(s, dv))
        });
        // Hoisted candidate gate — fixed for the whole scan (the per-level
        // branch of `candidate_ok`, resolved once instead of per
        // candidate).
        let vk_code: Option<u64> = match seed.class {
            Some(ci) if level < seed.vk_size => Some(sh.meta.class_vk_codes[ci][qv as usize]),
            _ => None,
        };
        let anchor_order = self.anchor_order;
        let gate = Gate {
            bel,
            qv,
            vk_code,
            encodings: &sh.encodings,
            table: &sh.table,
            m,
            uord,
            incident: uord.incident(bv),
            anchor_order,
        };
        // Directory fetch of the base run head, then one warp-coalesced
        // read of the run itself. The run reads, gates and probes after the
        // fetch are shareable: waiting warps of the block can split them.
        ctx.dir_locate();
        ctx.shareable(|ctx| {
            ctx.global_read_coalesced(bdeg as u64 * 2);
            // Candidate-table rows for the scanned vertices.
            ctx.global_read_coalesced(bdeg as u64);
            ctx.compute(bdeg as u64);
        });
        if flipped {
            debug_assert!(resident(bv), "flipped scan of a base run not resident here");
            // Ascending targets: a candidate's run cursor merges them
            // monotonically.
            let mut targets_of = std::mem::take(&mut sc.flipped);
            targets_of.clear();
            targets_of.extend(
                back.iter()
                    .enumerate()
                    .filter(|&(i, _)| i != bi)
                    .map(|(_, &b)| b),
            );
            targets_of.sort_unstable();
            let nt = targets_of.len();
            debug_assert!((1..=CHUNK_WIDTH).contains(&nt));
            let mut targets = [0 as VertexId; CHUNK_WIDTH];
            let mut incs = [IncidentRange::default(); CHUNK_WIDTH];
            let mut req: u64 = 0;
            for (i, &(dv, _)) in targets_of.iter().enumerate() {
                targets[i] = dv;
                incs[i] = uord.incident(dv);
                req |= 1u64 << (dv & 63);
            }
            let want: u64 = if nt == 64 { u64::MAX } else { (1u64 << nt) - 1 };
            let mut labels = [0 as ELabel; CHUNK_WIDTH];
            let (mut tested, mut probed, mut covered) = (0u64, 0u64, 0u64);
            gpma.for_each_neighbor(bv, |cand, el| {
                if !gate.pass(cand, el) {
                    return;
                }
                debug_assert!(
                    resident(cand),
                    "flipped scan probes a run not resident here"
                );
                // Signature quick-reject on the *candidate's* run: a
                // missing required bit proves some backward vertex absent.
                if !sigs.is_empty() && gpma.degree(cand) <= CHUNK_WIDTH {
                    tested += 1;
                    if sigs[cand as usize] & req != req {
                        return;
                    }
                }
                let mut cur = gpma.run_cursor(cand);
                let rem0 = cur.rem();
                let found = gpma.run_seek_chunk(&mut cur, &targets[..nt], &mut labels);
                probed += nt as u64;
                covered += (rem0 - cur.rem()) as u64;
                if found != want {
                    return;
                }
                for (i, &(_, del)) in targets_of.iter().enumerate() {
                    if labels[i] != del
                        || (!incs[i].is_empty()
                            && matches!(
                                uord.order_within(incs[i], cand),
                                Some(ord) if ord < anchor_order
                            ))
                    {
                        return;
                    }
                }
                sink(cand);
            });
            ctx.shareable(|ctx| {
                if tested > 0 {
                    ctx.bitmap_probe(tested);
                }
                ctx.chunked_intersect(probed, covered);
            });
            sc.flipped = targets_of;
            sc.backward = back;
            return;
        }
        debug_assert!(
            back.iter().all(|&(dv, _)| resident(dv)),
            "scan reads a backward run not resident here"
        );
        let mut others = std::mem::take(&mut sc.others);
        others.clear();
        for (i, &(dv, el)) in back.iter().enumerate() {
            if i == bi {
                continue;
            }
            let deg = gpma.degree(dv);
            others.push(BackProbe {
                el,
                cur: gpma.run_cursor(dv),
                inc: uord.incident(dv),
                // Only narrow runs keep their signature: past CHUNK_WIDTH
                // neighbors the 64-bit map saturates and the prefilter is
                // pure per-lane overhead with no rejection power.
                sig: if deg <= CHUNK_WIDTH && !sigs.is_empty() {
                    Some(sigs[dv as usize])
                } else {
                    None
                },
                tested: 0,
                probed: 0,
                rem0: deg as u32,
            });
        }
        sc.backward = back;
        // One transaction per backward run fetches its precomputed
        // signature (a single u64 each, coalesced across the warp).
        let with_sig = others.iter().filter(|o| o.sig.is_some()).count();
        if with_sig > 0 {
            ctx.global_read_coalesced(with_sig as u64);
        }
        // Gather pass: stream the base run through the cheap per-vertex
        // gates. With no other backward edges the survivors are final and
        // bypass the staging buffer entirely (the common shallow case).
        let mut chunk = std::mem::take(&mut sc.chunk);
        chunk.clear();
        let direct = others.is_empty();
        gpma.for_each_neighbor(bv, |cand, el| {
            if !gate.pass(cand, el) {
                return;
            }
            if direct {
                sink(cand);
            } else {
                chunk.push(cand);
            }
        });
        // Combine pass: chunked backward intersection with survivor masks.
        let mut targets = [0 as VertexId; CHUNK_WIDTH];
        let mut lane_of = [0u8; CHUNK_WIDTH];
        let mut labels = [0 as ELabel; CHUNK_WIDTH];
        for w in chunk.chunks(CHUNK_WIDTH) {
            // Narrow fronts skip the mask machinery: below this width the
            // per-lane bookkeeping (compaction, keep masks) costs more than
            // it saves, so probe candidates one by one with early exit —
            // the same exact filters in the same order, so still
            // bit-identical, and the cursors stay monotone for any wide
            // chunks that follow.
            if w.len() < SCALAR_CHUNK_MIN {
                'cand: for &cand in w {
                    for o in others.iter_mut() {
                        if let Some(sig) = o.sig {
                            o.tested += 1;
                            if sig & (1u64 << (cand & 63)) == 0 {
                                continue 'cand;
                            }
                        }
                        o.probed += 1;
                        match gpma.run_seek(&mut o.cur, cand) {
                            Some(l) if l == o.el => {}
                            _ => continue 'cand,
                        }
                        if !o.inc.is_empty()
                            && matches!(
                                uord.order_within(o.inc, cand),
                                Some(ord) if ord < anchor_order
                            )
                        {
                            continue 'cand;
                        }
                    }
                    sink(cand);
                }
                continue;
            }
            let mut mask: u64 = if w.len() == CHUNK_WIDTH {
                u64::MAX
            } else {
                (1u64 << w.len()) - 1
            };
            for o in others.iter_mut() {
                if mask == 0 {
                    break;
                }
                // Bitmap quick-reject: a clear signature bit proves the
                // candidate absent from the run — drop the lane without an
                // exact probe.
                if let Some(sig) = o.sig {
                    o.tested += mask.count_ones();
                    let mut pass = 0u64;
                    let mut mk = mask;
                    while mk != 0 {
                        let i = mk.trailing_zeros() as usize;
                        mk &= mk - 1;
                        if sig & (1u64 << (w[i] & 63)) != 0 {
                            pass |= 1u64 << i;
                        }
                    }
                    mask &= pass;
                    if mask == 0 {
                        continue;
                    }
                }
                // Compact the surviving lanes (ascending, so the merge
                // cursor stays monotone) and intersect in one pass.
                let mut nt = 0usize;
                let mut mk = mask;
                while mk != 0 {
                    let i = mk.trailing_zeros() as usize;
                    mk &= mk - 1;
                    targets[nt] = w[i];
                    lane_of[nt] = i as u8;
                    nt += 1;
                }
                o.probed += nt as u32;
                let found = gpma.run_seek_chunk(&mut o.cur, &targets[..nt], &mut labels);
                let mut keep = 0u64;
                for t in 0..nt {
                    if found & (1u64 << t) != 0 && labels[t] == o.el {
                        // Adjacent with the right label; apply the
                        // anchor-order dedup rule.
                        let dead = !o.inc.is_empty()
                            && matches!(
                                uord.order_within(o.inc, targets[t]),
                                Some(ord) if ord < anchor_order
                            );
                        if !dead {
                            keep |= 1u64 << lane_of[t];
                        }
                    }
                }
                mask &= keep;
            }
            // Emit pass: popcount is the count, ascending bit order the
            // exclusive-scan offsets — contention-free pooled writes.
            ctx.compute(2);
            let mut mk = mask;
            while mk != 0 {
                let i = mk.trailing_zeros() as usize;
                mk &= mk - 1;
                sink(w[i]);
            }
        }
        sc.chunk = chunk;
        // Charge the chunked intersections: each backward run is billed
        // for the lanes it actually probed and the span its cursor
        // actually walked (plus its bitmap probes), not a synthetic
        // per-candidate binary-search chain.
        ctx.shareable(|ctx| {
            for o in others.iter() {
                if o.sig.is_some() {
                    ctx.bitmap_probe(o.tested as u64);
                }
                ctx.chunked_intersect(o.probed as u64, (o.rem0 - o.cur.rem()) as u64);
            }
        });
        sc.others = others;
    }

    /// On completing a `V^k` assignment under a class representative seed,
    /// inject the permuted partial matches (coalesced search, §V-B).
    fn spawn_permutations(
        &mut self,
        sh: &KernelShared,
        seed_idx: usize,
        m: &VMatch,
        ctx: &mut WarpCtx,
    ) {
        let meta = &sh.meta;
        let seed = &meta.seeds[seed_idx];
        let Some(ci) = seed.class else { return };
        let class = &meta.plan.classes[ci];
        for member in &class.members {
            ctx.compute(class.vk_size as u64);
            let pm = permute_partial(m, member);
            // Validate reassigned vertices against the candidate table:
            // within-V^k structure is automorphism-invariant, but removed-
            // vertex constraints may no longer hold for the new roles.
            ctx.shared_access(class.vk_size as u64);
            let ok = pm.pairs().all(|(w, v)| sh.table.is_candidate(v, w));
            // A k = 0 member is an automorphism of the whole query, so no
            // vertex changes its code: the count-only multiply relies on it.
            debug_assert!(
                ok || class.vk_size != meta.q.num_vertices(),
                "whole-query permutation failed the candidate table"
            );
            if !ok {
                continue;
            }
            if class.vk_size == meta.q.num_vertices() {
                // k = 0: the permuted partial is already a complete match.
                self.emit(sh, pm);
            } else {
                self.pending.push_back(PendingPartial {
                    m: pm,
                    seed: seed_idx,
                    base_level: seed.vk_size,
                });
            }
        }
    }

    /// Advances the DFS by one quantum. Returns `false` when the current
    /// state is exhausted; its frame stack then goes back to the scratch.
    fn advance(&mut self, sh: &KernelShared, sc: &mut Scratch, ctx: &mut WarpCtx) -> bool {
        let Some(mut st) = self.state.take() else {
            return false;
        };
        if self.advance_state(sh, sc, &mut st, ctx) {
            self.state = Some(st);
            return true;
        }
        while !st.frames.is_empty() {
            self.pop_frame(sc, &mut st);
        }
        sc.stacks.push(st.frames);
        false
    }

    /// [`WbmTask::advance`] on the state `st` it took.
    fn advance_state(
        &mut self,
        sh: &KernelShared,
        sc: &mut Scratch,
        st: &mut DfsState,
        ctx: &mut WarpCtx,
    ) -> bool {
        let seed = &sh.meta.seeds[st.seed];
        let q = &sh.meta.q;
        let n = seed.order.len();
        // Matches one complete assignment stands for in the count-only
        // fast paths: a whole-query class (k = 0) adds one permuted match
        // per member (see the module docs for why each is valid).
        let mult = match seed.class {
            Some(ci) if seed.vk_size == n => 1 + sh.meta.plan.classes[ci].members.len() as u64,
            _ => 1,
        };

        if st.warm {
            st.warm = false;
            if st.base_level == n {
                // Degenerate: a two-vertex query's anchor pair is already
                // a match (k = 0 classes emit directly and never get here).
                self.emit(sh, st.m);
                return false;
            }
            let delivered = std::mem::take(&mut self.delivered);
            if !delivered && !self.licensed(sh, sc, st.seed, st.base_level, &st.m, ctx) {
                return false;
            }
            let cands = self.gen_candidates(sh, sc, seed, st.base_level, &st.m, ctx);
            if cands.is_empty() {
                self.recycle(sc, cands);
                return false;
            }
            st.frames.push(Frame {
                cands,
                p: 0,
                memo_last: None,
            });
            return true;
        }

        let mut budget = ATTEMPTS_PER_STEP;
        while budget > 0 {
            let Some(top_idx) = st.frames.len().checked_sub(1) else {
                return false; // exhausted
            };
            let level = st.base_level + top_idx;
            let last = level == n - 1;
            if last {
                // Count-only fast path: every candidate in the frame was
                // fully validated by `GenCandidates`, so when matches are
                // not materialized the frame collapses into one
                // bulk-counted emit — the per-match join loop is pure
                // overhead in benchmarking mode.
                if !sh.collect {
                    let f = &mut st.frames[top_idx];
                    let remaining = f.cands.len() - f.p;
                    f.p = f.cands.len();
                    ctx.compute(remaining as u64);
                    self.note_count(sh, remaining as u64 * mult);
                    self.pop_frame(sc, st);
                    if !self.backtrack(sc, st, seed) {
                        return false;
                    }
                    budget = budget.saturating_sub(remaining.max(1));
                    continue;
                }
                // Lines 9–11: join every remaining candidate with M.
                let mut emitted = 0;
                while emitted < EMITS_PER_STEP {
                    let f = &mut st.frames[top_idx];
                    if f.p >= f.cands.len() {
                        break;
                    }
                    let c = f.cands[f.p];
                    f.p += 1;
                    let qv = seed.order[level];
                    let mut m = st.m;
                    m.set(qv, c);
                    ctx.compute(1);
                    self.emit(sh, m);
                    // Coalesced-search trigger when V^k ends at the last
                    // level (|R^k| = 0 handled at class build; this arm
                    // covers vk_size == n with class present).
                    if seed.class.is_some() && seed.vk_size == n {
                        self.spawn_permutations(sh, st.seed, &m, ctx);
                    }
                    emitted += 1;
                }
                let f = &st.frames[top_idx];
                if f.p >= f.cands.len() {
                    // Lines 12–13: backtrack.
                    self.pop_frame(sc, st);
                    if !self.backtrack(sc, st, seed) {
                        return false;
                    }
                }
                budget = budget.saturating_sub(emitted.max(1));
                continue;
            }

            // Lines 15–20: find a candidate at `level` whose next-level
            // candidate set is nonempty.
            let f = &mut st.frames[top_idx];
            if f.p >= f.cands.len() {
                self.pop_frame(sc, st);
                if !self.backtrack(sc, st, seed) {
                    return false;
                }
                budget -= 1;
                continue;
            }
            let c = f.cands[f.p];
            let qv = seed.order[level];
            st.m.set(qv, c);
            // Entering level+1; if that crosses the V^k boundary, fire the
            // coalesced permutations for the just-completed V^k partial.
            let crossing_vk = seed.class.is_some() && level + 1 == seed.vk_size;
            // Count-only fast path: when the next level is the last, its
            // candidate set would be materialized only to be counted —
            // stream-count it instead and never build the frame.
            if level + 2 == n && !sh.collect {
                let qv_last = seed.order[level + 1];
                // When the last query vertex has no backward edge to *this*
                // level's vertex, its candidate set is identical across all
                // siblings here (only injectivity against `c` differs):
                // memoize it on the parent frame and answer each sibling
                // with one binary search instead of a rescan.
                let independent = !q.neighbors(qv_last).iter().any(|&(un, _)| un == qv);
                let count = if !self.licensed(sh, sc, st.seed, level + 1, &st.m, ctx) {
                    0 // shipped: its owner counts it
                } else if independent {
                    if st.frames[top_idx].memo_last.is_none() {
                        st.m.unset(qv);
                        let mut s = sc.buf(&mut self.spare, Some(ctx));
                        self.scan_candidates(sh, sc, seed, level + 1, &st.m, ctx, |v| s.push(v));
                        st.m.set(qv, c);
                        st.frames[top_idx].memo_last = Some(s);
                    }
                    let s = st.frames[top_idx].memo_last.as_ref().expect("just filled");
                    // Binary probe of the memoized set parked in shared
                    // memory (like the C[l] arrays).
                    ctx.shared_access((64 - (s.len() as u64).leading_zeros() as u64).max(1));
                    (s.len() - usize::from(s.binary_search(&c).is_ok())) as u64
                } else {
                    self.count_candidates(sh, sc, seed, level + 1, &st.m, ctx)
                };
                if crossing_vk {
                    let m = st.m;
                    self.spawn_permutations(sh, st.seed, &m, ctx);
                }
                ctx.compute(count);
                self.note_count(sh, count * mult);
                st.m.unset(qv);
                st.frames[top_idx].p += 1;
                budget -= 1;
                continue;
            }
            let next = if self.licensed(sh, sc, st.seed, level + 1, &st.m, ctx) {
                self.gen_candidates(sh, sc, seed, level + 1, &st.m, ctx)
            } else {
                sc.buf(&mut self.spare, Some(ctx)) // shipped: empty here
            };
            if !next.is_empty() {
                if crossing_vk {
                    let m = st.m;
                    self.spawn_permutations(sh, st.seed, &m, ctx);
                }
                st.frames.push(Frame {
                    cands: next,
                    p: 0,
                    memo_last: None,
                });
            } else {
                if crossing_vk {
                    // The V^k partial itself is complete even if it cannot
                    // be extended: permutations may still extend.
                    let m = st.m;
                    self.spawn_permutations(sh, st.seed, &m, ctx);
                }
                self.recycle(sc, next);
                st.m.unset(qv);
                st.frames[top_idx].p += 1;
            }
            budget -= 1;
        }
        true
    }

    /// After popping an exhausted frame, advance the parent's cursor (and
    /// clear its assignment). Returns `false` when the whole state is done.
    /// On `true`, the new top frame's candidate at `p` is *unassigned*
    /// (regular top-frame semantics) and the caller's loop resumes there.
    fn backtrack(&mut self, sc: &mut Scratch, st: &mut DfsState, seed: &SeedPlan) -> bool {
        loop {
            let Some(top_idx) = st.frames.len().checked_sub(1) else {
                return false;
            };
            let level = st.base_level + top_idx;
            let qv = seed.order[level];
            st.m.unset(qv);
            let f = &mut st.frames[top_idx];
            f.p += 1;
            if f.p < f.cands.len() {
                return true;
            }
            self.pop_frame(sc, st);
        }
    }

    /// One scheduler quantum of the task ([`WarpTask::step`]) on the
    /// scratch `sc`.
    fn step_with(&mut self, sh: &KernelShared, sc: &mut Scratch, ctx: &mut WarpCtx) -> StepResult {
        poll_deadline(sh.deadline, &mut self.steps, &sh.abort);
        if sh.abort.load(Ordering::Relaxed) {
            self.flush(sh);
            return StepResult::Done;
        }
        // Continue the running DFS.
        if self.state.is_some() {
            if self.advance(sh, sc, ctx) {
                return StepResult::Continue;
            }
            self.state = None;
            return StepResult::Continue;
        }
        // Pull the next pending permuted V^k partial.
        if let Some(p) = self.pending.pop_front() {
            self.state = Some(DfsState {
                seed: p.seed,
                base_level: p.base_level,
                m: p.m,
                frames: sc.stack(),
                warm: true,
            });
            ctx.compute(2);
            return StepResult::Continue;
        }
        // Start the next seed.
        while let Some(k) = self.seeds.next() {
            if let Some(st) = self.start_seed(sh, sc, k / 2, k % 2 == 1, ctx) {
                self.state = Some(st);
                return StepResult::Continue;
            }
        }
        self.flush(sh);
        StepResult::Done
    }

    /// What a split takes now: the shallowest frame with at least two
    /// unexplored candidates, else half the pending partials (if two or
    /// more), else half the unstarted seeds (if two or more). A device
    /// steal (`keep_memo`) passes over memoized frames
    /// ([`DfsState::split_frame_at`]); a shard unit's split does not.
    fn take(&self, keep_memo: bool) -> Option<Take> {
        if let Some(fi) = self
            .state
            .as_ref()
            .and_then(|st| st.split_frame_at(keep_memo))
        {
            Some(Take::Frame(fi))
        } else if self.pending.len() >= 2 {
            Some(Take::Pending)
        } else if self.seeds.len() >= 2 {
            Some(Take::Seeds)
        } else {
            None
        }
    }

    /// The search a thief takes: what `take` names (see [`WbmTask::take`]).
    /// A frame split copies the taken candidates into a buffer drawn from
    /// the scratch pool, metered on `meter` (a shard unit's split; a device
    /// steal runs outside any step and has no meter).
    fn split(
        &mut self,
        sh: &KernelShared,
        sc: &mut Scratch,
        take: Take,
        meter: Option<&mut WarpCtx>,
    ) -> WbmTask {
        match take {
            Take::Frame(fi) => {
                let st = self.state.as_mut().expect("a frame split has a state");
                let order = &sh.meta.seeds[st.seed].order;
                let spare = &mut self.spare;
                let thief = st.split_frame(fi, order, sc, |sc| sc.buf(spare, meter));
                self.child(0..0, VecDeque::new(), Some(thief))
            }
            Take::Pending => {
                let take = self.pending.len() / 2;
                let stolen = self.pending.split_off(self.pending.len() - take);
                self.child(0..0, stolen, None)
            }
            Take::Seeds => {
                let mid = self.seeds.end - self.seeds.len() / 2;
                let stolen = mid..self.seeds.end;
                self.seeds.end = mid;
                self.child(stolen, VecDeque::new(), None)
            }
        }
    }

    /// A shard unit's weighted estimate of its remaining work: one per
    /// unexplored frame candidate beyond each frame's current one, 8 per
    /// pending partial and 16 per unstarted seed slot. A unit splits only
    /// while this is at least [`SPLIT_MIN_HINT`], and a hand-off moves this
    /// many words of the part.
    fn work_hint(&self) -> u64 {
        let frames: u64 = self
            .state
            .as_ref()
            .map(|st| {
                st.frames
                    .iter()
                    .map(|f| (f.cands.len().saturating_sub(f.p + 1)) as u64)
                    .sum()
            })
            .unwrap_or(0);
        frames + 8 * self.pending.len() as u64 + 16 * self.seeds.len() as u64
    }
}

impl WarpTask for WbmTask {
    type Launch = KernelShared;

    fn step(&mut self, sh: &KernelShared, ctx: &mut WarpCtx) -> StepResult {
        SCRATCH.with_borrow_mut(|sc| self.step_with(sh, sc, ctx))
    }

    /// What a device steal takes: half the shallowest frame with two or
    /// more unexplored candidates, a frame that holds a count-only memo
    /// passed over, else half the pending partials, else half the unstarted
    /// seeds. A frame split copies the taken candidates and their parent
    /// partial's assigned vertices; a pending split copies each taken
    /// partial's assigned vertices plus its seed and level; a seed split
    /// copies the range's two ends. Unstarted seeds sit at level 1: the
    /// anchor edge fills levels 0 and 1.
    fn offer(&self, sh: &KernelShared) -> Option<Offer> {
        Some(match self.take(true)? {
            Take::Frame(fi) => {
                let st = self.state.as_ref()?;
                let level = st.base_level + fi;
                let units = (st.unexplored(fi) / 2) as u64;
                let parent = st.parent(&sh.meta.seeds[st.seed].order, level);
                Offer {
                    level,
                    units,
                    words: units + parent.pairs().count() as u64,
                }
            }
            Take::Pending => {
                let taken = self
                    .pending
                    .range(self.pending.len() - self.pending.len() / 2..);
                Offer {
                    level: taken.clone().map(|p| p.base_level).min()?,
                    units: (self.pending.len() / 2) as u64,
                    words: taken.map(|p| p.m.pairs().count() as u64 + 2).sum(),
                }
            }
            Take::Seeds => Offer {
                level: 1,
                units: (self.seeds.len() / 2) as u64,
                words: 2,
            },
        })
    }

    fn try_split(&mut self, sh: &KernelShared) -> Option<WbmTask> {
        let take = self.take(true)?;
        Some(SCRATCH.with_borrow_mut(|sc| self.split(sh, sc, take, None)))
    }
}

/// The per-phase anchor-order map of the dedup rule: canonical edge key →
/// anchor order, held as a sorted array probed by binary search. The hot
/// loop queries it once per scanned candidate edge, so the per-probe
/// SipHash of a `HashMap` was a measurable constant factor; a sorted
/// `Vec` probe is a handful of well-predicted comparisons and no hashing.
///
/// Everything here is sized by the phase's anchors, never by the graph:
/// building it is O(batch log batch) however large the store is.
#[derive(Clone, Debug)]
pub struct UpdateOrder {
    entries: Vec<(u64, u32)>,
    /// `(endpoint, other endpoint, order)`, sorted — both directions of
    /// every update edge. Lets the scan loop resolve "is this data edge an
    /// update edge?" against just the *base vertex's* incident slice,
    /// which is empty for almost every base, so the per-candidate dedup
    /// check is one length test instead of a full binary search.
    by_endpoint: Vec<(VertexId, VertexId, u32)>,
    /// Open-addressing index from each endpoint to its `by_endpoint`
    /// range: a power-of-two table at most half full, probed linearly from
    /// a multiplicative hash (an empty range marks a free slot). Makes
    /// [`UpdateOrder::incident`] O(1) — on the scan hot path, where most
    /// queried vertices are absent and stop at the first free slot.
    slots: Vec<(VertexId, IncidentRange)>,
    /// `64 - log2(slots.len())`: the hash keeps its top bits.
    shift: u32,
}

/// Half-open range into `UpdateOrder::by_endpoint`: the update edges
/// incident to one vertex. Plain indices (`Copy`) so scan state can hold
/// one per backward edge without borrowing the map.
#[derive(Clone, Copy, Debug, Default)]
pub struct IncidentRange {
    lo: u32,
    hi: u32,
}

impl IncidentRange {
    #[inline]
    fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

impl UpdateOrder {
    /// Builds the map from the phase's anchors. Duplicate keys keep their
    /// lowest order, matching the lowest-order attribution rule.
    pub fn build(anchors: &[Update]) -> Self {
        let mut entries: Vec<(u64, u32)> = anchors
            .iter()
            .enumerate()
            .map(|(i, u)| (u.key(), i as u32))
            .collect();
        entries.sort_unstable();
        entries.dedup_by_key(|e| e.0);
        let mut by_endpoint = Vec::with_capacity(entries.len() * 2);
        for &(key, order) in &entries {
            let (a, b) = gamma_graph::split_edge_key(key);
            by_endpoint.push((a, b, order));
            by_endpoint.push((b, a, order));
        }
        by_endpoint.sort_unstable();

        // At most half full: there are no more endpoints than entries.
        let len = (2 * by_endpoint.len()).next_power_of_two().max(2);
        let shift = 64 - len.trailing_zeros();
        let mut slots = vec![(0, IncidentRange::default()); len];
        let mut lo = 0usize;
        for run in by_endpoint.chunk_by(|x, y| x.0 == y.0) {
            let v = run[0].0;
            let mut i = Self::home(v, shift);
            while !slots[i].1.is_empty() {
                i = (i + 1) & (len - 1);
            }
            let hi = lo + run.len();
            slots[i] = (
                v,
                IncidentRange {
                    lo: lo as u32,
                    hi: hi as u32,
                },
            );
            lo = hi;
        }
        Self {
            entries,
            by_endpoint,
            slots,
            shift,
        }
    }

    /// `v`'s first probe slot (Fibonacci hashing).
    #[inline]
    fn home(v: VertexId, shift: u32) -> usize {
        ((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// The anchor order of `key`, if it is an update edge of this phase.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        self.entries
            .binary_search_by_key(&key, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// The update edges incident to `v`, as a reusable index range.
    #[inline]
    pub fn incident(&self, v: VertexId) -> IncidentRange {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(v, self.shift);
        loop {
            let (w, r) = self.slots[i];
            // A free slot ends the probe: `v` has no update edge.
            if w == v || r.is_empty() {
                return r;
            }
            i = (i + 1) & mask;
        }
    }

    /// The anchor order of update edge `(v, other)` within `v`'s
    /// pre-resolved incident range.
    #[inline]
    fn order_within(&self, r: IncidentRange, other: VertexId) -> Option<u32> {
        let slice = &self.by_endpoint[r.lo as usize..r.hi as usize];
        slice
            .binary_search_by_key(&other, |e| e.1)
            .ok()
            .map(|i| slice[i].2)
    }

    /// Number of distinct update edges in the phase.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the phase has no update edges.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Builds the per-phase anchor-order map used by the dedup rule.
pub fn build_update_order(anchors: &[Update]) -> UpdateOrder {
    UpdateOrder::build(anchors)
}

/// What every launch of one kernel phase shares: the store, the anchors
/// and the limits the batch sets. A phase builds one launch state per
/// pattern ([`Phase::shared`]). On one device each becomes a grid
/// ([`Phase::grid`]) and all of them run in one
/// [`Device::launch_grids`](gamma_gpu::Device::launch_grids) call; on the
/// shard executor each runs through `ShardRuntime::kernel_phase`. Either
/// way [`finish_grid`] takes each launch's results back, and the store
/// comes back last ([`Phase::into_store`]).
pub(crate) struct Phase<'a> {
    /// The store every grid searches.
    pub gpma: Arc<Gpma>,
    /// One task per anchor in every grid.
    pub anchors: &'a [Update],
    /// Each grid's [`KernelShared::match_limit`].
    pub match_limit: u64,
    /// The batch's abort flag, shared by every grid: one grid's match
    /// limit or the passed deadline stops them all.
    pub abort: Arc<AtomicBool>,
    /// The batch deadline ([`KernelShared::deadline`]).
    pub deadline: Option<Instant>,
    /// [`KernelShared::signatures`].
    pub signatures: bool,
}

impl Phase<'_> {
    /// The launch state of one query plan, with empty results and no
    /// residency context.
    pub(crate) fn shared(
        &self,
        meta: Arc<QueryMeta>,
        table: CandidateTable,
        encodings: Arc<Vec<u64>>,
        collect: bool,
    ) -> KernelShared {
        KernelShared {
            gpma: Arc::clone(&self.gpma),
            meta,
            table,
            encodings,
            update_order: UpdateOrder::build(self.anchors),
            sink: Mutex::new(Vec::new()),
            match_count: AtomicU64::new(0),
            collect,
            abort: Arc::clone(&self.abort),
            deadline: self.deadline,
            match_limit: self.match_limit,
            signatures: self.signatures,
            residency: None,
        }
    }

    /// One grid of the phase: a launch state from [`Phase::shared`] and
    /// one device task per anchor.
    pub(crate) fn grid(&self, shared: KernelShared) -> (Arc<KernelShared>, Vec<WbmTask>) {
        let tasks = self
            .anchors
            .iter()
            .enumerate()
            .map(|(i, a)| WbmTask::new(&shared, a, i as u32))
            .collect();
        (Arc::new(shared), tasks)
    }

    /// The store, once every grid of the phase is finished.
    pub(crate) fn into_store(self) -> Gpma {
        Arc::try_unwrap(self.gpma)
            .unwrap_or_else(|_| panic!("finished grids must release the store"))
    }
}

/// Takes a finished launch's state back as its candidate table, matches
/// and match count.
pub(crate) fn finish_grid(shared: Arc<KernelShared>) -> (CandidateTable, Vec<VMatch>, u64) {
    let shared = Arc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("kernel tasks must release shared state"));
    (
        shared.table,
        shared
            .sink
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
        shared.match_count.into_inner(),
    )
}

/// Convenience: launches one kernel phase over `anchors` as one grid and
/// returns `(gpma, table, matches, count, stats)`. The
/// `gpma` and `table` are moved in and returned, mirroring host↔device
/// buffer ownership. No deadline: only `abort` and `match_limit` cut the
/// phase short.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    device: &gamma_gpu::Device,
    gpma: Gpma,
    meta: Arc<QueryMeta>,
    table: CandidateTable,
    encodings: Arc<Vec<u64>>,
    anchors: &[Update],
    collect: bool,
    match_limit: u64,
    abort: Arc<AtomicBool>,
    bitmap_intersect: bool,
) -> (
    Gpma,
    CandidateTable,
    Vec<VMatch>,
    u64,
    gamma_gpu::KernelStats,
) {
    let phase = Phase {
        gpma: Arc::new(gpma),
        anchors,
        match_limit,
        abort,
        deadline: None,
        signatures: bitmap_intersect,
    };
    let (shared, tasks) = phase.grid(phase.shared(meta, table, encodings, collect));
    let stats = device.launch(&shared, tasks);
    let (table, matches, count) = finish_grid(shared);
    (phase.into_store(), table, matches, count, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::IncrementalEncoder;
    use crate::shard::{Partition, PartitionStrategy};
    use gamma_gpma::GpmaConfig;
    use gamma_gpu::CostModel;
    use gamma_graph::{edge_key, DynamicGraph, NO_ELABEL};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The license check at a seed's first scan: a unit on a shard that
    /// holds none of the anchor's runs ships every seed's first scan (level
    /// 2) to the owner of its base, and the owner's migrant units find
    /// exactly the matches the anchor's unit finds there.
    #[test]
    fn unlicensed_first_scans_ship_to_the_owner() {
        // Two triangles sharing the anchor edge 0-1.
        let mut g = DynamicGraph::new();
        for _ in 0..4 {
            g.add_vertex(0);
        }
        for (u, v) in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)] {
            g.insert_edge(u, v, NO_ELABEL);
        }
        let mut b = QueryGraph::builder();
        let (u0, u1, u2) = (b.vertex(0), b.vertex(0), b.vertex(0));
        b.edge(u0, u1).edge(u0, u2).edge(u1, u2);
        let q = b.build();
        let (enc, table) = IncrementalEncoder::build(&g, &q, 2);
        let meta = Arc::new(QueryMeta::build(&q, &table, enc.scheme(), false, 0));
        let anchors = [Update::insert(0, 1)];
        let phase = Phase {
            gpma: Arc::new(Gpma::from_graph(&g, GpmaConfig::default())),
            anchors: &anchors,
            match_limit: u64::MAX,
            abort: Arc::new(AtomicBool::new(false)),
            deadline: None,
            signatures: true,
        };
        let mut sh = phase.shared(meta, table, Arc::clone(&enc.encodings), true);
        // Shard 1 owns and holds every vertex; shard 0 holds none.
        sh.residency = Some(Residency {
            partition: Partition::from_parts(PartitionStrategy::Greedy, 2, 2, vec![1; 4]),
            alive: vec![true; 2],
            residents: vec![Arc::new(vec![false; 4]), Arc::new(vec![true; 4])],
            query_id: 0,
        });
        let unit = |shard: usize, work: UnitWork| {
            let mut ctx = WarpCtx::new(CostModel::default(), 32);
            let run = run_unit(&sh, shard, work, None, &mut ctx);
            (run.matches, run.count, run.migrants)
        };
        let (matches, count, migrants) = unit(0, UnitWork::Anchor(anchors[0], 0));
        assert!(matches.is_empty() && count == 0);
        assert_eq!(migrants.len(), 2 * 3, "every seed, both orientations");
        assert!(migrants
            .iter()
            .all(|(dst, m)| *dst == 1 && m.base_level == 2));
        let mut resumed = Vec::new();
        // Every unit returns to this thread's scratch what it drew, its
        // frame stack included, so the pools stop growing once warm.
        let pooled = || SCRATCH.with_borrow(|sc| (sc.pool.len(), sc.stacks.len()));
        let mut warm = None;
        for (_, mig) in migrants {
            let (ms, n, shipped) = unit(1, UnitWork::Mig(mig));
            assert!(shipped.is_empty());
            assert_eq!(n, ms.len() as u64);
            resumed.extend(ms);
            let now = pooled();
            assert_eq!(
                *warm.get_or_insert(now),
                now,
                "a migrant unit grew the pools"
            );
        }
        let (mut direct, n, shipped) = unit(1, UnitWork::Anchor(anchors[0], 0));
        assert!(shipped.is_empty());
        assert_eq!(n, 12, "6 embeddings of each triangle");
        resumed.sort_unstable();
        direct.sort_unstable();
        assert_eq!(resumed, direct);
    }

    /// A unit that runs past the split budget hands parts off, at least
    /// [`SPLIT_BUDGET`] cycles apart, and the unit with every part it and
    /// its parts split off finds exactly the matches of the unit run
    /// whole; with no split hint a unit never splits.
    #[test]
    fn split_parts_cover_the_unit() {
        // K_16 with one label and a 4-clique query: every seed of the
        // anchor's sweep scans a long candidate list.
        let n = 16;
        let mut g = DynamicGraph::new();
        for _ in 0..n {
            g.add_vertex(0);
        }
        for u in 0..n {
            for v in u + 1..n {
                g.insert_edge(u, v, NO_ELABEL);
            }
        }
        let mut b = QueryGraph::builder();
        let us: Vec<_> = (0..4).map(|_| b.vertex(0)).collect();
        for i in 0..4 {
            for j in i + 1..4 {
                b.edge(us[i], us[j]);
            }
        }
        let q = b.build();
        let (enc, table) = IncrementalEncoder::build(&g, &q, 2);
        let meta = Arc::new(QueryMeta::build(&q, &table, enc.scheme(), false, 0));
        let anchors = [Update::insert(0, 1)];
        let phase = Phase {
            gpma: Arc::new(Gpma::from_graph(&g, GpmaConfig::default())),
            anchors: &anchors,
            match_limit: u64::MAX,
            abort: Arc::new(AtomicBool::new(false)),
            deadline: None,
            signatures: true,
        };
        let mut sh = phase.shared(meta, table, Arc::clone(&enc.encodings), true);
        sh.residency = Some(Residency {
            partition: Partition::from_parts(PartitionStrategy::Greedy, 1, 1, vec![0; n as usize]),
            alive: vec![true],
            residents: vec![Arc::new(vec![true; n as usize])],
            query_id: 0,
        });
        let unit = |work: UnitWork, split_hint: Option<u64>| {
            let mut ctx = WarpCtx::new(CostModel::default(), 32);
            run_unit(&sh, 0, work, split_hint, &mut ctx)
        };
        let whole = unit(UnitWork::Anchor(anchors[0], 0), None);
        assert!(whole.parts.is_empty(), "no split hint, no split");
        assert!(
            whole.cycles > 2 * SPLIT_BUDGET,
            "the unit must outrun the budget"
        );
        let (mut found, mut count, mut splits) = (Vec::new(), 0, 0);
        let mut todo = vec![UnitWork::Anchor(anchors[0], 0)];
        while let Some(work) = todo.pop() {
            let run = unit(work, Some(2));
            assert!(run.migrants.is_empty(), "one shard holds every run");
            let mut last = 0;
            for (offset, part) in run.parts {
                assert!(offset >= last + SPLIT_BUDGET && offset <= run.cycles);
                last = offset;
                splits += 1;
                todo.push(UnitWork::Part(part));
            }
            count += run.count;
            found.extend(run.matches);
        }
        assert!(splits > 1, "the unit and its parts must split");
        assert_eq!(count, whole.count);
        let mut want = whole.matches;
        want.sort_unstable();
        found.sort_unstable();
        assert_eq!(found, want);
    }

    /// A device launch of `q` over a seeded random graph of 60 vertices
    /// (labels 0 and 1, about half of all pairs adjacent), with coalesced
    /// search up to k = 2, and the graph's first 12 edges as its anchors.
    fn random_launch(seed: u64, q: &QueryGraph, collect: bool) -> (KernelShared, Vec<Update>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nv = 60;
        let mut g = DynamicGraph::new();
        for _ in 0..nv {
            g.add_vertex(rng.random_range(0..2));
        }
        let mut anchors = Vec::new();
        for u in 0..nv {
            for v in u + 1..nv {
                if rng.random_range(0..2) == 0 {
                    g.insert_edge(u, v, NO_ELABEL);
                    if anchors.len() < 12 {
                        anchors.push(Update::insert(u, v));
                    }
                }
            }
        }
        let (enc, table) = IncrementalEncoder::build(&g, q, 2);
        let meta = Arc::new(QueryMeta::build(q, &table, enc.scheme(), true, 2));
        let phase = Phase {
            gpma: Arc::new(Gpma::from_graph(&g, GpmaConfig::default())),
            anchors: &anchors,
            match_limit: u64::MAX,
            abort: Arc::new(AtomicBool::new(false)),
            deadline: None,
            signatures: true,
        };
        let sh = phase.shared(meta, table, Arc::clone(&enc.encodings), collect);
        (sh, anchors)
    }

    /// Figure 1's query shape (a labeled triangle with a tail), whose
    /// class of k = 1 queues permuted partials, and a 4-clique with a
    /// tail, whose DFS runs four levels deep.
    fn split_queries() -> [QueryGraph; 2] {
        let mut b = QueryGraph::builder();
        let (u0, u1, u2, u3) = (b.vertex(0), b.vertex(1), b.vertex(1), b.vertex(0));
        b.edge(u0, u1).edge(u0, u2).edge(u1, u2).edge(u1, u3);
        let fig1 = b.build();
        let mut b = QueryGraph::builder();
        let us: Vec<_> = (0..5).map(|i| b.vertex(i % 2)).collect();
        for i in 0..4 {
            for j in i + 1..4 {
                b.edge(us[i], us[j]);
            }
        }
        b.edge(us[3], us[4]);
        [fig1, b.build()]
    }

    /// Calls `f` with every state of every anchor's task of `sh`'s
    /// launch, from the task's start through each of its steps.
    fn each_state(sh: &KernelShared, anchors: &[Update], mut f: impl FnMut(&WbmTask)) {
        let mut ctx = WarpCtx::new(CostModel::default(), 32);
        for (o, a) in anchors.iter().enumerate() {
            let mut task = WbmTask::new(sh, a, o as u32);
            f(&task);
            while task.step(sh, &mut ctx) == StepResult::Continue {
                f(&task);
            }
        }
    }

    /// Over the DFS states of seeded launches, in both modes, a task
    /// offers work exactly when `try_split` splits it, and the thief holds
    /// what the offer names: its level, its units, and words that match
    /// what the thief copied.
    #[test]
    fn offers_are_what_try_split_takes() {
        let mut seen = [0usize; 4]; // frame, pending, seeds, nothing
        for (qi, q) in split_queries().iter().enumerate() {
            for seed in 0..4u64 {
                for collect in [false, true] {
                    let (sh, anchors) = random_launch(seed, q, collect);
                    each_state(&sh, &anchors, |task| {
                        let mut victim = task.copy();
                        let offer = victim.offer(&sh);
                        let thief = victim.try_split(&sh);
                        let at = format!("query {qi} seed {seed} collect {collect}: {offer:?}");
                        assert_eq!(offer.is_some(), thief.is_some(), "{at}");
                        let (Some(offer), Some(thief)) = (offer, thief) else {
                            seen[3] += 1;
                            return;
                        };
                        if let Some(st) = &thief.state {
                            assert!(thief.pending.is_empty() && thief.seeds.is_empty(), "{at}");
                            assert_eq!(st.base_level, offer.level, "{at}");
                            assert_eq!(st.frames.len(), 1, "{at}");
                            let units = st.frames[0].cands.len() as u64;
                            assert_eq!(units, offer.units, "{at}");
                            let parent = st.m.pairs().count() as u64;
                            assert_eq!(parent, offer.level as u64, "{at}");
                            assert_eq!(units + parent, offer.words, "{at}");
                            seen[0] += 1;
                        } else if !thief.pending.is_empty() {
                            assert!(thief.seeds.is_empty(), "{at}");
                            assert_eq!(thief.pending.len() as u64, offer.units, "{at}");
                            let level = thief.pending.iter().map(|p| p.base_level).min();
                            assert_eq!(level, Some(offer.level), "{at}");
                            let words = thief.pending.iter().map(|p| p.m.pairs().count() + 2);
                            assert_eq!(words.sum::<usize>() as u64, offer.words, "{at}");
                            seen[1] += 1;
                        } else {
                            assert_eq!(thief.seeds.len() as u64, offer.units, "{at}");
                            assert_eq!((offer.level, offer.words), (1, 2), "{at}");
                            seen[2] += 1;
                        }
                        assert!(offer.units >= 1, "{at}");
                    });
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "every kind of split: {seen:?}");
    }

    /// Over the steps of seeded launches, in both modes, a step marks
    /// shareable cycles exactly when it scanned, and never more than its
    /// cycles. A shard unit drains its steps without reading the share:
    /// its outcome is the device task's steps', cycle for cycle and match
    /// for match, and its meter carries no share past a step.
    #[test]
    fn scans_mark_their_work_shareable() {
        let mut scanned = [0usize; 2]; // steps that did not scan, that did
        for q in &split_queries() {
            for seed in 0..4u64 {
                for collect in [false, true] {
                    let (sh, anchors) = random_launch(seed, q, collect);
                    let scans = || SCRATCH.with_borrow(|sc| sc.scans);
                    let mut ctx = WarpCtx::new(CostModel::default(), 32);
                    let mut unit_count = 0;
                    for (o, a) in anchors.iter().enumerate() {
                        let at = format!("seed {seed} collect {collect} anchor {o}");
                        let mut task = WbmTask::new(&sh, a, o as u32);
                        let mut cycles = 0;
                        loop {
                            let before = scans();
                            let done = task.step(&sh, &mut ctx) == StepResult::Done;
                            let scan = scans() > before;
                            let shareable = ctx.shareable_cycles();
                            let step = ctx.take_step_cycles();
                            assert!(shareable <= step, "{at}: {shareable} > {step}");
                            assert_eq!(shareable > 0, scan, "{at}: {shareable}");
                            scanned[usize::from(scan)] += 1;
                            cycles += step;
                            if done {
                                break;
                            }
                        }
                        let mut meter = WarpCtx::new(CostModel::default(), 32);
                        let run =
                            run_unit(&sh, 0, UnitWork::Anchor(*a, o as u32), None, &mut meter);
                        assert_eq!(run.cycles, cycles, "{at}");
                        assert_eq!(meter.shareable_cycles(), 0, "{at}");
                        assert!(run.migrants.is_empty() && run.parts.is_empty(), "{at}");
                        unit_count += run.count;
                        if collect {
                            assert_eq!(run.matches.len() as u64, run.count, "{at}");
                        }
                    }
                    let device_count = sh.match_count.load(Ordering::Relaxed);
                    assert_eq!(unit_count, device_count, "seed {seed} collect {collect}");
                }
            }
        }
        assert!(scanned.iter().all(|&n| n > 0), "{scanned:?}");
    }

    /// Where the shallowest splittable frame holds a count-only memo, a
    /// device steal passes it over (and takes a deeper frame, pending
    /// partials or seeds, or nothing), while a shard unit's split takes
    /// half of it.
    #[test]
    fn device_steals_keep_memoized_frames_whole() {
        let mut memoized = 0;
        for q in &split_queries() {
            for seed in 0..4u64 {
                let (sh, anchors) = random_launch(seed, q, false);
                each_state(&sh, &anchors, |task| {
                    let Some(Take::Frame(fi)) = task.take(false) else {
                        return;
                    };
                    let st = task.state.as_ref().expect("a frame split has a state");
                    if st.frames[fi].memo_last.is_none() {
                        return;
                    }
                    memoized += 1;
                    let level = st.base_level + fi;
                    let mut device = task.copy();
                    if let Some(thief) = device.try_split(&sh) {
                        assert!(thief.state.as_ref().is_none_or(|t| t.base_level > level));
                    }
                    let dst = device.state.as_ref().expect("the victim keeps its state");
                    assert_eq!(dst.frames[fi].cands, st.frames[fi].cands, "kept whole");
                    let mut unit = task.copy();
                    let part = SCRATCH.with_borrow_mut(|sc| {
                        let take = unit.take(false).expect("splittable");
                        unit.split(&sh, sc, take, None)
                    });
                    let pst = part.state.as_ref().expect("a frame part");
                    assert_eq!(pst.base_level, level);
                    assert_eq!(pst.frames[0].cands.len(), st.unexplored(fi) / 2);
                });
            }
        }
        assert!(memoized > 0, "no state held a splittable memoized frame");
    }

    /// `incident`, `order_within` and `get` against a brute-force scan of
    /// random anchor sets: duplicate keys in both orientations, dense small
    /// ids and sparse ids across the whole `u32` range, probed at present
    /// and absent vertices alike.
    #[test]
    fn incident_index_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(0x1dc1);
        for round in 0..300 {
            let nv = rng.random_range(2..40usize);
            let ids: Vec<VertexId> = if round % 2 == 0 {
                (0..nv as VertexId).collect()
            } else {
                (0..nv).map(|_| rng.random::<u32>()).collect()
            };
            let anchors: Vec<Update> = (0..rng.random_range(0..3 * nv))
                .filter_map(|_| {
                    let u = ids[rng.random_range(0..nv)];
                    let v = ids[rng.random_range(0..nv)];
                    (u != v).then(|| Update::insert(u, v))
                })
                .collect();
            let uo = UpdateOrder::build(&anchors);
            let mut probes = ids.clone();
            probes.extend((0..8).map(|_| rng.random::<u32>()));
            probes.extend([0, VertexId::MAX]);
            for &v in &probes {
                let r = uo.incident(v);
                for &w in &probes {
                    let lowest = anchors
                        .iter()
                        .position(|a| a.key() == edge_key(v, w))
                        .map(|i| i as u32);
                    assert_eq!(uo.order_within(r, w), lowest, "round {round}: {v}-{w}");
                    assert_eq!(uo.get(edge_key(v, w)), lowest, "round {round}: {v}-{w}");
                }
                let touching: std::collections::BTreeSet<VertexId> = anchors
                    .iter()
                    .filter_map(|a| match a.endpoints() {
                        (x, y) if x == v => Some(y),
                        (x, y) if y == v => Some(x),
                        _ => None,
                    })
                    .collect();
                assert_eq!((r.hi - r.lo) as usize, touching.len(), "round {round}: {v}");
                assert_eq!(r.is_empty(), touching.is_empty(), "round {round}: {v}");
            }
        }
    }
}
