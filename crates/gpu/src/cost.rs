//! Cycle cost model for the simulated device.
//!
//! Latencies are rough CUDA-class numbers (global ≈ hundreds of cycles,
//! shared ≈ tens, registers/ALU ≈ 1); what matters for reproducing the
//! paper is the *ratio* between them, which drives every design decision
//! GAMMA makes (coalescing, shared-memory stealing, DFS-over-BFS).

/// Per-operation cycle costs.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Latency of one global-memory transaction (a 128-byte coalesced
    /// segment or one divergent access).
    pub global_latency: u64,
    /// Latency of one shared-memory access.
    pub shared_latency: u64,
    /// Cost of one warp-wide ALU step.
    pub compute: u64,
    /// Cost of a warp-level sync / vote primitive.
    pub sync: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            global_latency: 200,
            shared_latency: 20,
            compute: 1,
            sync: 4,
        }
    }
}

impl CostModel {
    /// Cycles for a warp cooperatively reading `words` consecutive 4-byte
    /// words from global memory. Coalescing folds `warp_size` words into a
    /// single transaction.
    pub fn coalesced_read(&self, words: u64, warp_size: u32) -> u64 {
        let transactions = words.div_ceil(warp_size as u64).max(1);
        self.coalesced_read_rounds(transactions)
    }

    /// [`CostModel::coalesced_read`] with the transaction count already in
    /// hand (hot paths compute it with shift arithmetic) — the single
    /// place the coalesced-read formula lives.
    #[inline]
    pub fn coalesced_read_rounds(&self, transactions: u64) -> u64 {
        transactions * self.global_latency
    }

    /// Cycles for `words` divergent (non-consecutive) global accesses: one
    /// transaction each, but the warp's lanes issue them in parallel, so
    /// the latency is paid once per *round* of up to `warp_size` accesses
    /// and the memory system serializes a fraction of them. We charge an
    /// extra serialization factor of 4 over the coalesced case, consistent
    /// with the bandwidth loss the paper attributes to memory divergence.
    pub fn divergent_read(&self, words: u64, warp_size: u32) -> u64 {
        let rounds = words.div_ceil(warp_size as u64).max(1);
        rounds * self.global_latency * 4
    }

    /// Cycles for the warp-cooperative sorted-set intersection GAMMA uses in
    /// `GenCandidates` (§IV-C): each lane takes one element of the smaller
    /// list and binary-searches the larger. Rounds = ⌈small / warp_size⌉;
    /// each round costs one coalesced read of the chunk plus
    /// `log2(large)` dependent probe steps into the larger list.
    pub fn coop_intersect(&self, small: u64, large: u64, warp_size: u32) -> u64 {
        if small == 0 || large == 0 {
            return self.compute;
        }
        let rounds = small.div_ceil(warp_size as u64);
        let probes = (64 - large.leading_zeros() as u64).max(1);
        rounds * (self.global_latency + probes * self.global_latency / 4 + self.sync)
    }

    /// Cycles for a chunked merge intersection (GenCandidates'
    /// Prealloc-Combine form): the warp gathers `small` candidates in
    /// `CHUNK_WIDTH`-wide chunks (one coalesced read + one ballot each) and
    /// sweeps the `covered` span of the larger run once, slice by slice,
    /// instead of binary-searching it per element. `covered` is the part of
    /// the larger run the cursor actually walked, so a skewed intersection
    /// that skips most of the big run is charged only for what it touched —
    /// the saving over [`CostModel::coop_intersect`]'s per-round
    /// `log2(large)` probe chains.
    pub fn chunked_intersect(&self, small: u64, covered: u64, warp_size: u32) -> u64 {
        if small == 0 {
            return self.compute;
        }
        self.chunked_intersect_rounds(
            small.div_ceil(warp_size as u64),
            covered.div_ceil(warp_size as u64).max(1),
        )
    }

    /// [`CostModel::chunked_intersect`] with both round counts already in
    /// hand — the single place the chunked formula lives. Chunk rounds pay
    /// a coalesced gather plus a ballot; sweep rounds hit memory the gather
    /// usually staged, so they cost a quarter transaction like
    /// [`CostModel::run_search`] probes.
    #[inline]
    pub fn chunked_intersect_rounds(&self, chunk_rounds: u64, sweep_rounds: u64) -> u64 {
        chunk_rounds * (self.global_latency + self.sync) + sweep_rounds * self.global_latency / 4
    }

    /// Cycles for probing `lanes` candidates against a u64 run signature:
    /// the bitmap lives in shared memory (it is one word), so a warp-wide
    /// probe is one shared access plus an AND+popcount ALU step per round.
    /// Cheapest membership test in the model — the reason the kernel builds
    /// signatures for low-degree runs at all.
    pub fn bitmap_probe(&self, lanes: u64, warp_size: u32) -> u64 {
        lanes.div_ceil(warp_size as u64).max(1) * (self.shared_latency + self.compute)
    }

    /// Cycles for fetching a key's run head from the per-vertex directory:
    /// one coalesced global read of the directory entry. Constant — unlike
    /// a segment-tree descent, it does not grow with the array height,
    /// which is the whole point of the directory index. Pair with
    /// [`CostModel::run_search`] for the in-run probe that follows.
    pub fn directory_locate(&self) -> u64 {
        self.global_latency
    }

    /// Cycles for a bounded galloping search inside an adjacency run of
    /// length `n`: `⌈log2(n+1)⌉` dependent probes, each hitting memory that
    /// the preceding coalesced run fetch usually staged (so a probe costs a
    /// fraction of a cold global transaction).
    pub fn run_search(&self, n: u64) -> u64 {
        let probes = (64 - n.leading_zeros() as u64).max(1);
        (probes * self.global_latency / 4).max(self.compute)
    }

    /// Cycles every warp of a shared scan pays to coordinate, for
    /// `helpers` waiting warps joining a busy warp's scan: the scan
    /// descriptor's publish and its read by the helpers (two shared
    /// rounds), a block-level exclusive scan of the survivor counts
    /// (`⌈log2(helpers + 1)⌉` shared rounds) and a sync.
    pub fn shared_scan_coordination(&self, helpers: u64) -> u64 {
        (2 + scan_rounds(helpers + 1)) * self.shared_latency + self.sync
    }

    /// Cycles for shipping a published migrant batch of `items` partial
    /// embeddings of `words` 4-byte words each across the inter-device
    /// fabric: a fixed per-message launch overhead (descriptor + doorbell,
    /// charged as one divergent transaction pair) plus a coalesced copy of
    /// the payload. Because the overhead is per *batch*, shipping N items
    /// in one message is strictly cheaper than N one-item messages — the
    /// cost-model statement of why the comm layer batches migrants at all.
    pub fn migrant_ship(&self, items: u64, words: u64, warp_size: u32) -> u64 {
        let payload = self.coalesced_read((items * words).max(1), warp_size);
        2 * self.global_latency + self.sync + payload
    }
}

/// `⌈log2(warps)⌉`: the shared-memory rounds of a block-level exclusive
/// scan over `warps` warps (one value each).
pub(crate) fn scan_rounds(warps: u64) -> u64 {
    (u64::BITS - warps.saturating_sub(1).leading_zeros()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CostModel {
        /// The serial yardstick the directory lookup and the cooperative
        /// intersection are held against: one thread binary-searching a
        /// list of `n` entries in global memory, one dependent transaction
        /// per probe.
        fn serial_binary_search(&self, n: u64) -> u64 {
            let probes = (64 - n.leading_zeros() as u64).max(1);
            probes * self.global_latency
        }
    }

    #[test]
    fn coalesced_folds_transactions() {
        let c = CostModel::default();
        assert_eq!(c.coalesced_read(32, 32), c.global_latency);
        assert_eq!(c.coalesced_read(33, 32), 2 * c.global_latency);
        assert_eq!(c.coalesced_read(0, 32), c.global_latency);
    }

    #[test]
    fn divergent_costs_more() {
        let c = CostModel::default();
        assert!(c.divergent_read(32, 32) > c.coalesced_read(32, 32));
    }

    #[test]
    fn intersect_scales_with_small_side() {
        let c = CostModel::default();
        let a = c.coop_intersect(32, 1000, 32);
        let b = c.coop_intersect(320, 1000, 32);
        assert!(b > a);
        assert_eq!(b, 10 * a);
    }

    #[test]
    fn intersect_empty_is_cheap() {
        let c = CostModel::default();
        assert_eq!(c.coop_intersect(0, 100, 32), c.compute);
        assert_eq!(c.coop_intersect(100, 0, 32), c.compute);
    }

    #[test]
    fn directory_locate_beats_descent() {
        // The directory's constant lookup must undercut even a shallow
        // serial descent, and run searches must stay bounded by run size.
        let c = CostModel::default();
        assert!(c.directory_locate() < c.serial_binary_search(16));
        assert!(c.run_search(8) < c.run_search(1 << 20));
        assert!(c.run_search(1 << 20) < c.serial_binary_search(1 << 20));
        assert!(c.run_search(0) >= c.compute);
    }

    #[test]
    fn chunked_beats_coop_on_comparable_lists() {
        // Comparable-size lists: the chunked merge sweeps each run once
        // instead of paying log2(large) probe chains per round, so it must
        // undercut the cooperative binary-search form.
        let c = CostModel::default();
        let chunked = c.chunked_intersect(256, 256, 32);
        let coop = c.coop_intersect(256, 256, 32);
        assert!(chunked < coop, "chunked={chunked} coop={coop}");
        // Skew-awareness: the kernel charges the span the cursor actually
        // walked, so a skewed intersection that skips most of the big run
        // costs less than one that covers it all — and still beats coop
        // whenever the covered span stays within the galloping budget.
        assert!(c.chunked_intersect(64, 64, 32) < c.chunked_intersect(64, 1024, 32));
        assert!(c.chunked_intersect(64, 256, 32) < c.coop_intersect(64, 256, 32));
    }

    #[test]
    fn chunked_empty_is_cheap() {
        let c = CostModel::default();
        assert_eq!(c.chunked_intersect(0, 1024, 32), c.compute);
    }

    #[test]
    fn bitmap_probe_is_cheapest() {
        // One warp-wide AND+popcount against a shared-memory word must
        // undercut both intersection forms and even a single run search.
        let c = CostModel::default();
        let probe = c.bitmap_probe(64, 32);
        assert!(probe < c.chunked_intersect(64, 64, 32));
        assert!(probe < c.coop_intersect(64, 64, 32));
        assert!(probe < c.run_search(64));
        assert!(c.bitmap_probe(0, 32) > 0);
    }

    #[test]
    fn shared_scan_coordination_grows_with_the_scan_rounds() {
        // ⌈log2(k + 1)⌉ scan rounds for k helpers, on top of the
        // descriptor's two rounds and a sync.
        let c = CostModel::default();
        let rounds = |k| (c.shared_scan_coordination(k) - c.sync) / c.shared_latency;
        assert_eq!([1, 2, 3, 4, 7, 8].map(rounds), [3, 4, 4, 5, 5, 6]);
    }

    #[test]
    fn batched_shipping_beats_per_item() {
        // The per-message overhead amortizes: one 32-item batch must be far
        // cheaper than 32 single-item ships of the same total payload.
        let c = CostModel::default();
        let batched = c.migrant_ship(32, 8, 32);
        let single = 32 * c.migrant_ship(1, 8, 32);
        assert!(batched * 4 < single, "batched={batched} single={single}");
        // Payload still counts: a bigger batch costs more than a smaller one.
        assert!(c.migrant_ship(64, 8, 32) > c.migrant_ship(8, 8, 32));
        assert!(c.migrant_ship(0, 8, 32) > 0);
    }

    #[test]
    fn warp_coop_beats_serial_search() {
        // One warp intersecting 32 elements against 1k should be far
        // cheaper than 32 serial binary searches.
        let c = CostModel::default();
        let coop = c.coop_intersect(32, 1024, 32);
        let serial = 32 * c.serial_binary_search(1024);
        assert!(coop * 4 < serial, "coop={coop} serial={serial}");
    }
}
