//! Inter-shard messaging fabric: double-buffered per-(src,dst) migrant
//! queues.
//!
//! Producers append partial embeddings into an *open* batch buffer (the
//! front of the double buffer). When the buffer reaches capacity — or the
//! producer runs out of local work — the whole buffer is *published*: it is
//! swapped wholesale into the destination's queue of sealed batches (the
//! back of the double buffer) and a fresh open buffer takes its place. The
//! owner drains sealed batches mid-phase, and idle shards steal from
//! published-but-undrained batches; nobody ever ships one item at a time.
//!
//! Every batch carries a virtual-cycle `ready` stamp: the maximum
//! completion stamp of the units that produced its items, plus the
//! interconnect cost of shipping the batch ([`CostModel::migrant_ship`] is
//! charged by the caller and folded into the stamp). The sharded executor
//! respects these stamps, which is what makes the barrier-free runtime
//! causally sound *and* bit-reproducible: delivery order depends only on
//! virtual time, never on host-thread timing.
//!
//! The fabric itself is a plain single-owner data structure: only the
//! virtual-time executor's scheduling thread touches it — units that run
//! ahead on the launch pool return their migrants, and the scheduler
//! stages them when it commits the unit — so there are no locks to take
//! and no atomics to fence. All iteration is in shard-id order.
//!
//! [`CostModel::migrant_ship`]: gamma_gpu::CostModel::migrant_ship

use std::collections::VecDeque;

/// Default number of migrants per published batch. Large enough to amortize
/// the per-message ship overhead, small enough that a batch publishes before
/// the destination starves mid-phase.
pub const MIGRANT_BATCH: usize = 64;

/// A sealed batch of migrants in flight from `src` to `dst`.
#[derive(Debug)]
pub struct Batch<T> {
    /// Producing shard.
    pub src: usize,
    /// Owning (destination) shard.
    pub dst: usize,
    /// Virtual cycle at which the batch becomes visible at `dst`.
    pub ready: u64,
    /// The migrants themselves.
    pub items: Vec<T>,
}

/// Telemetry the fabric accumulates across a run (never reset by phases;
/// the engine snapshots it into `ShardStats`).
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    /// Sealed batches published into destination queues.
    pub batches_published: u64,
    /// Total items shipped (sum of published batch lengths).
    pub items_shipped: u64,
    /// Items shipped per (src, dst) pair, `src * num_shards + dst`.
    pub pair_items: Vec<u64>,
    /// Maximum number of items queued (published, undrained) at any single
    /// destination at any point in time.
    pub inbox_high_water: u64,
}

/// The per-(src,dst) double-buffered batch fabric.
#[derive(Debug)]
pub struct CommFabric<T> {
    num_shards: usize,
    capacity: usize,
    /// Open (front) append buffers, indexed `src * num_shards + dst`.
    open: Vec<Vec<T>>,
    /// Max producer completion stamp among items in the open buffer.
    open_stamp: Vec<u64>,
    /// Sealed batches awaiting drain, per destination.
    queues: Vec<VecDeque<Batch<T>>>,
    /// Total items across `queues[dst]`.
    queued: Vec<usize>,
    /// Recycled item buffers (zero-allocation steady state).
    spare: Vec<Vec<T>>,
    stats: CommStats,
}

impl<T> CommFabric<T> {
    /// Builds a fabric for `num_shards` shards with `capacity`-item batches.
    pub fn new(num_shards: usize, capacity: usize) -> Self {
        assert!(num_shards > 0 && capacity > 0);
        Self {
            num_shards,
            capacity,
            open: (0..num_shards * num_shards).map(|_| Vec::new()).collect(),
            open_stamp: vec![0; num_shards * num_shards],
            queues: (0..num_shards).map(|_| VecDeque::new()).collect(),
            queued: vec![0; num_shards],
            spare: Vec::new(),
            stats: CommStats {
                pair_items: vec![0; num_shards * num_shards],
                ..CommStats::default()
            },
        }
    }

    #[inline]
    fn slot(&self, src: usize, dst: usize) -> usize {
        src * self.num_shards + dst
    }

    /// Appends one item to the open (src, dst) buffer. `stamp` is the
    /// virtual completion time of the unit that produced it. Returns `true`
    /// when the buffer reached capacity and must now be published.
    pub fn push(&mut self, src: usize, dst: usize, item: T, stamp: u64) -> bool {
        let slot = self.slot(src, dst);
        let buf = &mut self.open[slot];
        if buf.is_empty() {
            if let Some(mut spare) = self.spare.pop() {
                spare.clear();
                std::mem::swap(buf, &mut spare);
            }
        }
        buf.push(item);
        self.open_stamp[slot] = self.open_stamp[slot].max(stamp);
        buf.len() >= self.capacity
    }

    /// Number of items currently staged in the open (src, dst) buffer.
    pub fn open_len(&self, src: usize, dst: usize) -> usize {
        self.open[self.slot(src, dst)].len()
    }

    /// Seals the open (src, dst) buffer and queues it at `dst`. `ship_cycles`
    /// is the interconnect cost of the message (caller prices it with the
    /// cost model); the batch becomes visible at
    /// `max(item stamps) + ship_cycles`. No-op returning `None` when the
    /// buffer is empty.
    pub fn publish(&mut self, src: usize, dst: usize, ship_cycles: u64) -> Option<u64> {
        let slot = self.slot(src, dst);
        if self.open[slot].is_empty() {
            return None;
        }
        let items = std::mem::take(&mut self.open[slot]);
        let ready = self.open_stamp[slot] + ship_cycles;
        self.open_stamp[slot] = 0;
        let len = items.len();
        self.stats.batches_published += 1;
        self.stats.items_shipped += len as u64;
        self.stats.pair_items[slot] += len as u64;
        self.queued[dst] += len;
        self.stats.inbox_high_water = self.stats.inbox_high_water.max(self.queued[dst] as u64);
        self.queues[dst].push_back(Batch {
            src,
            dst,
            ready,
            items,
        });
        Some(ready)
    }

    /// Seals every non-empty open buffer originating at `src`. The `ship`
    /// closure prices each batch from its length. Destinations are visited
    /// in shard-id order (determinism).
    pub fn flush_src(&mut self, src: usize, mut ship: impl FnMut(usize) -> u64) {
        for dst in 0..self.num_shards {
            let len = self.open_len(src, dst);
            if len > 0 {
                let cycles = ship(len);
                self.publish(src, dst, cycles);
            }
        }
    }

    /// Oldest sealed batch queued at `dst`, if any.
    pub fn pop(&mut self, dst: usize) -> Option<Batch<T>> {
        let batch = self.queues[dst].pop_front()?;
        self.queued[dst] -= batch.items.len();
        Some(batch)
    }

    /// Steals the *newest* sealed batch queued at `dst` — the one the owner
    /// is furthest from draining, so stealing it disturbs the owner least.
    pub fn steal_tail(&mut self, dst: usize) -> Option<Batch<T>> {
        let batch = self.queues[dst].pop_back()?;
        self.queued[dst] -= batch.items.len();
        Some(batch)
    }

    /// Requeues a (typically steal-filtered) batch at the tail of its
    /// destination's queue.
    pub fn requeue_tail(&mut self, batch: Batch<T>) {
        if batch.items.is_empty() {
            self.recycle(batch.items);
            return;
        }
        self.queued[batch.dst] += batch.items.len();
        self.queues[batch.dst].push_back(batch);
    }

    /// Returns a drained batch buffer to the spare pool.
    pub fn recycle(&mut self, mut items: Vec<T>) {
        if items.capacity() > 0 && self.spare.len() < 2 * self.num_shards * self.num_shards {
            items.clear();
            self.spare.push(items);
        }
    }

    /// Total items queued (published, undrained) at `dst`.
    pub fn queued_items(&self, dst: usize) -> usize {
        self.queued[dst]
    }

    /// `ready` stamp of the oldest sealed batch at `dst`.
    pub fn head_ready(&self, dst: usize) -> Option<u64> {
        self.queues[dst].front().map(|b| b.ready)
    }

    /// `ready` stamp of the newest sealed batch at `dst` — the one
    /// [`CommFabric::steal_tail`] would take.
    pub fn tail_ready(&self, dst: usize) -> Option<u64> {
        self.queues[dst].back().map(|b| b.ready)
    }

    /// Fail-stop failover drain: removes every in-flight migrant the
    /// dead shard was party to and returns each paired with its causal
    /// stamp, in deterministic order —
    ///
    /// 1. sealed batches queued **at** `dead` (oldest first; every item
    ///    stamped with its batch's `ready`), then
    /// 2. open buffers with `src == dead` or `dst == dead`, in slot
    ///    (src-major) order, every item stamped with the buffer's max
    ///    producer stamp.
    ///
    /// Sealed batches the dead shard had already published **toward
    /// survivors** are untouched: they are in flight on the
    /// interconnect and deliver normally. The caller requeues the
    /// returned items on live shards with the stamps intact, so the
    /// degraded schedule stays causally priced and bit-reproducible.
    pub fn drain_for_failover(&mut self, dead: usize) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        while let Some(mut batch) = self.pop(dead) {
            let ready = batch.ready;
            for item in batch.items.drain(..) {
                out.push((ready, item));
            }
            self.recycle(batch.items);
        }
        for src in 0..self.num_shards {
            for dst in 0..self.num_shards {
                if src != dead && dst != dead {
                    continue;
                }
                let slot = self.slot(src, dst);
                if self.open[slot].is_empty() {
                    continue;
                }
                let stamp = self.open_stamp[slot];
                self.open_stamp[slot] = 0;
                let mut items = std::mem::take(&mut self.open[slot]);
                for item in items.drain(..) {
                    out.push((stamp, item));
                }
                self.recycle(items);
            }
        }
        out
    }

    /// True while any item sits in an open buffer or a sealed queue — the
    /// fabric half of the quiescence predicate that ends a kernel phase.
    pub fn pending(&self) -> bool {
        self.queued.iter().any(|&q| q > 0) || self.open.iter().any(|b| !b.is_empty())
    }

    /// Telemetry accumulated so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publishes_at_capacity_and_stamps_ready() {
        let mut f: CommFabric<u32> = CommFabric::new(2, 3);
        assert!(!f.push(0, 1, 10, 5));
        assert!(!f.push(0, 1, 11, 9));
        assert!(f.push(0, 1, 12, 7), "third push must hit capacity");
        let ready = f.publish(0, 1, 100).unwrap();
        assert_eq!(ready, 9 + 100, "ready = max item stamp + ship cycles");
        let batch = f.pop(1).unwrap();
        assert_eq!((batch.src, batch.dst, batch.ready), (0, 1, 109));
        assert_eq!(batch.items, vec![10, 11, 12]);
        assert!(f.pop(1).is_none());
        assert!(!f.pending());
    }

    #[test]
    fn flush_publishes_partials_in_dst_order() {
        let mut f: CommFabric<u32> = CommFabric::new(3, 64);
        f.push(1, 0, 1, 0);
        f.push(1, 2, 2, 0);
        f.push(1, 2, 3, 0);
        let mut sizes = Vec::new();
        f.flush_src(1, |len| {
            sizes.push(len);
            0
        });
        assert_eq!(sizes, vec![1, 2], "dst 0 before dst 2");
        assert_eq!(f.queued_items(0), 1);
        assert_eq!(f.queued_items(2), 2);
        assert_eq!(f.stats().batches_published, 2);
        assert_eq!(f.stats().items_shipped, 3);
        let pair_1_to_2 = 3 + 2; // src * num_shards + dst
        assert_eq!(f.stats().pair_items[pair_1_to_2], 2);
    }

    #[test]
    fn high_water_tracks_peak_inbox_depth() {
        let mut f: CommFabric<u32> = CommFabric::new(2, 2);
        f.push(0, 1, 1, 0);
        f.push(0, 1, 2, 0);
        f.publish(0, 1, 0);
        f.push(0, 1, 3, 0);
        f.publish(0, 1, 0);
        assert_eq!(f.stats().inbox_high_water, 3);
        f.pop(1).unwrap();
        f.push(0, 1, 4, 0);
        f.publish(0, 1, 0);
        assert_eq!(f.stats().inbox_high_water, 3, "draining lowers depth");
    }

    #[test]
    fn steal_takes_newest_and_requeue_restores_accounting() {
        let mut f: CommFabric<u32> = CommFabric::new(2, 8);
        f.push(0, 1, 1, 0);
        f.publish(0, 1, 0);
        f.push(0, 1, 2, 0);
        f.push(0, 1, 3, 0);
        f.publish(0, 1, 0);
        let mut stolen = f.steal_tail(1).unwrap();
        assert_eq!(stolen.items, vec![2, 3], "tail batch is the newest");
        assert_eq!(f.queued_items(1), 1);
        // Keep one item, requeue the remainder.
        stolen.items.remove(0);
        f.requeue_tail(stolen);
        assert_eq!(f.queued_items(1), 2);
        assert_eq!(f.pop(1).unwrap().items, vec![1]);
        assert_eq!(f.pop(1).unwrap().items, vec![3]);
    }

    #[test]
    fn failover_drain_takes_inbox_and_open_buffers_only() {
        let mut f: CommFabric<u32> = CommFabric::new(3, 8);
        // Sealed batch queued AT the dead shard (1).
        f.push(0, 1, 10, 4);
        f.publish(0, 1, 100);
        // Sealed batch FROM the dead shard toward a survivor: stays.
        f.push(1, 2, 20, 7);
        f.publish(1, 2, 100);
        // Open buffers: from dead (1→0), toward dead (2→1), unrelated (0→2).
        f.push(1, 0, 30, 9);
        f.push(2, 1, 40, 11);
        f.push(0, 2, 50, 13);
        let drained = f.drain_for_failover(1);
        // Inbox first (batch ready = 4 + 100), then open buffers in
        // src-major slot order: (1,0) before (2,1).
        assert_eq!(drained, vec![(104, 10), (9, 30), (11, 40)]);
        assert_eq!(f.queued_items(1), 0);
        assert_eq!(f.open_len(1, 0), 0);
        assert_eq!(f.open_len(2, 1), 0);
        // The in-flight batch toward the survivor and the unrelated open
        // buffer are untouched.
        assert_eq!(f.queued_items(2), 1);
        assert_eq!(f.open_len(0, 2), 1);
        assert_eq!(f.pop(2).unwrap().items, vec![20]);
    }

    #[test]
    fn empty_publish_is_noop_and_recycling_reuses_buffers() {
        let mut f: CommFabric<u32> = CommFabric::new(2, 4);
        assert!(f.publish(0, 1, 50).is_none());
        assert_eq!(f.stats().batches_published, 0);
        f.push(0, 1, 7, 0);
        f.publish(0, 1, 0);
        let batch = f.pop(1).unwrap();
        let cap = batch.items.capacity();
        f.recycle(batch.items);
        f.push(0, 1, 8, 0);
        assert!(f.open[1].capacity() >= cap, "spare buffer reused");
        assert!(f.pending(), "open items count as pending");
    }
}
