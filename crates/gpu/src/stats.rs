//! Kernel- and block-level statistics.

/// Statistics for one block execution.
#[derive(Clone, Debug, Default)]
pub struct BlockStats {
    /// Number of warps resident in the block.
    pub num_warps: usize,
    /// Block makespan: the largest per-warp virtual clock at completion.
    pub makespan_cycles: u64,
    /// Total useful cycles across all warps.
    pub busy_cycles: u64,
    /// Number of successful steals.
    pub steals: u64,
    /// Warp tasks run to completion (including stolen fragments).
    pub tasks_completed: u64,
    /// Scheduler quanta executed.
    pub scheduler_steps: u64,
    /// Global-memory transactions charged.
    pub global_transactions: u64,
    /// Shared-memory accesses charged.
    pub shared_accesses: u64,
    /// Candidate buffers recycled from task-local pools.
    pub buf_reuse: u64,
    /// Candidate buffers freshly heap-allocated (pool misses).
    pub buf_alloc: u64,
    /// Per-warp busy cycles (index = warp slot), for workload-skew traces.
    pub warp_busy: Vec<u64>,
    /// Per-warp final virtual clocks.
    pub warp_clock: Vec<u64>,
}

impl BlockStats {
    pub(crate) fn new(num_warps: usize) -> Self {
        Self {
            num_warps,
            ..Self::default()
        }
    }

    /// GPU utilization of this block: busy warp-cycles over resident
    /// warp-cycles (`|W| * makespan`). In [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.makespan_cycles == 0 || self.num_warps == 0 {
            return 0.0;
        }
        self.busy_cycles as f64 / (self.num_warps as f64 * self.makespan_cycles as f64)
    }
}

/// Aggregated statistics for a kernel launch.
#[derive(Clone, Debug, Default)]
pub struct KernelStats {
    /// Number of blocks launched.
    pub num_blocks: usize,
    /// Total warp tasks submitted.
    pub num_tasks: usize,
    /// Device makespan: max over SMs of the sum of their block makespans.
    pub device_cycles: u64,
    /// Sum of block makespans (total block-serial work).
    pub total_block_cycles: u64,
    /// Total busy warp-cycles.
    pub busy_cycles: u64,
    /// Total resident warp-cycles (`Σ |W|·makespan` per block).
    pub resident_warp_cycles: u64,
    /// Total steals across blocks.
    pub steals: u64,
    /// Total global transactions.
    pub global_transactions: u64,
    /// Total shared accesses.
    pub shared_accesses: u64,
    /// Candidate buffers recycled from task-local pools across the launch.
    /// On the shard executor the pool is per host thread and outlives the
    /// phase, so this follows which thread ran which unit and is not
    /// reproducible run to run.
    pub buf_reuse: u64,
    /// Candidate buffers freshly heap-allocated (pool misses). In the DFS
    /// steady state this is bounded by tasks × query depth (warm-up);
    /// per-quantum allocations would make it scale with `busy_cycles`. On
    /// the shard executor it depends on the host threads, as
    /// [`KernelStats::buf_reuse`] does.
    pub buf_alloc: u64,
    /// Host wall-clock seconds of the launch (informational). A lone
    /// launch reports its elapsed time. The grids of one
    /// [`Device::launch_grids`](crate::Device::launch_grids) call share
    /// the call's elapsed time, in proportion to the host time of each
    /// grid's blocks, so their shares sum to it.
    pub wall_seconds: f64,
}

impl KernelStats {
    /// Device-wide GPU utilization: busy over resident warp-cycles.
    pub fn utilization(&self) -> f64 {
        if self.resident_warp_cycles == 0 {
            return 0.0;
        }
        self.busy_cycles as f64 / self.resident_warp_cycles as f64
    }

    /// Merges another launch's stats into this one. Device time adds up:
    /// launches, and the grids of one multi-grid call, are serial kernels
    /// on the simulated device. Host wall time adds up too, so absorbing
    /// every grid of one call gives back the call's elapsed time.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.num_blocks += other.num_blocks;
        self.num_tasks += other.num_tasks;
        self.device_cycles += other.device_cycles;
        self.total_block_cycles += other.total_block_cycles;
        self.busy_cycles += other.busy_cycles;
        self.resident_warp_cycles += other.resident_warp_cycles;
        self.steals += other.steals;
        self.global_transactions += other.global_transactions;
        self.shared_accesses += other.shared_accesses;
        self.buf_reuse += other.buf_reuse;
        self.buf_alloc += other.buf_alloc;
        self.wall_seconds += other.wall_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_bounds() {
        let mut b = BlockStats::new(4);
        b.makespan_cycles = 100;
        b.busy_cycles = 400;
        assert!((b.utilization() - 1.0).abs() < 1e-12);
        b.busy_cycles = 200;
        assert!((b.utilization() - 0.5).abs() < 1e-12);
        let empty = BlockStats::new(0);
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = KernelStats {
            num_blocks: 1,
            device_cycles: 10,
            busy_cycles: 5,
            resident_warp_cycles: 10,
            ..Default::default()
        };
        let b = KernelStats {
            num_blocks: 2,
            device_cycles: 20,
            busy_cycles: 15,
            resident_warp_cycles: 20,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.num_blocks, 3);
        assert_eq!(a.device_cycles, 30);
        assert!((a.utilization() - 20.0 / 30.0).abs() < 1e-12);
    }
}
