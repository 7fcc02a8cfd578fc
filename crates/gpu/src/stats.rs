//! Kernel-launch statistics.

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
    /// Total resident warp-cycles (`Σ |W|·makespan` per block, `|W|` the
    /// block's warps: `max(tasks, warps_per_block)`, idle or not).
    pub resident_warp_cycles: u64,
    /// Total steals across blocks.
    pub steals: u64,
    /// Steps whose shareable cycles ([`WarpCtx::shareable`]) the waiting
    /// warps of their block joined: the scans split between the stepping
    /// warp and its helpers. 0 with stealing off (no warp waits) and on
    /// the shard executor (a unit has no block).
    ///
    /// [`WarpCtx::shareable`]: crate::WarpCtx::shareable
    pub shared_scans: u64,
    /// Warp tasks run to completion, each stolen part counted as a task
    /// of its own: the submitted tasks plus the steals. Block launches
    /// count it; the shard executor, which runs units and no blocks,
    /// leaves it 0.
    pub tasks_completed: u64,
    /// Scheduler quanta executed ([`WarpTask::step`] calls; 0 on the
    /// shard executor, as `tasks_completed`).
    ///
    /// [`WarpTask::step`]: crate::WarpTask::step
    pub scheduler_steps: u64,
    /// Total global transactions.
    pub global_transactions: u64,
    /// Total shared accesses.
    pub shared_accesses: u64,
    /// Candidate-buffer draws served by buffers the drawing task had
    /// returned earlier, across the launch. The buffers come from a pool
    /// per host thread, but each task counts its draws as a pool of its
    /// own would serve them, so this does not depend on which thread ran
    /// which task.
    pub buf_reuse: u64,
    /// Candidate-buffer draws a pool of the task's own would have missed
    /// (counted as [`KernelStats::buf_reuse`] is). In the DFS steady state
    /// this is bounded by tasks × query depth (warm-up); per-quantum
    /// allocations would make it scale with `busy_cycles`.
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
        self.shared_scans += other.shared_scans;
        self.tasks_completed += other.tasks_completed;
        self.scheduler_steps += other.scheduler_steps;
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
        let mut k = KernelStats {
            resident_warp_cycles: 4 * 100,
            busy_cycles: 400,
            ..Default::default()
        };
        assert!((k.utilization() - 1.0).abs() < 1e-12);
        k.busy_cycles = 200;
        assert!((k.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(KernelStats::default().utilization(), 0.0);
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

    #[test]
    fn absorb_sums_shared_scans() {
        let block = KernelStats {
            shared_scans: 4,
            ..Default::default()
        };
        let mut launch = KernelStats::default();
        launch.absorb(&block);
        launch.absorb(&block);
        assert_eq!(launch.shared_scans, 8);
    }
}
