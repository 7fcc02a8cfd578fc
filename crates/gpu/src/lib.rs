//! # gamma-gpu — a deterministic SIMT execution simulator
//!
//! The GAMMA paper's contributions are *scheduling and memory-shape*
//! algorithms for CUDA hardware: warp-centric task granularity, warp-level
//! work stealing through per-block shared memory, coalesced global-memory
//! access, and cooperative-group sub-warp sizing. Reproducing them in Rust
//! without an Nvidia GPU requires a substrate that preserves those
//! mechanisms and their observables. This crate is that substrate.
//!
//! ## Execution model
//!
//! * A **kernel launch** ([`Device::launch`]) receives a list of *warp
//!   tasks* ([`WarpTask`]) — in GAMMA, one task per update edge, exactly the
//!   paper's warp-centric assignment (§IV-C) — and the launch state they
//!   all read. Tasks are plain values that borrow that state on every step
//!   and split, so no task or stolen part is boxed and none touches a
//!   reference count; each block holds one reference to the state.
//! * Tasks are grouped into **blocks** of `warps_per_block` tasks, and
//!   every block launches all `warps_per_block` warps: a block with fewer
//!   tasks (a grid's last, or a small grid's only one) starts its other
//!   warps idle ([`run_block`]). Blocks are picked up greedily by up to
//!   `min(num_sms, host parallelism)` host threads — the launching thread
//!   plus helpers from one process-wide pool, started on first use —
//!   mirroring how CUDA distributes resident blocks over **SMs**
//!   (streaming multiprocessors). Only that first use starts threads; a
//!   single-block launch runs inline.
//! * Several grids can share one call ([`Device::launch_grids`]): their
//!   blocks share the host threads, while each grid's stats and device
//!   time are its own, as if it were launched alone (the simulated device
//!   runs the grids as serial kernels).
//! * The pool runs jobs, of which a block is one kind ([`run_jobs`]): a
//!   host executor outside the block scheduler — the shard runtime in
//!   `gamma-core` — runs its own units on the same threads, through the
//!   same claim queue and the same panic path.
//! * Inside a block, warps are interleaved by a deterministic event-driven
//!   scheduler: the warp with the smallest virtual clock is advanced by one
//!   [`WarpTask::step`], whose cost (in simulated cycles) is charged through
//!   [`WarpCtx`]. The per-warp clocks are exactly the "cumulative execution
//!   time across warps" the paper's Figure 13 reasons about.
//! * **Work stealing** (§V-A) is modeled faithfully: each block owns a
//!   simulated shared-memory status array; an idle warp walks it level by
//!   level and appropriates half of the unexplored work at the shallowest
//!   level any warp can split ([`WarpTask::offer`],
//!   [`WarpTask::try_split`]). The walk costs `(L + 1)·|W|` shared-memory
//!   reads for work found at level `L` (the paper's `O(L·|W|)`), and the
//!   copy one read per word it moves. An idle warp that finds nothing to
//!   steal waits, and waiting warps also **share scans**: a step marks the
//!   cycles of its `GenCandidates` scan that other warps could take on
//!   ([`WarpCtx::shareable`]), and the block splits them between the
//!   stepping warp and its waiting warps whenever the split saves more
//!   than its coordination costs ([`CostModel::shared_scan_coordination`]),
//!   as GSM's load balancing has a whole block expand one large neighbor
//!   list.
//! * **Block splits.** Warps steal only inside their block, so a block
//!   that has run [`SPLIT_BUDGET`] cycles since it started or last split
//!   passes every busy warp's offer to [`WarpTask::try_split`], and the
//!   parts run as a new block of the same grid: one rule for what a split
//!   takes serves thieves, blocks and `gamma-core`'s shard units, which
//!   hand off at a cadence of their own. The split pays a coalesced global
//!   transfer of its offers' words on each side. A split block runs on its
//!   parent's host job, after it, and is ready on the device when its
//!   parent wrote its parts, so no grid waits on its heaviest block while
//!   SMs sit idle, and a block's outcome still depends only on its tasks.
//!
//! ## What the simulator reports
//!
//! [`KernelStats`] exposes device makespan in cycles (converted to
//! *simulated seconds* through a calibrated clock), warp busy time, GPU
//! utilization (busy warp-cycles over resident warp-cycles), memory
//! transaction counts, steal and block-split counts, and the tasks and
//! scheduler steps run — the quantities behind the paper's Table III
//! latency entries, Figure 13 utilization plots and Figure 14 ablations.
//! A block and the blocks it splits into report the same type, as a
//! one-block launch ([`run_block`]), and a launch sums its blocks' stats.
//! Absolute seconds are not expected to match an RTX 3090; *shapes and
//! ratios* are.

pub mod block;
pub mod cost;
pub mod device;
pub mod memory;
pub mod stats;
pub mod task;

pub use block::run_block;
pub use cost::CostModel;
pub use device::{lock, run_jobs, Device, Job};
pub use memory::MemoryTracker;
pub use stats::KernelStats;
pub use task::{Offer, StepResult, WarpCtx, WarpTask};

/// Cycles a block runs between two splits: under [`Stealing::Active`] a
/// block that has run this many since it started or last split passes
/// every busy warp's offer to [`WarpTask::try_split`], and the parts run
/// as a new block of its grid ([`run_block`]). Picked on the device's
/// `tree-churn` stream, against blocks that never split: 131,072 cuts the
/// simulated cycles by 19%, 65,536 by 30%, and 32,768 by 42% but grows
/// the fixed-trace replay's AZ/Dense/churn GAMMA cell by 0.9%. Below
/// that, a split block occupies a new SM with a new block, which the
/// replay's small Tree grids pay for: against 65,536, 16,384 cuts
/// `tree-churn` by a further 32.1% but grows the AZ/Tree/churn GAMMA cell
/// by 20.3% and GH/Tree/churn by 3.9%, and cost `tree-churn` 13.5% of its
/// updates/s over 4 pairs of runs; 8,192 grows those two cells by 36.2%
/// and 17.2%. `gamma-core`'s shard units split through the same
/// [`WarpTask::try_split`] at a cadence of their own, 12,288 cycles
/// (`gamma_core::UNIT_SPLIT_BUDGET`): a unit's hand-off is one transfer
/// to another lane of its shard, not a new block.
pub const SPLIT_BUDGET: u64 = 65_536;

/// Work-stealing strategy for warps within a block (§V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Stealing {
    /// No stealing: the WBM baseline. A warp without a task never runs,
    /// and no warp waits to share a scan.
    Off,
    /// Idle warps walk `csize`/`p` in shared memory and take half of the
    /// unexplored work at the shallowest level a busy warp can split (the
    /// paper's preferred strategy); any splittable work qualifies. A
    /// block's warps without a task walk at clock 0. A warp whose walk
    /// finds no victim waits: after each step of a busy warp that can
    /// split, the lowest-index waiting warp takes half of its work, so
    /// warps keep stealing until their block drains. Until then, the
    /// waiting warps take on a share of each step's shareable scan cycles
    /// whenever that saves more than it costs ([`run_block`]). A block
    /// that has run [`SPLIT_BUDGET`] cycles since it started or last split
    /// also splits every busy warp's offer off into a new block of its
    /// grid.
    #[default]
    Active,
}

/// Configuration of the simulated device.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Number of simulated streaming multiprocessors. Drives the device
    /// makespan model (`max(⌈Σ makespans / num_sms⌉, max over blocks of
    /// (ready + makespan))`, a split block ready when its parent wrote its
    /// parts); a launch runs on `min(num_sms, host parallelism, blocks)`
    /// host threads: the caller and helpers from the process-wide launch
    /// pool, a block's split blocks on its thread. A shard phase runs its
    /// anchor units ahead on `min(num_sms, host parallelism, anchors)` of
    /// them.
    pub num_sms: usize,
    /// Warps per block: the tasks a block is given, and the warps every
    /// block launches, tasks or not (the pool a warp can steal from and
    /// share scans with). A block given fewer tasks starts its other warps
    /// idle; under [`Stealing::Off`] they never run, but they are resident
    /// all the same.
    pub warps_per_block: usize,
    /// Threads per warp (32 on all CUDA hardware).
    pub warp_size: u32,
    /// Simulated core clock in GHz; converts cycles to simulated seconds.
    pub clock_ghz: f64,
    /// Work-stealing strategy. Under [`Stealing::Active`] every split a
    /// task offers is eligible: there is no minimum.
    pub stealing: Stealing,
    /// Device (global) memory capacity in bytes; the BFS-variant kernel and
    /// GPMA use it to model spill-to-host transfers.
    pub device_memory_bytes: u64,
    /// Host↔device bandwidth in bytes per simulated cycle (PCIe model).
    pub pcie_bytes_per_cycle: f64,
    /// Cost model for memory/compute charging.
    pub cost: CostModel,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            // Simulated SM count — a model parameter, NOT the host thread
            // count (the launcher caps worker threads at host parallelism
            // separately). The paper's RTX 3090 has 83 SMs; 16 keeps the
            // scaled-down device proportionate to the scaled-down datasets.
            num_sms: 16,
            warps_per_block: 8,
            warp_size: 32,
            clock_ghz: 1.4,
            stealing: Stealing::Active,
            device_memory_bytes: 64 << 20,
            pcie_bytes_per_cycle: 16.0, // ~22 GB/s at 1.4 GHz
            cost: CostModel::default(),
        }
    }
}

impl DeviceConfig {
    /// A deterministic single-SM configuration (serial block execution),
    /// useful in tests where reproducible interleaving matters end-to-end.
    pub fn single_sm() -> Self {
        Self {
            num_sms: 1,
            ..Self::default()
        }
    }

    /// Converts simulated cycles to simulated seconds.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }
}
