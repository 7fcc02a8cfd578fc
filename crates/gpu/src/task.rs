//! The warp-task abstraction and per-warp cost accounting.

use crate::cost::CostModel;

/// Result of advancing a warp by one scheduler quantum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepResult {
    /// The warp still has work.
    Continue,
    /// The warp finished its task.
    Done,
}

/// Execution context handed to a warp on every step; the warp charges the
/// simulated cycle cost of whatever it did through these methods, and
/// marks the part of it the waiting warps of its block could share
/// ([`WarpCtx::shareable`]).
#[derive(Debug)]
pub struct WarpCtx {
    /// Cost model shared by the device.
    pub cost: CostModel,
    /// Threads per warp.
    pub warp_size: u32,
    /// Cycles charged during the current step.
    step_cycles: u64,
    /// The part of `step_cycles` marked shareable ([`WarpCtx::shareable`]).
    shareable: u64,
    /// Global-memory transactions charged during the whole block run.
    pub global_transactions: u64,
    /// Shared-memory accesses charged during the whole block run.
    pub shared_accesses: u64,
    /// Candidate-buffer draws a pool of the drawing task's own would
    /// serve (the zero-allocation steady state of the DFS kernel).
    pub buf_reuse: u64,
    /// Candidate-buffer draws such a pool would miss (warm-up only; in
    /// steady state this must stop growing).
    pub buf_alloc: u64,
}

impl WarpCtx {
    /// Builds a fresh context. Public so host-side executors that schedule
    /// work *outside* [`crate::Device::launch`] (e.g. the sharded
    /// virtual-time runtime in `gamma-core`) can meter their units with the
    /// same cost model the block scheduler uses.
    pub fn new(cost: CostModel, warp_size: u32) -> Self {
        Self {
            cost,
            warp_size,
            step_cycles: 0,
            shareable: 0,
            global_transactions: 0,
            shared_accesses: 0,
            buf_reuse: 0,
            buf_alloc: 0,
        }
    }

    /// Charges raw cycles.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.step_cycles += cycles;
    }

    /// `⌈words / warp_size⌉.max(1)` without a hardware division for the
    /// (ubiquitous) power-of-two warp size — these round counts are
    /// computed on every single charge of the kernel's innermost loop.
    #[inline]
    fn warp_rounds(&self, words: u64) -> u64 {
        if self.warp_size.is_power_of_two() {
            ((words + self.warp_size as u64 - 1) >> self.warp_size.trailing_zeros()).max(1)
        } else {
            words.div_ceil(self.warp_size as u64).max(1)
        }
    }

    /// Charges a warp-coalesced global read of `words` consecutive words.
    #[inline]
    pub fn global_read_coalesced(&mut self, words: u64) {
        let rounds = self.warp_rounds(words);
        self.global_transactions += rounds;
        let c = self.cost.coalesced_read_rounds(rounds);
        self.charge(c);
    }

    /// Charges a divergent global read of `words` scattered words.
    pub fn global_read_divergent(&mut self, words: u64) {
        self.global_transactions += words.max(1);
        let c = self.cost.divergent_read(words, self.warp_size);
        self.charge(c);
    }

    /// Charges `accesses` shared-memory accesses.
    pub fn shared_access(&mut self, accesses: u64) {
        self.shared_accesses += accesses;
        let c = accesses * self.cost.shared_latency;
        self.charge(c);
    }

    /// Charges `ops` warp-wide compute steps.
    pub fn compute(&mut self, ops: u64) {
        let c = ops * self.cost.compute;
        self.charge(c);
    }

    /// Charges a chunked merge intersection of `small` candidates against
    /// the `covered` span of the larger run (shift-based round counts; the
    /// formula lives in [`CostModel::chunked_intersect_rounds`]). Chunk
    /// gathers are coalesced transactions; the slice sweep reuses staged
    /// memory and is charged as probe fractions, not transactions.
    #[inline]
    pub fn chunked_intersect(&mut self, small: u64, covered: u64) {
        if small == 0 {
            self.charge(self.cost.compute);
            return;
        }
        let chunk_rounds = self.warp_rounds(small);
        self.global_transactions += chunk_rounds;
        let c = self
            .cost
            .chunked_intersect_rounds(chunk_rounds, self.warp_rounds(covered));
        self.charge(c);
    }

    /// Charges a warp-wide probe of `lanes` candidates against a u64 run
    /// signature held in shared memory (see [`CostModel::bitmap_probe`]).
    #[inline]
    pub fn bitmap_probe(&mut self, lanes: u64) {
        let rounds = self.warp_rounds(lanes);
        self.shared_accesses += rounds;
        let c = rounds * (self.cost.shared_latency + self.cost.compute);
        self.charge(c);
    }

    /// Charges a vertex-directory lookup (run-head fetch + bounded probe;
    /// see [`CostModel::directory_locate`]).
    pub fn dir_locate(&mut self) {
        self.global_transactions += 1;
        let c = self.cost.directory_locate();
        self.charge(c);
    }

    /// Records a candidate-buffer acquisition: `reused` when a pool of the
    /// task's own would serve it, a miss otherwise. Free (no cycles) —
    /// this instruments the kernel's *host* allocation discipline, whose
    /// steady state must allocate nothing.
    pub fn note_buffer(&mut self, reused: bool) {
        if reused {
            self.buf_reuse += 1;
        } else {
            self.buf_alloc += 1;
        }
    }

    /// Runs `f` and marks the cycles it charges as **shareable**: work the
    /// waiting warps of the block could split with this warp, such as a
    /// `GenCandidates` scan's run reads, gates and probes. The block
    /// scheduler reads the step's share ([`WarpCtx::shareable_cycles`])
    /// before it drains the step; an executor without a block ignores it.
    #[inline]
    pub fn shareable<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let before = self.step_cycles;
        let r = f(self);
        self.shareable += self.step_cycles - before;
        r
    }

    /// The cycles of the current step marked shareable, at most the
    /// step's cycles.
    pub fn shareable_cycles(&self) -> u64 {
        self.shareable
    }

    /// Drains and returns the cycles charged since the last drain, and
    /// clears the shareable count with them, so a drain that ignores it
    /// never carries it into the next step. Public for the same reason as
    /// [`WarpCtx::new`]: external executors meter a unit of work by
    /// draining its cycles as it steps.
    pub fn take_step_cycles(&mut self) -> u64 {
        self.shareable = 0;
        std::mem::take(&mut self.step_cycles)
    }
}

/// A unit of warp-granularity work (in GAMMA: the DFS for one update edge).
///
/// Implementations are *state machines*: [`WarpTask::step`] performs a
/// bounded amount of work (one DFS level transition, one segment merge, ...)
/// and charges its cost to the [`WarpCtx`]. This is what lets the block
/// scheduler interleave warps deterministically and lets idle warps steal.
///
/// What every task of one launch reads is the launch's
/// [`WarpTask::Launch`] state, which the launch lends to each step and
/// each split: a task holds no reference to it.
pub trait WarpTask: Send + Sized + 'static {
    /// The state every task of one launch reads.
    type Launch: Send + Sync + 'static;

    /// Advances the task by one quantum, charging costs to `ctx`.
    fn step(&mut self, launch: &Self::Launch, ctx: &mut WarpCtx) -> StepResult;

    /// What [`WarpTask::try_split`] would take now, or `None` when the
    /// task cannot be split. An idle warp reads this for every busy warp of
    /// its block (GAMMA walks the `csize`/`p` arrays in shared memory for
    /// it) and steals from the one whose offer is shallowest.
    fn offer(&self, _launch: &Self::Launch) -> Option<Offer> {
        None
    }

    /// Splits off exactly what [`WarpTask::offer`] reports into a new task
    /// (the paper's "appropriates half of its tasks"). Returns `None`
    /// exactly when the offer is `None`. Costs of copying state are
    /// charged by the caller, from the offer, not here.
    fn try_split(&mut self, _launch: &Self::Launch) -> Option<Self> {
        None
    }
}

/// What a task's split would take ([`WarpTask::offer`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Offer {
    /// The DFS level the taken work sits at: how deep a thief's walk of
    /// the block's status array goes before it finds it.
    pub level: usize,
    /// Units taken: candidates of one level, partial matches or seeds.
    pub units: u64,
    /// Words the thief copies out of the victim's shared memory.
    pub words: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_accumulates_and_drains() {
        let mut ctx = WarpCtx::new(CostModel::default(), 32);
        ctx.compute(10);
        ctx.shared_access(2);
        let cycles = ctx.take_step_cycles();
        assert_eq!(cycles, 10 + 2 * 20);
        assert_eq!(ctx.take_step_cycles(), 0);
        assert_eq!(ctx.shared_accesses, 2);
    }

    #[test]
    fn transactions_counted() {
        let mut ctx = WarpCtx::new(CostModel::default(), 32);
        ctx.global_read_coalesced(64);
        assert_eq!(ctx.global_transactions, 2);
        ctx.global_read_divergent(5);
        assert_eq!(ctx.global_transactions, 7);
    }

    #[test]
    fn chunked_and_bitmap_charges_match_model() {
        let cost = CostModel::default();
        let mut ctx = WarpCtx::new(cost, 32);
        ctx.chunked_intersect(64, 256);
        assert_eq!(ctx.global_transactions, 2);
        assert_eq!(ctx.take_step_cycles(), cost.chunked_intersect(64, 256, 32));
        ctx.chunked_intersect(0, 256);
        assert_eq!(ctx.take_step_cycles(), cost.compute);
        assert_eq!(ctx.global_transactions, 2, "empty chunk reads nothing");
        ctx.bitmap_probe(64);
        assert_eq!(ctx.shared_accesses, 2);
        assert_eq!(ctx.take_step_cycles(), cost.bitmap_probe(64, 32));
    }

    #[test]
    fn shareable_cycles_are_marked_and_drained_with_the_step() {
        let mut ctx = WarpCtx::new(CostModel::default(), 32);
        ctx.compute(7);
        let rows = ctx.shareable(|ctx| {
            ctx.global_read_coalesced(64);
            ctx.compute(5);
            3
        });
        ctx.shared_access(1);
        assert_eq!(rows, 3);
        assert_eq!(ctx.shareable_cycles(), 2 * 200 + 5);
        assert_eq!(ctx.take_step_cycles(), 7 + 2 * 200 + 5 + 20);
        assert_eq!(ctx.shareable_cycles(), 0, "a drain clears the share");
    }
}
