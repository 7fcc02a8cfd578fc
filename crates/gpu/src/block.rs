//! Event-driven execution of one block of warps, with work stealing.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

use crate::cost::scan_rounds;
use crate::stats::KernelStats;
use crate::task::{Offer, StepResult, WarpCtx, WarpTask};
use crate::{DeviceConfig, Stealing, SPLIT_BUDGET};

struct WarpSlot<T> {
    /// Virtual clock of this warp (cycles since block start).
    clock: u64,
    /// Cycles this warp spent doing useful work.
    busy: u64,
    /// The running task; `None` for a slot launched without one, and once
    /// finished and nothing was stolen.
    task: Option<T>,
}

/// Runs one block of warp tasks of one launch to completion, and every
/// block it splits into. Returns their stats as a one-block launch
/// reports them, and each warp slot's busy cycles, summed over the block
/// and its split blocks (index = warp slot), for workload-skew traces.
///
/// The block has `max(tasks, warps_per_block)` warps, one per task first.
/// A slot without a task starts idle: under [`Stealing::Active`] it walks
/// for a victim at clock 0; under [`Stealing::Off`] it never runs, but it
/// is resident all the same.
///
/// Warps are advanced in virtual-clock order (ties broken by warp index),
/// which makes the interleaving — and therefore stealing decisions,
/// utilization and makespan — fully deterministic for a given task list.
///
/// With [`Stealing::Active`] a warp without a task walks the block's
/// status array on its next turn and steals from the busy warp whose
/// split ([`WarpTask::offer`]) takes work at the shallowest DFS level;
/// ties go to the larger offer, then to the lowest warp index. Any offer
/// qualifies. If no warp offers anything the thief waits, and waiting
/// warps work in two ways:
///
/// * **Shared scans.** After every step, the step's shareable cycles `P`
///   ([`WarpCtx::shareable`]) are split between the stepping warp and
///   the `k` warps waiting since the step's start, when the split saves
///   more than it costs: `P − ⌈P/(k+1)⌉` above the coordination
///   ([`CostModel::shared_scan_coordination`]). The stepping warp's share
///   is `⌈P/(k+1)⌉`, the others take the rest in index order, so busy
///   cycles still add up to the step's; every participant also pays the
///   coordination in clock time, and the helpers keep waiting.
/// * **Steals.** After every step of a busy warp that offers a split, the
///   lowest-index waiting warp takes it.
///
/// So a warp stays idle only while no other warp of its block holds work
/// that can be split or shared.
///
/// **Block splits.** A block's warps steal only from each other, so under
/// [`Stealing::Active`] a block that has run [`SPLIT_BUDGET`] cycles since
/// it started or last split also splits: after the first busy step that
/// starts past the budget and after which any warp offers work, every
/// busy warp's offer goes through [`WarpTask::try_split`], and the parts
/// run as a new block of the same grid, one part per warp. The block's
/// clock is the clock its next step starts at. The stepping warp reads the
/// block's `|W|` status slots and the offers' words, then writes them in
/// one coalesced global transfer; the new block reads them back in
/// another before its warps start. Both are clock time, not busy time, as
/// for a steal. Each part counts as one steal, and each split block in
/// [`KernelStats::block_splits`].
///
/// Split blocks run here, after the block, so the result depends only on
/// the tasks. A block is ready at 0, a split block at its parent's ready
/// time plus the parent's clock when it wrote the parts; the stats'
/// `device_cycles` is `max(⌈Σ makespans / num_sms⌉, max over blocks of
/// (ready + makespan))`, the makespan of the block alone when it never
/// splits.
///
/// [`CostModel::shared_scan_coordination`]: crate::CostModel::shared_scan_coordination
pub fn run_block<T: WarpTask>(
    launch: &T::Launch,
    tasks: Vec<T>,
    cfg: &DeviceConfig,
) -> (KernelStats, Vec<u64>) {
    let started = Instant::now();
    let mut stats = KernelStats {
        num_tasks: tasks.len(),
        ..KernelStats::default()
    };
    let mut warp_busy = vec![0; tasks.len().max(cfg.warps_per_block).max(1)];
    // Blocks left to run: ready time, the clock their warps start at, and
    // their tasks. A split block has at most its parent's warps.
    let mut blocks = VecDeque::from([(0, 0, tasks)]);
    let mut finish = 0;
    while let Some((ready, start, tasks)) = blocks.pop_front() {
        let (block, busy, splits) = run_one(launch, tasks, start, cfg);
        finish = finish.max(ready + block.device_cycles);
        debug_assert!(busy.len() <= warp_busy.len());
        for (slot, b) in warp_busy.iter_mut().zip(busy) {
            *slot += b;
        }
        blocks.extend(
            splits
                .into_iter()
                .map(|s| (ready + s.offset, s.start, s.parts)),
        );
        stats.absorb(&block);
    }
    let ideal = stats.total_block_cycles.div_ceil(cfg.num_sms.max(1) as u64);
    stats.device_cycles = ideal.max(finish);
    stats.wall_seconds = started.elapsed().as_secs_f64();
    (stats, warp_busy)
}

/// Parts a block split off ([`split`]): a new block of its grid.
struct Split<T> {
    /// The parent's clock once the parts are written: the new block is
    /// ready this long after its parent.
    offset: u64,
    /// The clock the new block's warps start at: its read-back of the
    /// parts.
    start: u64,
    /// One part per busy warp that offered, in warp order.
    parts: Vec<T>,
}

/// Runs one block whose warps start at clock `start`, as [`run_block`]
/// describes, but not the blocks it splits into: returns its stats (its
/// makespan as `device_cycles`, no `num_tasks`), its warps' busy cycles
/// and its splits.
fn run_one<T: WarpTask>(
    launch: &T::Launch,
    tasks: Vec<T>,
    start: u64,
    cfg: &DeviceConfig,
) -> (KernelStats, Vec<u64>, Vec<Split<T>>) {
    let mut stats = KernelStats {
        num_blocks: 1,
        ..KernelStats::default()
    };
    let num_tasks = tasks.len();
    let num_warps = num_tasks.max(cfg.warps_per_block).max(1);
    let mut ctx = WarpCtx::new(cfg.cost, cfg.warp_size);
    let mut warps: Vec<WarpSlot<T>> = tasks
        .into_iter()
        .map(Some)
        .chain(std::iter::repeat_with(|| None))
        .take(num_warps)
        .map(|task| WarpSlot {
            clock: start,
            busy: 0,
            task,
        })
        .collect();

    // Min-heap of (clock, warp index) over warps that hold a task or are
    // about to scan for a victim. Under `Off` a slot without a task never
    // enters it.
    let active = cfg.stealing == Stealing::Active;
    let runnable = if active { num_warps } else { num_tasks };
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..runnable).map(|i| Reverse((start, i))).collect();
    // Warps whose walk found no victim, in ascending index order, waiting
    // for a busy warp to share a scan or offer a split.
    let mut idle: Vec<usize> = Vec::new();
    // When the block started or last split, on the block's clock: the
    // clock its current step started at, the least of its runnable
    // warps'. And its splits, and whether the last attempt found no offer.
    let (mut since, mut splits, mut fruitless) = (0, Vec::new(), false);

    while let Some(Reverse((clock, wi))) = heap.pop() {
        debug_assert_eq!(warps[wi].clock, clock);

        let Some(task) = warps[wi].task.as_mut() else {
            // A warp without a task's turn: it walks shared memory for the
            // shallowest offer (then the largest, then the lowest index).
            let victim = warps
                .iter()
                .enumerate()
                .filter_map(|(i, w)| {
                    let offer = w.task.as_ref()?.offer(launch)?;
                    Some(((offer.level, Reverse(offer.units), i), offer))
                })
                .min_by_key(|&(key, _)| key);
            if let Some(((_, _, v), offer)) = victim {
                steal(&mut warps, launch, v, offer, wi, clock, &mut ctx);
                stats.steals += 1;
                heap.push(Reverse((warps[wi].clock, wi)));
            } else {
                let at = idle.partition_point(|&w| w < wi);
                idle.insert(at, wi);
            }
            continue;
        };

        // Advance the task by one quantum.
        let done = task.step(launch, &mut ctx) == StepResult::Done;
        let shareable = ctx.shareable_cycles();
        let cycles = ctx.take_step_cycles().max(1);
        let mut own = cycles;
        if let Some((share, coordination)) =
            share_scan(&mut warps, &idle, clock, shareable, &mut ctx)
        {
            stats.shared_scans += 1;
            warps[wi].clock += coordination;
            own = cycles - shareable + share;
        }
        warps[wi].clock += own;
        warps[wi].busy += own;
        stats.scheduler_steps += 1;

        let mut handed_to = None;
        if done {
            warps[wi].task = None;
            stats.tasks_completed += 1;
        } else if let Some(&thief) = idle.first() {
            // A waiting warp takes what this warp offers as soon as it
            // offers anything.
            let offer = warps[wi].task.as_ref().and_then(|t| t.offer(launch));
            if let Some(offer) = offer {
                let start = warps[thief].clock.max(warps[wi].clock);
                steal(&mut warps, launch, wi, offer, thief, start, &mut ctx);
                idle.remove(0);
                stats.steals += 1;
                heap.push(Reverse((warps[thief].clock, thief)));
                handed_to = Some(thief);
            }
        }
        if active && clock >= since + SPLIT_BUDGET {
            let stepped = [Some(wi), handed_to];
            if let Some(s) = split(&mut warps, launch, wi, stepped, &mut fruitless, &mut ctx) {
                since = clock;
                stats.steals += s.parts.len() as u64;
                stats.block_splits += 1;
                splits.push(s);
            }
        }
        // A finished warp re-enters the heap under `Active`: on its next
        // turn (i.e. when all other warps caught up to its clock) it walks
        // for a victim. This models "after a warp completes its current
        // workloads, it inspects other warps".
        if active || !done {
            heap.push(Reverse((warps[wi].clock, wi)));
        }
    }

    let makespan = warps.iter().map(|w| w.clock).max().unwrap_or(0).max(1);
    let warp_busy: Vec<u64> = warps.iter().map(|w| w.busy).collect();
    stats.device_cycles = makespan;
    stats.total_block_cycles = makespan;
    stats.resident_warp_cycles = num_warps as u64 * makespan;
    stats.busy_cycles = warp_busy.iter().sum();
    stats.global_transactions = ctx.global_transactions;
    stats.shared_accesses = ctx.shared_accesses;
    stats.buf_reuse = ctx.buf_reuse;
    stats.buf_alloc = ctx.buf_alloc;
    (stats, warp_busy, splits)
}

/// The block split of [`Stealing::Active`]: warp `wi` passes every busy
/// warp's offer ([`WarpTask::offer`]) to [`WarpTask::try_split`]. It pays
/// the shared-memory reads of the block's `|W|` status slots and of the
/// offers' words, and one coalesced global write of those words (priced as
/// a coalesced read), in clock time; the new block's read-back of them is
/// its start. `None`, at no cost, when no warp offers anything, which it
/// records in `fruitless`.
///
/// A block attempts a split at every busy step from the budget on until
/// one succeeds, and a warp's offer changes only when the warp steps or
/// takes stolen work. So after a fruitless attempt only the `stepped`
/// warps (the warp that just stepped and the thief its step handed work
/// to) can offer: their offers are read first, and the block is scanned
/// only when one of them offers. The attempt runs on few steps, so it
/// stays out of the scheduler loop.
#[inline(never)]
fn split<T: WarpTask>(
    warps: &mut [WarpSlot<T>],
    launch: &T::Launch,
    wi: usize,
    stepped: [Option<usize>; 2],
    fruitless: &mut bool,
    ctx: &mut WarpCtx,
) -> Option<Split<T>> {
    let offers = |w: usize| {
        let task = warps[w].task.as_ref();
        task.is_some_and(|t| t.offer(launch).is_some())
    };
    if *fruitless && !stepped.into_iter().flatten().any(offers) {
        return None;
    }
    let mut words = 0;
    let parts: Vec<T> = warps
        .iter_mut()
        .filter_map(|w| {
            let task = w.task.as_mut()?;
            words += task.offer(launch)?.words;
            Some(
                task.try_split(launch)
                    .expect("a task splits off what it offers"),
            )
        })
        .collect();
    *fruitless = parts.is_empty();
    if parts.is_empty() {
        return None;
    }
    ctx.shared_access(warps.len() as u64 + words);
    ctx.global_read_coalesced(words);
    warps[wi].clock += ctx.take_step_cycles();
    ctx.global_read_coalesced(words);
    Some(Split {
        offset: warps[wi].clock,
        start: ctx.take_step_cycles(),
        parts,
    })
}

/// The shared scan after a step that started at `start` and marked
/// `shareable` (`P`) of its cycles. The `k` waiting warps whose clocks are
/// at or before `start` join when the split saves more than the
/// coordination costs. The stepping warp's share is `⌈P/(k+1)⌉`; the
/// helpers split the rest, in index order, the first ones one cycle more
/// while the remainder lasts. A helper is busy for its share, and its
/// clock moves to `start` plus its share plus the coordination. Returns
/// the stepping warp's share and the coordination, or `None` when nobody
/// joins.
fn share_scan<T>(
    warps: &mut [WarpSlot<T>],
    idle: &[usize],
    start: u64,
    shareable: u64,
    ctx: &mut WarpCtx,
) -> Option<(u64, u64)> {
    let helpers = idle.iter().filter(|&&h| warps[h].clock <= start).count() as u64;
    if shareable == 0 || helpers == 0 {
        return None;
    }
    let own = shareable.div_ceil(helpers + 1);
    let coordination = ctx.cost.shared_scan_coordination(helpers);
    if shareable - own <= coordination {
        return None;
    }
    // The stepping warp publishes the scan descriptor, each helper reads
    // it, and every participant takes part in each exclusive-scan round.
    ctx.shared_accesses += 1 + helpers + (helpers + 1) * scan_rounds(helpers + 1);
    let rest = shareable - own;
    let (each, mut extra) = (rest / helpers, rest % helpers);
    for &h in idle {
        if warps[h].clock > start {
            continue;
        }
        let share = each + u64::from(extra > 0);
        extra = extra.saturating_sub(1);
        warps[h].clock = start + share + coordination;
        warps[h].busy += share;
    }
    Some((own, coordination))
}

/// The one steal of [`Stealing::Active`]: idle warp `thief` takes what
/// busy warp `victim` offers (`offer`, its [`WarpTask::offer`]). The thief
/// runs from `start` plus what the steal pays in shared-memory reads: the
/// walk of the block's status array down to the offer's level (`(level +
/// 1)·|W|`, §V-A's `O(L·|W|)` scan) and the copy of the offer's words (the
/// taken work and the partial match it extends). A warp without a task
/// steals at its own clock; a waiting warp at the later of its clock and
/// the victim's.
fn steal<T: WarpTask>(
    warps: &mut [WarpSlot<T>],
    launch: &T::Launch,
    victim: usize,
    offer: Offer,
    thief: usize,
    start: u64,
    ctx: &mut WarpCtx,
) {
    let task = warps[victim].task.as_mut().expect("a victim is busy");
    let split = task
        .try_split(launch)
        .expect("a task splits off what it offers");
    ctx.shared_access((offer.level as u64 + 1) * warps.len() as u64 + offer.words);
    warps[thief].clock = start + ctx.take_step_cycles();
    warps[thief].task = Some(split);
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Mutex;

    use super::*;

    /// A task that performs `units` steps of `cycles_per_unit` cycles each
    /// and can be split in half.
    struct Chunk {
        units: u64,
        cycles_per_unit: u64,
        splittable: bool,
    }

    impl WarpTask for Chunk {
        type Launch = ();

        fn step(&mut self, _: &(), ctx: &mut WarpCtx) -> StepResult {
            if self.units == 0 {
                return StepResult::Done;
            }
            self.units -= 1;
            ctx.charge(self.cycles_per_unit);
            if self.units == 0 {
                StepResult::Done
            } else {
                StepResult::Continue
            }
        }

        fn offer(&self, _: &()) -> Option<Offer> {
            let half = self.units / 2;
            (self.splittable && half > 0).then_some(Offer {
                level: 0,
                units: half,
                words: half,
            })
        }

        fn try_split(&mut self, _: &()) -> Option<Chunk> {
            if !self.splittable || self.units < 2 {
                return None;
            }
            let half = self.units / 2;
            self.units -= half;
            Some(Chunk {
                units: half,
                cycles_per_unit: self.cycles_per_unit,
                splittable: true,
            })
        }
    }

    fn chunk(units: u64, cycles_per_unit: u64) -> Chunk {
        Chunk {
            units,
            cycles_per_unit,
            splittable: true,
        }
    }

    /// A [`Chunk`] whose work stays hidden for its first `hidden` steps:
    /// until then it offers nothing and cannot be split.
    struct Late {
        chunk: Chunk,
        hidden: u64,
    }

    impl WarpTask for Late {
        type Launch = ();

        fn step(&mut self, _: &(), ctx: &mut WarpCtx) -> StepResult {
            self.hidden = self.hidden.saturating_sub(1);
            self.chunk.step(&(), ctx)
        }

        fn offer(&self, _: &()) -> Option<Offer> {
            if self.hidden > 0 {
                None
            } else {
                self.chunk.offer(&())
            }
        }

        fn try_split(&mut self, _: &()) -> Option<Late> {
            if self.hidden > 0 {
                return None;
            }
            let chunk = self.chunk.try_split(&())?;
            Some(Late { chunk, hidden: 0 })
        }
    }

    /// A task of unsplittable steps, each `(plain, shared)`: `plain`
    /// cycles, then `shared` cycles marked shareable, as a scan would.
    struct Scan(std::collections::VecDeque<(u64, u64)>);

    impl WarpTask for Scan {
        type Launch = ();

        fn step(&mut self, _: &(), ctx: &mut WarpCtx) -> StepResult {
            let (plain, shared) = self.0.pop_front().expect("a step left");
            ctx.charge(plain);
            ctx.shareable(|ctx| ctx.charge(shared));
            if self.0.is_empty() {
                StepResult::Done
            } else {
                StepResult::Continue
            }
        }
    }

    fn scan(steps: &[(u64, u64)]) -> Scan {
        Scan(steps.iter().copied().collect())
    }

    /// A [`Late`] whose every step first charges `shared` cycles marked
    /// shareable; its splits do the same.
    struct Sharing {
        late: Late,
        shared: u64,
    }

    impl WarpTask for Sharing {
        type Launch = ();

        fn step(&mut self, _: &(), ctx: &mut WarpCtx) -> StepResult {
            ctx.shareable(|ctx| ctx.charge(self.shared));
            self.late.step(&(), ctx)
        }

        fn offer(&self, _: &()) -> Option<Offer> {
            self.late.offer(&())
        }

        fn try_split(&mut self, _: &()) -> Option<Sharing> {
            let late = self.late.try_split(&())?;
            Some(Sharing {
                late,
                shared: self.shared,
            })
        }
    }

    /// A [`Chunk`] that offers its split at DFS level `level` and logs its
    /// `id` in the launch each time it is split.
    struct Deep {
        id: usize,
        level: usize,
        chunk: Chunk,
    }

    impl WarpTask for Deep {
        type Launch = Mutex<Vec<usize>>;

        fn step(&mut self, _: &Self::Launch, ctx: &mut WarpCtx) -> StepResult {
            self.chunk.step(&(), ctx)
        }

        fn offer(&self, _: &Self::Launch) -> Option<Offer> {
            let offer = self.chunk.offer(&())?;
            Some(Offer {
                level: self.level,
                ..offer
            })
        }

        fn try_split(&mut self, splits: &Self::Launch) -> Option<Deep> {
            let chunk = self.chunk.try_split(&())?;
            crate::lock(splits).push(self.id);
            Some(Deep {
                id: self.id,
                level: self.level,
                chunk,
            })
        }
    }

    /// Runs warp 0, which holds no work, beside one [`Deep`] task per
    /// `(level, units)` (ids from 1), all at 100 cycles a unit, in a block
    /// of exactly those warps; returns the stats and the ids of the tasks
    /// split, in order.
    fn run_deep(specs: &[(usize, u64)]) -> (KernelStats, Vec<usize>) {
        let tasks: Vec<Deep> = std::iter::once((0, 0))
            .chain(specs.iter().copied())
            .enumerate()
            .map(|(id, (level, units))| Deep {
                id,
                level,
                chunk: chunk(units, 100),
            })
            .collect();
        let splits = Mutex::new(Vec::new());
        let cfg = DeviceConfig {
            warps_per_block: tasks.len(),
            ..cfg(Stealing::Active)
        };
        let (stats, _) = run_block(&splits, tasks, &cfg);
        (stats, splits.into_inner().unwrap())
    }

    /// What a [`Watched`] task logs in its launch.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Seen {
        Step(usize),
        Offer(usize),
    }

    /// An unsplittable [`Chunk`] that logs its `id` in the launch at each
    /// step and at each read of its offer, which is always `None`.
    struct Watched {
        id: usize,
        chunk: Chunk,
    }

    impl WarpTask for Watched {
        type Launch = Mutex<Vec<Seen>>;

        fn step(&mut self, seen: &Self::Launch, ctx: &mut WarpCtx) -> StepResult {
            crate::lock(seen).push(Seen::Step(self.id));
            self.chunk.step(&(), ctx)
        }

        fn offer(&self, seen: &Self::Launch) -> Option<Offer> {
            crate::lock(seen).push(Seen::Offer(self.id));
            None
        }
    }

    fn cfg(stealing: Stealing) -> DeviceConfig {
        DeviceConfig {
            stealing,
            ..DeviceConfig::single_sm()
        }
    }

    fn run<T: WarpTask<Launch = ()>>(tasks: Vec<T>, stealing: Stealing) -> KernelStats {
        run_block(&(), tasks, &cfg(stealing)).0
    }

    /// [`run`] in a block exactly as wide as its task list: no spare warps.
    fn run_narrow<T: WarpTask<Launch = ()>>(tasks: Vec<T>, stealing: Stealing) -> KernelStats {
        let cfg = DeviceConfig {
            warps_per_block: tasks.len(),
            ..cfg(stealing)
        };
        run_block(&(), tasks, &cfg).0
    }

    /// One long task and three short ones.
    fn skewed() -> Vec<Chunk> {
        [1000, 2, 2, 2].map(|units| chunk(units, 100)).into()
    }

    #[test]
    fn balanced_tasks_no_steal_needed() {
        let stats = run_narrow((0..4).map(|_| chunk(10, 100)).collect(), Stealing::Active);
        assert_eq!(stats.tasks_completed, 4);
        assert!(stats.utilization() > 0.95, "{}", stats.utilization());
    }

    #[test]
    fn skewed_tasks_active_stealing_cuts_makespan() {
        let off = run(skewed(), Stealing::Off);
        let active = run(skewed(), Stealing::Active);
        assert_eq!(off.steals, 0);
        assert!(active.steals >= 2, "steals={}", active.steals);
        assert!(
            active.device_cycles * 2 < off.device_cycles,
            "active={} off={}",
            active.device_cycles,
            off.device_cycles
        );
        assert!(active.utilization() > off.utilization());
    }

    #[test]
    fn waiting_warp_steals_once_work_becomes_splittable() {
        // The short task's warp finishes while the long task is not yet
        // splittable, so its one steal attempt finds no victim. It waits,
        // and takes half of the long task once that becomes splittable.
        let mk = |steal: Stealing| {
            let tasks = vec![
                Late {
                    chunk: chunk(1000, 100),
                    hidden: 10,
                },
                Late {
                    chunk: chunk(2, 100),
                    hidden: 0,
                },
            ];
            run(tasks, steal)
        };
        let serial = mk(Stealing::Off);
        let active = mk(Stealing::Active);
        assert_eq!(serial.device_cycles, 100_000);
        assert!(active.steals >= 1, "steals={}", active.steals);
        assert!(
            active.device_cycles * 3 < serial.device_cycles * 2,
            "active={} serial={}",
            active.device_cycles,
            serial.device_cycles
        );
        assert_eq!(active.tasks_completed, 2 + active.steals);
    }

    #[test]
    fn small_splittable_work_is_stolen() {
        // Warp 0 has nothing to do, so it walks the block at clock 1, when
        // warp 1's task holds 3 units: any split qualifies, so it takes 1.
        let stats = run_narrow(vec![chunk(0, 100), chunk(4, 100)], Stealing::Active);
        assert_eq!(stats.steals, 1);
        assert_eq!(stats.tasks_completed, 3);
        assert_eq!(stats.device_cycles, 300, "serial: 400");
    }

    #[test]
    fn thief_takes_the_shallowest_offer() {
        // Each task has taken one step when warp 0 walks the block, so a
        // task of 2u + 1 units offers u. The shallowest offer wins however
        // small it is; at one level the larger offer, then the lower index.
        for (specs, victim) in [
            (vec![(5, 81), (2, 5)], 2),
            (vec![(3, 5), (3, 9)], 2),
            (vec![(3, 9), (3, 9)], 1),
        ] {
            let (_, splits) = run_deep(&specs);
            assert_eq!(splits.first(), Some(&victim), "{specs:?}");
        }
    }

    #[test]
    fn steal_pays_the_walk_to_its_level_and_the_words_it_copies() {
        // Warp 0 walks at clock 1 and takes 3 of the 6 units warp 1 has
        // left at level 4, 3 words; it then runs them, 100 cycles each,
        // and finishes last.
        let (level, words, warps) = (4, 3, 2);
        let (stats, splits) = run_deep(&[(level, 7)]);
        assert_eq!(splits, [1]);
        let reads = (level as u64 + 1) * warps + words;
        let latency = cfg(Stealing::Active).cost.shared_latency;
        assert_eq!(stats.shared_accesses, reads);
        assert_eq!(stats.device_cycles, 1 + reads * latency + 3 * 100);
    }

    #[test]
    fn unsplittable_tasks_never_stolen() {
        let tasks = vec![
            Chunk {
                units: 100,
                cycles_per_unit: 10,
                splittable: false,
            },
            Chunk {
                units: 1,
                cycles_per_unit: 10,
                splittable: false,
            },
        ];
        let stats = run(tasks, Stealing::Active);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.tasks_completed, 2);
    }

    #[test]
    fn determinism() {
        let mk = || {
            let tasks = (0..6).map(|i| chunk(17 * (i + 1), 30 + i)).collect();
            run(tasks, Stealing::Active)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.device_cycles, b.device_cycles);
        assert_eq!(a.steals, b.steals);
        assert_eq!(a.busy_cycles, b.busy_cycles);
    }

    #[test]
    fn empty_block() {
        let stats = run(Vec::<Chunk>::new(), Stealing::Active);
        assert_eq!(stats.tasks_completed, 0);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn work_conserved_under_stealing() {
        // A steal's cost moves the thief's clock, never its busy time, so
        // total busy cycles are exactly the payload.
        let payload = 1000 * 100 + 3 * 2 * 100;
        let stats = run(skewed(), Stealing::Active);
        assert!(stats.steals > 0);
        assert_eq!(stats.busy_cycles, payload);
    }

    #[test]
    fn spare_warps_fill_the_block() {
        // One task under an 8-warp config: the block launches 8 warps.
        let one = || vec![chunk(1000, 100)];
        let (off, off_busy) = run_block(&(), one(), &cfg(Stealing::Off));
        assert_eq!(off_busy, [100_000, 0, 0, 0, 0, 0, 0, 0], "spares never run");
        assert_eq!(off.steals, 0);
        assert_eq!(off.device_cycles, 100_000);
        assert_eq!(off.resident_warp_cycles, 8 * off.device_cycles);
        // Under `Active` every spare walks at clock 0 and steals.
        let (active, busy) = run_block(&(), one(), &cfg(Stealing::Active));
        assert_eq!(busy.len(), 8);
        assert!(busy.iter().all(|&b| b > 0), "{busy:?}");
        assert!(active.steals >= 7, "steals={}", active.steals);
        assert!(
            active.device_cycles * 4 < off.device_cycles,
            "active={} serial={}",
            active.device_cycles,
            off.device_cycles
        );
        assert_eq!(active.resident_warp_cycles, 8 * active.device_cycles);
        assert_eq!(active.busy_cycles, 100_000);
        assert_eq!(active.tasks_completed, 1 + active.steals);
    }

    /// Runs warp 0's [`Scan`] of two `(plain, shared)` steps beside
    /// `waiting` spare warps; returns the stats and the warps' busy cycles.
    fn run_scan(waiting: usize, plain: u64, shared: u64) -> (KernelStats, Vec<u64>) {
        let cfg = DeviceConfig {
            warps_per_block: 1 + waiting,
            ..cfg(Stealing::Active)
        };
        run_block(&(), vec![scan(&[(plain, shared); 2])], &cfg)
    }

    #[test]
    fn waiting_warps_share_a_scan() {
        // Warp 0's first step runs before the spares walk; they find
        // nothing to steal, so its second step's scan is split with all of
        // them. 10,002 shareable cycles over 4 warps: 2,501 for warp 0 and
        // warp 1, 2,500 for warps 2 and 3.
        let (k, plain, shared) = (3, 100, 10_002);
        let (stats, busy) = run_scan(k, plain, shared);
        let step = plain + shared;
        let coordination = cfg(Stealing::Active)
            .cost
            .shared_scan_coordination(k as u64);
        assert_eq!(stats.shared_scans, 1);
        assert_eq!(stats.steals, 0);
        assert_eq!(
            stats.device_cycles,
            step + plain + shared.div_ceil(k as u64 + 1) + coordination
        );
        assert_eq!(busy, [step + plain + 2_501, 2_501, 2_500, 2_500]);
        assert_eq!(stats.busy_cycles, 2 * step, "busy is the payload");
        // The descriptor's publish and 3 reads, and 2 scan rounds each.
        assert_eq!(stats.shared_accesses, 1 + 3 + 4 * 2);
    }

    #[test]
    fn a_helper_waits_again_at_its_share_past_the_start() {
        // Warp 0's second step starts at 10 and shares 2,001 cycles with
        // spare warp 2: 1,001 for warp 0, 1,000 for warp 2, whose clock
        // moves to 10 + 1,000 + the coordination. Warp 1's second step
        // starts at `t`, and warp 2 helps it only if its clock is at or
        // before `t`.
        let coordination = cfg(Stealing::Active).cost.shared_scan_coordination(1);
        let helper_clock = 10 + 1_000 + coordination;
        let cfg = DeviceConfig {
            warps_per_block: 3,
            ..cfg(Stealing::Active)
        };
        for (t, shared_scans) in [(helper_clock - 1, 1), (helper_clock, 2)] {
            let tasks = vec![scan(&[(10, 0), (10, 2_001)]), scan(&[(t, 0), (0, 5_000)])];
            let (stats, busy) = run_block(&(), tasks, &cfg);
            assert_eq!(stats.shared_scans, shared_scans, "t = {t}");
            let helped = if shared_scans == 2 { 2_500 } else { 0 };
            assert_eq!(
                busy,
                [20 + 1_001, t + 5_000 - helped, 1_000 + helped],
                "t = {t}"
            );
        }
    }

    #[test]
    fn a_scan_is_shared_only_when_it_pays() {
        let coordination = cfg(Stealing::Active).cost.shared_scan_coordination(3);
        // P − ⌈P/4⌉ is 84 at P = 113 and 85 at P = 114.
        assert_eq!(coordination, 84);
        for (shared, joined) in [(113, false), (114, true)] {
            let (stats, _) = run_scan(3, 7, shared);
            assert_eq!(stats.shared_scans, u64::from(joined), "P = {shared}");
        }
        // Unshared, a step is charged exactly as with no warp waiting.
        for waiting in [0, 3] {
            let (stats, busy) = run_scan(waiting, 7, 113);
            assert_eq!(stats.device_cycles, 2 * 120);
            assert_eq!(busy[0], 2 * 120);
            assert_eq!(stats.shared_scans, 0);
        }
        // No warp waits under `Off`, however much the split would save.
        let cfg = DeviceConfig {
            warps_per_block: 4,
            ..cfg(Stealing::Off)
        };
        let (stats, _) = run_block(&(), vec![scan(&[(7, 10_000); 2])], &cfg);
        assert_eq!((stats.device_cycles, stats.shared_scans), (2 * 10_007, 0));
    }

    /// The device time [`run_block`] reports for `tasks`, computed from
    /// the blocks one by one ([`run_one`]) in depth-first order:
    /// `max(⌈Σ makespans / num_sms⌉, max over blocks of (ready +
    /// makespan))`, with a block ready at 0 and a split block when its
    /// parent wrote the parts. Also returns the number of blocks.
    fn bound<T: WarpTask<Launch = ()>>(tasks: Vec<T>, cfg: &DeviceConfig) -> (u64, usize) {
        let (mut total, mut latest, mut blocks) = (0, 0, 0);
        let mut todo = vec![(0, 0, tasks)];
        while let Some((ready, start, tasks)) = todo.pop() {
            let (stats, _, splits) = run_one(&(), tasks, start, cfg);
            let makespan = stats.device_cycles;
            total += makespan;
            latest = latest.max(ready + makespan);
            blocks += 1;
            // The k-th split follows a step that started past k budgets.
            for (k, s) in (1..).zip(splits) {
                assert!(s.offset > k * SPLIT_BUDGET && s.offset < makespan);
                todo.push((ready + s.offset, s.start, s.parts));
            }
        }
        (total.div_ceil(cfg.num_sms as u64).max(latest), blocks)
    }

    #[test]
    fn a_block_splits_what_it_offers_past_the_budget() {
        // One warp's 101 units of 1,000 cycles, alone in its block: its
        // 67th step is the first to start past the budget, at 66,000, and
        // after it the warp offers 17 of its 34 units. The split reads the
        // warp's status slot and the 17 words, then writes them in one
        // transaction: 18 shared reads and 200 cycles, so the new block is
        // ready at 67,560. It reads the part back (200 cycles) and runs it,
        // while the block runs its other 17 units.
        let cfg = |num_sms| DeviceConfig {
            num_sms,
            warps_per_block: 1,
            ..cfg(Stealing::Active)
        };
        let (parent, child) = (67_560 + 17_000, 200 + 17_000);
        let (one, busy) = run_block(&(), vec![chunk(101, 1_000)], &cfg(1));
        assert_eq!(busy, [101_000]);
        assert_eq!(
            (
                one.num_blocks,
                one.block_splits,
                one.steals,
                one.tasks_completed
            ),
            (2, 1, 1, 2)
        );
        assert_eq!(one.busy_cycles, 101_000);
        assert_eq!(one.total_block_cycles, parent + child);
        assert_eq!(one.resident_warp_cycles, parent + child);
        assert_eq!((one.global_transactions, one.shared_accesses), (2, 18));
        assert_eq!(one.device_cycles, parent + child, "one SM runs both");
        let (two, _) = run_block(&(), vec![chunk(101, 1_000)], &cfg(2));
        assert_eq!(
            two.device_cycles,
            67_560 + child,
            "the split block ends last"
        );
    }

    #[test]
    fn a_long_task_splits_its_block() {
        // 1,000,000 cycles of one splittable task over 8 warps: the block
        // runs past the budget, and so do some of the blocks it splits
        // into.
        for num_sms in [1, 16] {
            let cfg = DeviceConfig {
                num_sms,
                ..cfg(Stealing::Active)
            };
            let (stats, busy) = run_block(&(), vec![chunk(10_000, 100)], &cfg);
            let at = format!("{num_sms} SMs");
            assert_eq!(stats.busy_cycles, 1_000_000, "{at}");
            assert_eq!(busy.len(), 8, "{at}");
            assert_eq!(busy.iter().sum::<u64>(), 1_000_000, "{at}");
            assert!(stats.block_splits > 1, "{at}: {stats:?}");
            assert_eq!(stats.tasks_completed, 1 + stats.steals, "{at}");
            let (device_cycles, blocks) = bound(vec![chunk(10_000, 100)], &cfg);
            assert_eq!(stats.device_cycles, device_cycles, "{at}");
            assert_eq!(stats.num_blocks, blocks, "{at}");
            assert_eq!(blocks as u64, 1 + stats.block_splits, "{at}");
        }
        // Under `Off` nothing splits: one warp runs it all.
        let off = run(vec![chunk(10_000, 100)], Stealing::Off);
        assert_eq!((off.num_blocks, off.block_splits, off.steals), (1, 0, 0));
        assert_eq!(off.device_cycles, 1_000_000);
        // A block that ends inside the budget splits nothing, and reports
        // what it reported before blocks split.
        for (tasks, want) in [
            (
                vec![chunk(1000, 100)],
                [17_040, 100_000, 136_320, 16, 17, 1000, 1738],
            ),
            (skewed(), [16_960, 100_600, 135_680, 15, 19, 1006, 1726]),
        ] {
            let s = run(tasks, Stealing::Active);
            assert_eq!((s.num_blocks, s.block_splits, s.shared_scans), (1, 0, 0));
            assert_eq!(s.total_block_cycles, s.device_cycles);
            let got = [
                s.device_cycles,
                s.busy_cycles,
                s.resident_warp_cycles,
                s.steals,
                s.tasks_completed,
                s.scheduler_steps,
                s.shared_accesses,
            ];
            assert_eq!(got, want);
        }
    }

    /// SplitMix64: the property tests' deterministic case generator.
    pub(crate) fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Past the split budget a block attempts a split after every step.
    /// When its warps offer nothing, the first attempt reads every warp's
    /// offer and finds nothing; each later one reads only the offer of the
    /// warp that just stepped, the only one that can have changed.
    #[test]
    fn fruitless_split_attempts_read_only_the_stepping_warp() {
        // Three equal tasks in a block of three warps step in turn, so no
        // warp walks for a victim while another still works. Each runs
        // for twice the budget.
        let units = 2 * SPLIT_BUDGET / 100;
        let tasks: Vec<Watched> = (0..3)
            .map(|id| Watched {
                id,
                chunk: Chunk {
                    units,
                    cycles_per_unit: 100,
                    splittable: false,
                },
            })
            .collect();
        let seen = Mutex::new(Vec::new());
        let cfg = DeviceConfig {
            warps_per_block: 3,
            ..cfg(Stealing::Active)
        };
        let (stats, _) = run_block(&seen, tasks, &cfg);
        assert_eq!((stats.block_splits, stats.steals), (0, 0));
        let seen = seen.into_inner().unwrap();
        let first = seen
            .iter()
            .position(|s| matches!(s, Seen::Offer(_)))
            .expect("the block attempts a split");
        assert_eq!(
            seen[first..first + 3],
            [Seen::Offer(0), Seen::Offer(1), Seen::Offer(2)],
            "the first attempt reads every warp's offer"
        );
        let later = &seen[first + 3..];
        assert!(matches!(later[0], Seen::Step(_)));
        let mut reads = 0;
        for pair in later.windows(2) {
            if let Seen::Offer(w) = pair[1] {
                assert_eq!(pair[0], Seen::Step(w), "a read of another warp's offer");
                reads += 1;
            }
        }
        assert!(reads > units, "attempts stopped: {reads} reads");
    }

    /// Random blocks of 1–8 tasks, of random units and cycles per unit,
    /// splittable or not, hidden for a random number of leading steps. Under
    /// both modes the warps' busy cycles are exactly the payload, every
    /// steal adds one completed task, and a second run is identical; `Off`
    /// never steals.
    #[test]
    fn random_blocks_conserve_work_and_count_steals() {
        let mut rng = 0x5eed;
        let mut steals = 0;
        for case in 0..400 {
            let specs: Vec<[u64; 4]> = (0..1 + next(&mut rng) % 8)
                .map(|_| {
                    [
                        1 + next(&mut rng) % 300,
                        1 + next(&mut rng) % 64,
                        next(&mut rng) % 4,
                        next(&mut rng) % 24,
                    ]
                })
                .collect();
            let block = || -> Vec<Late> {
                specs
                    .iter()
                    .map(|&[units, cycles_per_unit, kind, hidden]| Late {
                        chunk: Chunk {
                            units,
                            cycles_per_unit,
                            splittable: kind != 0,
                        },
                        hidden,
                    })
                    .collect()
            };
            let payload: u64 = specs.iter().map(|s| s[0] * s[1]).sum();
            for stealing in [Stealing::Off, Stealing::Active] {
                let run = || {
                    let (stats, busy) = run_block(&(), block(), &cfg(stealing));
                    let simulated = KernelStats {
                        wall_seconds: 0.0,
                        ..stats.clone()
                    };
                    (stats, busy, format!("{simulated:?}"))
                };
                let (stats, busy, first) = run();
                let at = format!("case {case} {stealing:?} {specs:?}");
                assert_eq!(stats.busy_cycles, payload, "{at}");
                assert_eq!(busy.iter().sum::<u64>(), payload, "{at}");
                assert_eq!(
                    stats.tasks_completed,
                    specs.len() as u64 + stats.steals,
                    "{at}"
                );
                assert!(stats.scheduler_steps >= stats.tasks_completed, "{at}");
                if stealing == Stealing::Off {
                    assert_eq!(stats.steals, 0, "{at}");
                }
                steals += stats.steals;
                let (_, busy_again, second) = run();
                assert_eq!((busy_again, second), (busy, first), "{at}");
            }
        }
        assert!(steals > 0, "no case stole");
    }

    /// [`random_blocks_conserve_work_and_count_steals`] over tasks whose
    /// steps also mark random shareable cycles, in blocks of 1–8 warps:
    /// busy cycles are exactly the payload, every steal adds one completed
    /// task, and a second run is identical; `Off` never steals or shares.
    #[test]
    fn random_shared_scans_conserve_work_and_count_steals() {
        let mut rng = 0x5ca7;
        let (mut steals, mut shared_scans) = (0, 0);
        for case in 0..400 {
            let specs: Vec<[u64; 5]> = (0..1 + next(&mut rng) % 8)
                .map(|_| {
                    [
                        1 + next(&mut rng) % 300,
                        1 + next(&mut rng) % 64,
                        next(&mut rng) % 4,
                        next(&mut rng) % 24,
                        [0, 50, 400, 3_000][(next(&mut rng) % 4) as usize],
                    ]
                })
                .collect();
            let warps = 1 + (next(&mut rng) % 8) as usize;
            let block = || -> Vec<Sharing> {
                specs
                    .iter()
                    .map(|&[units, cycles_per_unit, kind, hidden, shared]| Sharing {
                        late: Late {
                            chunk: Chunk {
                                units,
                                cycles_per_unit,
                                splittable: kind != 0,
                            },
                            hidden,
                        },
                        shared,
                    })
                    .collect()
            };
            let payload: u64 = specs.iter().map(|s| s[0] * (s[1] + s[4])).sum();
            for stealing in [Stealing::Off, Stealing::Active] {
                let cfg = DeviceConfig {
                    warps_per_block: warps,
                    ..cfg(stealing)
                };
                let run = || {
                    let (stats, busy) = run_block(&(), block(), &cfg);
                    let simulated = KernelStats {
                        wall_seconds: 0.0,
                        ..stats.clone()
                    };
                    (stats, busy, format!("{simulated:?}"))
                };
                let (stats, busy, first) = run();
                let at = format!("case {case} {stealing:?} {warps} warps {specs:?}");
                assert_eq!(stats.busy_cycles, payload, "{at}");
                assert_eq!(busy.iter().sum::<u64>(), payload, "{at}");
                assert_eq!(busy.len(), specs.len().max(warps), "{at}");
                assert!(busy.iter().all(|&b| b <= stats.device_cycles), "{at}");
                assert_eq!(
                    stats.tasks_completed,
                    specs.len() as u64 + stats.steals,
                    "{at}"
                );
                assert!(stats.scheduler_steps >= stats.tasks_completed, "{at}");
                assert!(stats.shared_scans <= stats.scheduler_steps, "{at}");
                if stealing == Stealing::Off {
                    assert_eq!((stats.steals, stats.shared_scans), (0, 0), "{at}");
                }
                steals += stats.steals;
                shared_scans += stats.shared_scans;
                let (_, busy_again, second) = run();
                assert_eq!((busy_again, second), (busy, first), "{at}");
            }
        }
        assert!(steals > 0, "no case stole");
        assert!(shared_scans > 0, "no case shared a scan");
    }
}
