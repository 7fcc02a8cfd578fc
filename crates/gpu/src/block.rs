//! Event-driven execution of one block of warps, with work stealing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::cost::scan_rounds;
use crate::stats::KernelStats;
use crate::task::{Offer, StepResult, WarpCtx, WarpTask};
use crate::{DeviceConfig, Stealing};

struct WarpSlot<T> {
    /// Virtual clock of this warp (cycles since block start).
    clock: u64,
    /// Cycles this warp spent doing useful work.
    busy: u64,
    /// The running task; `None` for a slot launched without one, and once
    /// finished and nothing was stolen.
    task: Option<T>,
}

/// Runs one block of warp tasks of one launch to completion. Returns its
/// stats as a one-block launch reports them, and each warp's busy cycles
/// (index = warp slot) for workload-skew traces.
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
/// [`CostModel::shared_scan_coordination`]: crate::CostModel::shared_scan_coordination
pub fn run_block<T: WarpTask>(
    launch: &T::Launch,
    tasks: Vec<T>,
    cfg: &DeviceConfig,
) -> (KernelStats, Vec<u64>) {
    let started = Instant::now();
    let mut stats = KernelStats {
        num_blocks: 1,
        num_tasks: tasks.len(),
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
            clock: 0,
            busy: 0,
            task,
        })
        .collect();

    // Min-heap of (clock, warp index) over warps that hold a task or are
    // about to scan for a victim. Under `Off` a slot without a task never
    // enters it.
    let runnable = match cfg.stealing {
        Stealing::Active => num_warps,
        Stealing::Off => num_tasks,
    };
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..runnable).map(|i| Reverse((0, i))).collect();
    // Warps whose walk found no victim, in ascending index order, waiting
    // for a busy warp to share a scan or offer a split.
    let mut idle: Vec<usize> = Vec::new();

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
        let result = task.step(launch, &mut ctx);
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

        match result {
            StepResult::Done => {
                warps[wi].task = None;
                stats.tasks_completed += 1;
                if cfg.stealing == Stealing::Active {
                    // Re-enter the heap: on its next turn (i.e. when all
                    // other warps caught up to its clock) it walks for a
                    // victim. This models "after a warp completes its
                    // current workloads, it inspects other warps".
                    heap.push(Reverse((warps[wi].clock, wi)));
                }
            }
            StepResult::Continue => {
                // A waiting warp takes what this warp offers as soon as it
                // offers anything.
                if let Some(&thief) = idle.first() {
                    let offer = warps[wi].task.as_ref().and_then(|t| t.offer(launch));
                    if let Some(offer) = offer {
                        let start = warps[thief].clock.max(warps[wi].clock);
                        steal(&mut warps, launch, wi, offer, thief, start, &mut ctx);
                        idle.remove(0);
                        stats.steals += 1;
                        heap.push(Reverse((warps[thief].clock, thief)));
                    }
                }
                heap.push(Reverse((warps[wi].clock, wi)));
            }
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
    stats.wall_seconds = started.elapsed().as_secs_f64();
    (stats, warp_busy)
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
mod tests {
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

    /// SplitMix64: the property test's deterministic case generator.    /// SplitMix64: the property test's deterministic case generator.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
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
