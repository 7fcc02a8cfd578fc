//! Event-driven execution of one block of warps, with work stealing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::stats::KernelStats;
use crate::task::{StepResult, WarpCtx, WarpTask};
use crate::{DeviceConfig, Stealing};

struct WarpSlot<T> {
    /// Virtual clock of this warp (cycles since block start).
    clock: u64,
    /// Cycles this warp spent doing useful work.
    busy: u64,
    /// The running task; `None` once finished and nothing was stolen.
    task: Option<T>,
}

/// Runs one block of warp tasks of one launch to completion. Returns its
/// stats as a one-block launch reports them, and each warp's busy cycles
/// (index = warp slot) for workload-skew traces.
///
/// Warps are advanced in virtual-clock order (ties broken by warp index),
/// which makes the interleaving — and therefore stealing decisions,
/// utilization and makespan — fully deterministic for a given task list.
///
/// With [`Stealing::Active`] a warp whose task finishes scans the block
/// for the busiest victim on its next turn and takes half of its work. If
/// no victim qualifies it waits: after every step of a busy warp whose
/// remaining work reaches `min_steal_hint`, the lowest-index waiting warp
/// takes half of that warp's work. So a warp stays idle only while no
/// other warp of its block holds work worth splitting.
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
    let num_warps = tasks.len().max(1);
    let mut ctx = WarpCtx::new(cfg.cost, cfg.warp_size);
    let mut warps: Vec<WarpSlot<T>> = tasks
        .into_iter()
        .map(|t| WarpSlot {
            clock: 0,
            busy: 0,
            task: Some(t),
        })
        .collect();

    // Min-heap of (clock, warp index) over warps that hold a task or are
    // about to scan for a victim.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..warps.len()).map(|i| Reverse((0, i))).collect();
    // Warps whose scan found no victim, waiting for a busy warp's work to
    // become worth splitting.
    let mut idle: Vec<usize> = Vec::new();

    while let Some(Reverse((clock, wi))) = heap.pop() {
        debug_assert_eq!(warps[wi].clock, clock);

        let Some(task) = warps[wi].task.as_mut() else {
            // A finished warp's turn: it scans shared memory for the
            // busiest victim (ties go to the lowest index).
            let victim = warps
                .iter()
                .enumerate()
                .filter_map(|(i, w)| Some((w.task.as_ref()?.remaining_hint(), Reverse(i))))
                .max()
                .map(|(_, Reverse(i))| i);
            if victim.is_some_and(|v| steal(&mut warps, launch, v, wi, clock, cfg, &mut ctx)) {
                stats.steals += 1;
                heap.push(Reverse((warps[wi].clock, wi)));
            } else {
                idle.push(wi);
            }
            continue;
        };

        // Advance the task by one quantum.
        let result = task.step(launch, &mut ctx);
        let cycles = ctx.take_step_cycles().max(1);
        warps[wi].clock += cycles;
        warps[wi].busy += cycles;
        stats.scheduler_steps += 1;

        match result {
            StepResult::Done => {
                warps[wi].task = None;
                stats.tasks_completed += 1;
                if cfg.stealing == Stealing::Active {
                    // Re-enter the heap: on its next turn (i.e. when all
                    // other warps caught up to its clock) it scans for a
                    // victim. This models "after a warp completes its
                    // current workloads, it inspects other warps".
                    heap.push(Reverse((warps[wi].clock, wi)));
                }
            }
            StepResult::Continue => {
                // A waiting warp takes half of this warp's work as soon as
                // it is worth splitting.
                if let Some((k, &thief)) = idle.iter().enumerate().min_by_key(|&(_, &w)| w) {
                    let start = warps[thief].clock.max(warps[wi].clock);
                    if steal(&mut warps, launch, wi, thief, start, cfg, &mut ctx) {
                        idle.swap_remove(k);
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

/// The one steal of [`Stealing::Active`]: idle warp `thief` takes half of
/// busy warp `victim`'s unexplored work, if its remaining work is at least
/// `min_steal_hint` and it splits. The thief runs from `start` plus what
/// the steal pays: the scan of the block's status array (`|W|` shared
/// reads; §V-A's `O(L·|W|)` walk, with the task's own hint standing in for
/// the per-layer part) and the copy of the stolen range and its parent
/// partial match through shared memory. A warp whose task finished steals
/// at its own clock; a waiting warp at the later of its clock and the
/// victim's. Returns whether it stole.
fn steal<T: WarpTask>(
    warps: &mut [WarpSlot<T>],
    launch: &T::Launch,
    victim: usize,
    thief: usize,
    start: u64,
    cfg: &DeviceConfig,
    ctx: &mut WarpCtx,
) -> bool {
    let task = warps[victim].task.as_mut().expect("a victim is busy");
    if task.remaining_hint() < cfg.min_steal_hint {
        return false;
    }
    let Some(split) = task.try_split(launch) else {
        return false;
    };
    ctx.shared_access(warps.len() as u64);
    ctx.shared_access(split.remaining_hint().max(1));
    warps[thief].clock = start + ctx.take_step_cycles();
    warps[thief].task = Some(split);
    true
}

#[cfg(test)]
mod tests {
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

        fn remaining_hint(&self) -> u64 {
            if self.splittable {
                self.units
            } else {
                0
            }
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
    /// until then its hint is 0 and it cannot be split.
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

        fn remaining_hint(&self) -> u64 {
            if self.hidden > 0 {
                0
            } else {
                self.chunk.remaining_hint()
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

    fn cfg(stealing: Stealing) -> DeviceConfig {
        DeviceConfig {
            stealing,
            min_steal_hint: 4,
            ..DeviceConfig::single_sm()
        }
    }

    fn run<T: WarpTask<Launch = ()>>(tasks: Vec<T>, stealing: Stealing) -> KernelStats {
        run_block(&(), tasks, &cfg(stealing)).0
    }

    /// One long task and three short ones.
    fn skewed() -> Vec<Chunk> {
        [1000, 2, 2, 2].map(|units| chunk(units, 100)).into()
    }

    #[test]
    fn balanced_tasks_no_steal_needed() {
        let stats = run((0..4).map(|_| chunk(10, 100)).collect(), Stealing::Active);
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

    /// SplitMix64: the property test's deterministic case generator.
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
}
