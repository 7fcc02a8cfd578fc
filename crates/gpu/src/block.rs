//! Event-driven execution of one block of warps, with work stealing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::stats::BlockStats;
use crate::task::{StepResult, WarpCtx, WarpTask};
use crate::{DeviceConfig, Stealing};

/// Result of running one block to completion.
pub struct BlockOutcome {
    /// Per-block statistics (makespan, busy cycles, steals, ...).
    pub stats: BlockStats,
}

struct WarpSlot {
    /// Virtual clock of this warp (cycles since block start).
    clock: u64,
    /// Cycles this warp spent doing useful work.
    busy: u64,
    /// The running task; `None` once finished and nothing was stolen.
    task: Option<Box<dyn WarpTask>>,
    /// Scheduler steps executed since the last passive poll.
    steps_since_poll: u32,
}

/// Runs one block of warp tasks to completion and returns its statistics.
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
pub fn run_block(tasks: Vec<Box<dyn WarpTask>>, cfg: &DeviceConfig) -> BlockOutcome {
    let num_warps = tasks.len().max(1);
    let mut ctx = WarpCtx::new(cfg.cost, cfg.warp_size);
    let mut warps: Vec<WarpSlot> = tasks
        .into_iter()
        .map(|t| WarpSlot {
            clock: 0,
            busy: 0,
            task: Some(t),
            steps_since_poll: 0,
        })
        .collect();

    let mut stats = BlockStats::new(num_warps);
    // Min-heap of (clock, warp index) over warps that still hold a task.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = warps
        .iter()
        .enumerate()
        .map(|(i, w)| Reverse((w.clock, i)))
        .collect();
    // Indices of warps that have gone idle: in passive mode every warp
    // whose task finished, in active mode every warp whose steal attempt
    // found no victim. Both wait here to be handed work by a busy warp.
    let mut idle: Vec<usize> = Vec::new();

    while let Some(Reverse((clock, wi))) = heap.pop() {
        debug_assert_eq!(warps[wi].clock, clock);

        if warps[wi].task.is_none() {
            // An idle warp scheduled for an active-steal attempt.
            if cfg.stealing == Stealing::Active {
                if let Some(cost) = try_active_steal(&mut warps, wi, cfg, &mut ctx, &mut stats) {
                    warps[wi].clock += cost;
                    // Stole something: resume running.
                    heap.push(Reverse((warps[wi].clock, wi)));
                    continue;
                }
            }
            idle.push(wi);
            continue;
        }

        // Advance the task by one quantum.
        let result = warps[wi].task.as_mut().expect("checked").step(&mut ctx);
        let cycles = ctx.take_step_cycles().max(1);
        warps[wi].clock += cycles;
        warps[wi].busy += cycles;
        warps[wi].steps_since_poll += 1;
        stats.scheduler_steps += 1;

        match result {
            StepResult::Done => {
                warps[wi].task = None;
                stats.tasks_completed += 1;
                match cfg.stealing {
                    Stealing::Active => {
                        // Re-enter the heap: on its next turn (i.e. when all
                        // other warps caught up to its clock) it scans for a
                        // victim. This models "after a warp completes its
                        // current workloads, it inspects other warps".
                        heap.push(Reverse((warps[wi].clock, wi)));
                    }
                    _ => idle.push(wi),
                }
            }
            StepResult::Continue => {
                // Active mode: a waiting warp takes half of this warp's
                // work as soon as it is worth splitting.
                if cfg.stealing == Stealing::Active && !idle.is_empty() {
                    if let Some(ti) = hand_off(&mut warps, wi, &mut idle, cfg, &mut ctx) {
                        stats.steals += 1;
                        heap.push(Reverse((warps[ti].clock, ti)));
                    }
                }
                // Passive mode: the busy warp periodically interrupts its
                // work to look for an idle warp and push half its load.
                if cfg.stealing == Stealing::Passive
                    && warps[wi].steps_since_poll >= cfg.passive_poll_interval
                {
                    warps[wi].steps_since_poll = 0;
                    // Scanning the status array costs shared-memory reads,
                    // charged to the busy (interrupted) warp.
                    ctx.shared_access(num_warps as u64);
                    let scan = ctx.take_step_cycles();
                    warps[wi].clock += scan;
                    warps[wi].busy += scan;
                    if let Some(ti) = idle.pop() {
                        let hint = warps[wi].task.as_ref().expect("busy").remaining_hint();
                        if hint >= cfg.min_steal_hint {
                            if let Some(split) = warps[wi].task.as_mut().expect("busy").try_split()
                            {
                                // Copying the stolen candidate range + match
                                // prefix through shared memory.
                                ctx.shared_access(split.remaining_hint().max(1));
                                let copy = ctx.take_step_cycles();
                                warps[wi].clock += copy;
                                // The thief resumes at the happening time.
                                warps[ti].clock = warps[ti].clock.max(warps[wi].clock);
                                warps[ti].task = Some(split);
                                stats.steals += 1;
                                heap.push(Reverse((warps[ti].clock, ti)));
                            } else {
                                idle.push(ti);
                            }
                        } else {
                            idle.push(ti);
                        }
                    }
                }
                heap.push(Reverse((warps[wi].clock, wi)));
            }
        }
    }

    let makespan = warps.iter().map(|w| w.clock).max().unwrap_or(0).max(1);
    stats.makespan_cycles = makespan;
    stats.busy_cycles = warps.iter().map(|w| w.busy).sum();
    stats.num_warps = num_warps;
    stats.global_transactions = ctx.global_transactions;
    stats.shared_accesses = ctx.shared_accesses;
    stats.buf_reuse = ctx.buf_reuse;
    stats.buf_alloc = ctx.buf_alloc;
    stats.warp_busy = warps.iter().map(|w| w.busy).collect();
    stats.warp_clock = warps.iter().map(|w| w.clock).collect();
    BlockOutcome { stats }
}

/// An idle warp scans shared memory for the busiest victim and takes half
/// of its unexplored candidates. Returns the cycles spent if a steal
/// happened, `None` if no victim qualified (the scan is then not charged:
/// the warp waits, and a later hand-off charges it).
fn try_active_steal(
    warps: &mut [WarpSlot],
    thief: usize,
    cfg: &DeviceConfig,
    ctx: &mut WarpCtx,
    stats: &mut BlockStats,
) -> Option<u64> {
    let victim = warps
        .iter()
        .enumerate()
        .filter(|(i, w)| *i != thief && w.task.is_some())
        .max_by_key(|(i, w)| {
            (
                w.task.as_ref().map_or(0, |t| t.remaining_hint()),
                usize::MAX - *i,
            )
        })
        .map(|(i, _)| i)?;
    let task = warps[victim].task.as_mut().expect("victim has task");
    if task.remaining_hint() < cfg.min_steal_hint {
        return None;
    }
    let split = task.try_split()?;
    // Scanning csize/p layer by layer: O(L * |W|) shared accesses (§V-A
    // complexity). L is bounded by the query depth; we charge the scan as
    // |W| shared reads per scan round and let the task's own hint stand in
    // for the per-layer walk. Then the stolen range + parent partial match
    // is copied through shared memory.
    ctx.shared_access(warps.len() as u64);
    ctx.shared_access(split.remaining_hint().max(1));
    warps[thief].task = Some(split);
    stats.steals += 1;
    Some(ctx.take_step_cycles())
}

/// After a step of busy warp `victim` (active mode, some warp waiting):
/// if its remaining work is at least `min_steal_hint`, the lowest-index
/// waiting warp takes half of it. The thief starts at the later of the two
/// clocks plus what a steal pays: the scan (|W| shared reads) and the
/// copy. Returns the thief.
fn hand_off(
    warps: &mut [WarpSlot],
    victim: usize,
    idle: &mut Vec<usize>,
    cfg: &DeviceConfig,
    ctx: &mut WarpCtx,
) -> Option<usize> {
    let task = warps[victim].task.as_mut().expect("busy");
    if task.remaining_hint() < cfg.min_steal_hint {
        return None;
    }
    let (k, _) = idle.iter().enumerate().min_by_key(|&(_, &w)| w)?;
    let split = task.try_split()?;
    let thief = idle.swap_remove(k);
    ctx.shared_access(warps.len() as u64);
    ctx.shared_access(split.remaining_hint().max(1));
    let start = warps[thief].clock.max(warps[victim].clock);
    warps[thief].clock = start + ctx.take_step_cycles();
    warps[thief].task = Some(split);
    Some(thief)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{StepResult, WarpCtx, WarpTask};

    /// A task that performs `units` steps of `cycles_per_unit` cycles each
    /// and can be split in half.
    struct Chunk {
        units: u64,
        cycles_per_unit: u64,
        splittable: bool,
    }

    impl WarpTask for Chunk {
        fn step(&mut self, ctx: &mut WarpCtx) -> StepResult {
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

        fn try_split(&mut self) -> Option<Box<dyn WarpTask>> {
            if !self.splittable || self.units < 2 {
                return None;
            }
            let half = self.units / 2;
            self.units -= half;
            Some(Box::new(Chunk {
                units: half,
                cycles_per_unit: self.cycles_per_unit,
                splittable: true,
            }))
        }
    }

    /// A [`Chunk`] whose work stays hidden for its first `hidden` steps:
    /// until then its hint is 0 and it cannot be split.
    struct Late {
        chunk: Chunk,
        hidden: u64,
    }

    impl WarpTask for Late {
        fn step(&mut self, ctx: &mut WarpCtx) -> StepResult {
            self.hidden = self.hidden.saturating_sub(1);
            self.chunk.step(ctx)
        }

        fn remaining_hint(&self) -> u64 {
            if self.hidden > 0 {
                0
            } else {
                self.chunk.remaining_hint()
            }
        }

        fn try_split(&mut self) -> Option<Box<dyn WarpTask>> {
            if self.hidden > 0 {
                None
            } else {
                self.chunk.try_split()
            }
        }
    }

    fn cfg(stealing: Stealing) -> DeviceConfig {
        DeviceConfig {
            stealing,
            min_steal_hint: 4,
            ..DeviceConfig::single_sm()
        }
    }

    #[test]
    fn balanced_tasks_no_steal_needed() {
        let tasks: Vec<Box<dyn WarpTask>> = (0..4)
            .map(|_| {
                Box::new(Chunk {
                    units: 10,
                    cycles_per_unit: 100,
                    splittable: true,
                }) as Box<dyn WarpTask>
            })
            .collect();
        let out = run_block(tasks, &cfg(Stealing::Active));
        assert_eq!(out.stats.tasks_completed, 4);
        assert!(
            out.stats.utilization() > 0.95,
            "{}",
            out.stats.utilization()
        );
    }

    #[test]
    fn skewed_tasks_active_stealing_cuts_makespan() {
        let mk = |steal: Stealing| {
            let tasks: Vec<Box<dyn WarpTask>> = vec![
                Box::new(Chunk {
                    units: 1000,
                    cycles_per_unit: 100,
                    splittable: true,
                }),
                Box::new(Chunk {
                    units: 2,
                    cycles_per_unit: 100,
                    splittable: true,
                }),
                Box::new(Chunk {
                    units: 2,
                    cycles_per_unit: 100,
                    splittable: true,
                }),
                Box::new(Chunk {
                    units: 2,
                    cycles_per_unit: 100,
                    splittable: true,
                }),
            ];
            run_block(tasks, &cfg(steal)).stats
        };
        let off = mk(Stealing::Off);
        let active = mk(Stealing::Active);
        assert_eq!(off.steals, 0);
        assert!(active.steals >= 2, "steals={}", active.steals);
        assert!(
            active.makespan_cycles * 2 < off.makespan_cycles,
            "active={} off={}",
            active.makespan_cycles,
            off.makespan_cycles
        );
        assert!(active.utilization() > off.utilization());
    }

    #[test]
    fn waiting_warp_steals_once_work_becomes_splittable() {
        // The short task's warp finishes while the long task is not yet
        // splittable, so its one steal attempt finds no victim. It waits,
        // and takes half of the long task once that becomes splittable.
        let mk = |steal: Stealing| {
            let tasks: Vec<Box<dyn WarpTask>> = vec![
                Box::new(Late {
                    chunk: Chunk {
                        units: 1000,
                        cycles_per_unit: 100,
                        splittable: true,
                    },
                    hidden: 10,
                }),
                Box::new(Chunk {
                    units: 2,
                    cycles_per_unit: 100,
                    splittable: true,
                }),
            ];
            run_block(tasks, &cfg(steal)).stats
        };
        let serial = mk(Stealing::Off);
        let active = mk(Stealing::Active);
        assert_eq!(serial.makespan_cycles, 100_000);
        assert!(active.steals >= 1, "steals={}", active.steals);
        assert!(
            active.makespan_cycles * 3 < serial.makespan_cycles * 2,
            "active={} serial={}",
            active.makespan_cycles,
            serial.makespan_cycles
        );
        assert_eq!(active.tasks_completed, 2 + active.steals);
    }

    #[test]
    fn passive_stealing_also_balances() {
        let mk = |steal: Stealing| {
            let tasks: Vec<Box<dyn WarpTask>> = vec![
                Box::new(Chunk {
                    units: 4000,
                    cycles_per_unit: 100,
                    splittable: true,
                }),
                Box::new(Chunk {
                    units: 2,
                    cycles_per_unit: 100,
                    splittable: true,
                }),
            ];
            let mut c = cfg(steal);
            c.passive_poll_interval = 16;
            run_block(tasks, &c).stats
        };
        let off = mk(Stealing::Off);
        let passive = mk(Stealing::Passive);
        assert!(passive.steals >= 1);
        assert!(passive.makespan_cycles < off.makespan_cycles);
    }

    #[test]
    fn unsplittable_tasks_never_stolen() {
        let tasks: Vec<Box<dyn WarpTask>> = vec![
            Box::new(Chunk {
                units: 100,
                cycles_per_unit: 10,
                splittable: false,
            }),
            Box::new(Chunk {
                units: 1,
                cycles_per_unit: 10,
                splittable: false,
            }),
        ];
        let out = run_block(tasks, &cfg(Stealing::Active));
        assert_eq!(out.stats.steals, 0);
        assert_eq!(out.stats.tasks_completed, 2);
    }

    #[test]
    fn determinism() {
        let mk = || {
            let tasks: Vec<Box<dyn WarpTask>> = (0..6)
                .map(|i| {
                    Box::new(Chunk {
                        units: 17 * (i + 1),
                        cycles_per_unit: 30 + i,
                        splittable: true,
                    }) as Box<dyn WarpTask>
                })
                .collect();
            run_block(tasks, &cfg(Stealing::Active)).stats
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.steals, b.steals);
        assert_eq!(a.busy_cycles, b.busy_cycles);
    }

    #[test]
    fn empty_block() {
        let out = run_block(Vec::new(), &cfg(Stealing::Active));
        assert_eq!(out.stats.tasks_completed, 0);
        assert_eq!(out.stats.steals, 0);
    }

    #[test]
    fn work_conserved_under_stealing() {
        // Total busy cycles should be >= the no-stealing payload (steal
        // overhead adds, never removes, work).
        let payload = 1000 * 100 + 3 * 2 * 100;
        let tasks: Vec<Box<dyn WarpTask>> = vec![
            Box::new(Chunk {
                units: 1000,
                cycles_per_unit: 100,
                splittable: true,
            }),
            Box::new(Chunk {
                units: 2,
                cycles_per_unit: 100,
                splittable: true,
            }),
            Box::new(Chunk {
                units: 2,
                cycles_per_unit: 100,
                splittable: true,
            }),
            Box::new(Chunk {
                units: 2,
                cycles_per_unit: 100,
                splittable: true,
            }),
        ];
        let out = run_block(tasks, &cfg(Stealing::Active));
        assert!(out.stats.busy_cycles >= payload);
        // ... and not wildly more (steal overhead is small).
        assert!(out.stats.busy_cycles < payload + payload / 4);
    }
}
