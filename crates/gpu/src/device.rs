//! Device-level kernel launches, and the process-wide pool of helper
//! threads that runs them: a launch's blocks, or any caller's host jobs
//! ([`run_jobs`]), on the calling thread plus the helpers.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::block::run_block;
use crate::stats::KernelStats;
use crate::task::WarpTask;
use crate::DeviceConfig;

/// The simulated GPU device.
///
/// A `Device` is cheap to construct; all state lives in the config. Kernel
/// launches are synchronous: [`Device::launch`] returns when every block
/// has retired, like a `cudaDeviceSynchronize` after the grid.
#[derive(Clone, Debug)]
pub struct Device {
    /// Device configuration (SMs, warps per block, cost model, stealing).
    pub config: DeviceConfig,
}

impl Device {
    /// Creates a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Self {
        Self { config }
    }

    /// Launches a grid: `tasks` are chunked into blocks of
    /// `warps_per_block` and executed by `min(num_sms, host parallelism,
    /// blocks)` host threads — the calling thread plus helpers from a
    /// process-wide pool, started on first use ([`run_jobs`]). Every task
    /// reads `launch`, which each block holds one reference to; all of
    /// them are dropped when this call returns. A single-block launch
    /// runs inline. A task that panics makes this call panic once every
    /// block has retired; the pool keeps serving.
    ///
    /// Device makespan is the max over SMs of the sum of makespans of the
    /// blocks that SM executed (blocks are picked up greedily, modeling the
    /// hardware block scheduler). The one-grid case of
    /// [`Device::launch_grids`].
    pub fn launch<T: WarpTask>(&self, launch: &Arc<T::Launch>, tasks: Vec<T>) -> KernelStats {
        self.launch_grids(vec![(launch, tasks)])
            .pop()
            .expect("one stats per grid")
    }

    /// Launches several grids in one call and returns each grid's stats,
    /// in order. A grid is its launch state and its tasks. Every grid is
    /// chunked into blocks as [`Device::launch`] does, and the blocks of
    /// all grids go into one [`run_jobs`] call, one job per block, grid by
    /// grid, served by `min(num_sms, host parallelism, blocks)` host
    /// threads. So the host overlaps the grids, while the simulated device
    /// still runs them as serial kernels: each grid's stats aggregate its
    /// own blocks only, and its `device_cycles` is the bound over its own
    /// blocks, exactly as a lone launch of its tasks reports.
    ///
    /// The grids' `wall_seconds` sum to the call's elapsed time, split in
    /// proportion to the host time of each grid's blocks (evenly when no
    /// block ran); a one-grid call reports its elapsed time. A task that
    /// panics, in any grid, makes this call panic once every block has
    /// retired; the pool keeps serving.
    pub fn launch_grids<T: WarpTask>(
        &self,
        grids: Vec<(&Arc<T::Launch>, Vec<T>)>,
    ) -> Vec<KernelStats> {
        let started = Instant::now();
        let cfg = Arc::new(self.config.clone());
        let mut blocks: Vec<Job<(usize, KernelStats)>> = Vec::new();
        let num_grids = grids.len();
        for (gi, (launch, tasks)) in grids.into_iter().enumerate() {
            let mut current: Vec<T> = Vec::new();
            for t in tasks {
                current.push(t);
                if current.len() == self.config.warps_per_block {
                    blocks.push(block_job(gi, launch, std::mem::take(&mut current), &cfg));
                }
            }
            if !current.is_empty() {
                blocks.push(block_job(gi, launch, current, &cfg));
            }
        }

        // Per grid: its blocks' stats summed, and its longest block. Sums
        // and a max, so the result is independent of which thread ran
        // which block. A block's `wall_seconds` is its host time.
        let mut per_grid = vec![(KernelStats::default(), 0u64); num_grids];
        let sm_count = self.config.num_sms.max(1);
        for (gi, block) in run_jobs(blocks, sm_count) {
            let (stats, longest) = &mut per_grid[gi];
            *longest = (*longest).max(block.device_cycles);
            stats.absorb(&block);
        }

        let elapsed = started.elapsed().as_secs_f64();
        let host_total: f64 = per_grid.iter().map(|(s, _)| s.wall_seconds).sum();
        let even = 1.0 / num_grids as f64;
        per_grid
            .into_iter()
            .map(|(mut stats, longest)| {
                // Device makespan: with many blocks in flight the hardware
                // block scheduler approaches the LPT bound
                // `max(ceil(total / num_sms), longest single block)`. Using
                // the bound (instead of the racy host assignment realized
                // above) keeps the simulated clock deterministic.
                let ideal = stats.total_block_cycles.div_ceil(sm_count as u64);
                stats.device_cycles = ideal.max(longest);
                let share = if host_total > 0.0 {
                    stats.wall_seconds / host_total
                } else {
                    even
                };
                stats.wall_seconds = elapsed * share;
                stats
            })
            .collect()
    }

    /// Converts simulated cycles into simulated seconds using the device
    /// clock.
    pub fn seconds(&self, cycles: u64) -> f64 {
        self.config.cycles_to_seconds(cycles)
    }
}

/// The job that runs one block of grid `gi` and reports the grid index and
/// the block's stats. It holds the block's one reference to its launch.
fn block_job<T: WarpTask>(
    gi: usize,
    launch: &Arc<T::Launch>,
    tasks: Vec<T>,
    cfg: &Arc<DeviceConfig>,
) -> Job<(usize, KernelStats)> {
    let (launch, cfg) = (Arc::clone(launch), Arc::clone(cfg));
    Box::new(move || (gi, run_block(launch.as_ref(), tasks, &cfg).0))
}

/// One piece of host work for the launch pool: a block of a grid, or one
/// job of another host executor. It owns what it reads, and running it
/// consumes it.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// Runs `jobs` on `min(threads, host parallelism, jobs)` host threads —
/// the calling thread plus helpers from the process-wide launch pool,
/// started on first use — and returns their results in job order.
///
/// The calling thread claims jobs too, so the call never waits on a helper
/// that claimed none, and a single job runs inline. Every job has run, and
/// dropped what it owned, before the call returns: a caller can lend owned
/// state to its jobs through `Arc`s and take it back with
/// `Arc::try_unwrap`. A job that panics makes this call panic once every
/// job has retired; the pool keeps serving.
pub fn run_jobs<T: Send + 'static>(jobs: Vec<Job<T>>, threads: usize) -> Vec<T> {
    let total = jobs.len();
    let launch = Arc::new(Launch {
        jobs: Mutex::new(jobs.into_iter().enumerate()),
        progress: Mutex::new(Progress {
            results: (0..total).map(|_| None).collect(),
            retired: 0,
            panic: None,
        }),
        retired: Condvar::new(),
    });
    if threads > 1 && total > 1 {
        let entry: Arc<dyn Work> = launch.clone();
        pool().enlist(&entry, threads.min(total));
    }
    launch.work();
    let (results, panic) = launch.wait();
    if let Some(payload) = panic {
        panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|r| r.expect("every job retired"))
        .collect()
}

/// One [`run_jobs`] call, shared by every host thread working on it.
/// Owned (`Arc`, `'static` jobs), so a helper never borrows the calling
/// thread's stack. A helper's queue entry can outlive the call, but by
/// then it holds no job and no result.
struct Launch<T> {
    /// The jobs no thread has claimed yet, with their indices.
    jobs: Mutex<std::iter::Enumerate<std::vec::IntoIter<Job<T>>>>,
    progress: Mutex<Progress<T>>,
    /// Signalled when the last job retires.
    retired: Condvar,
}

/// The retired jobs of a [`Launch`].
struct Progress<T> {
    /// One slot per job, filled as it retires.
    results: Vec<Option<T>>,
    retired: usize,
    /// The first panic a job raised, re-raised on the calling thread.
    panic: Option<Box<dyn Any + Send>>,
}

/// What a helper does with a queue entry, whatever its result type.
trait Work: Send + Sync {
    /// Claims and runs jobs until none is left unclaimed.
    fn work(&self);
}

impl<T: Send> Work for Launch<T> {
    fn work(&self) {
        loop {
            let Some((i, job)) = lock(&self.jobs).next() else {
                return;
            };
            let outcome = panic::catch_unwind(AssertUnwindSafe(job));
            let mut p = lock(&self.progress);
            match outcome {
                Ok(r) => p.results[i] = Some(r),
                Err(payload) => {
                    p.panic.get_or_insert(payload);
                }
            }
            p.retired += 1;
            if p.retired == p.results.len() {
                self.retired.notify_all();
            }
        }
    }
}

impl<T> Launch<T> {
    /// Blocks until every job has retired — including those helpers
    /// claimed — and takes the results and the first panic. Never waits
    /// on a helper that claimed none of this call's jobs.
    fn wait(&self) -> (Vec<Option<T>>, Option<Box<dyn Any + Send>>) {
        let mut p = lock(&self.progress);
        while p.retired < p.results.len() {
            p = self.retired.wait(p).unwrap_or_else(PoisonError::into_inner);
        }
        (std::mem::take(&mut p.results), p.panic.take())
    }
}

/// The process-wide launch helpers: `threads - 1` parked threads that
/// join whichever call asks for them. They are never joined: they park
/// between calls for the life of the process, and [`Work::work`] catches
/// a job's panic for the calling thread to re-raise, so none is lost.
struct Pool {
    /// Host parallelism, read once: the most threads one call uses.
    threads: usize,
    /// One entry per helper a call asked for. An entry whose call has no
    /// unclaimed job left is dropped on pickup.
    jobs: Mutex<VecDeque<Arc<dyn Work>>>,
    wake: Condvar,
}

/// The pool, sized and started on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        for i in 1..threads {
            // A helper that fails to start costs parallelism only: the
            // calling thread runs every job no helper claims.
            let _ = std::thread::Builder::new()
                .name(format!("launch-helper-{i}"))
                .spawn(|| pool().serve());
        }
        Pool {
            threads,
            jobs: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
        }
    })
}

impl Pool {
    /// Asks for helpers so that `threads` host threads (the caller
    /// included, capped at host parallelism) can work on `launch`.
    fn enlist(&self, launch: &Arc<dyn Work>, threads: usize) {
        let helpers = threads.min(self.threads) - 1;
        lock(&self.jobs).extend((0..helpers).map(|_| Arc::clone(launch)));
        for _ in 0..helpers {
            self.wake.notify_one();
        }
    }

    /// A helper's loop: park until a call asks, work on it, repeat.
    fn serve(&self) {
        loop {
            let launch = {
                let mut jobs = lock(&self.jobs);
                loop {
                    if let Some(l) = jobs.pop_front() {
                        break l;
                    }
                    jobs = self.wake.wait(jobs).unwrap_or_else(PoisonError::into_inner);
                }
            };
            launch.work();
        }
    }
}

/// Locks `m`, ignoring poison. The simulator's critical sections (the
/// launch pool's queues, a kernel's match sinks) only move data and never
/// panic midway, so poisoning carries no information.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{StepResult, WarpCtx};
    use crate::Stealing;

    /// `self.0` steps of 100 cycles, splittable in half. [`PANICS`]
    /// panics on its first step instead.
    struct Fixed(u64);

    const PANICS: Fixed = Fixed(u64::MAX);

    impl WarpTask for Fixed {
        type Launch = ();

        fn step(&mut self, _: &(), ctx: &mut WarpCtx) -> StepResult {
            if self.0 == PANICS.0 {
                panic!("task failure")
            }
            if self.0 == 0 {
                return StepResult::Done;
            }
            self.0 -= 1;
            ctx.charge(100);
            if self.0 == 0 {
                StepResult::Done
            } else {
                StepResult::Continue
            }
        }

        fn remaining_hint(&self) -> u64 {
            self.0
        }

        fn try_split(&mut self, _: &()) -> Option<Fixed> {
            let half = self.0 / 2;
            self.0 -= half;
            (half > 0).then_some(Fixed(half))
        }
    }

    fn cfg(sms: usize, wpb: usize) -> DeviceConfig {
        DeviceConfig {
            num_sms: sms,
            warps_per_block: wpb,
            stealing: Stealing::Off,
            ..DeviceConfig::default()
        }
    }

    /// The launch state of the tests' tasks, which read none.
    fn unit() -> Arc<()> {
        Arc::new(())
    }

    #[test]
    fn blocks_are_chunked() {
        let dev = Device::new(cfg(2, 4));
        let tasks = (0..10).map(|_| Fixed(3)).collect();
        let stats = dev.launch(&unit(), tasks);
        assert_eq!(stats.num_blocks, 3);
        assert_eq!(stats.num_tasks, 10);
        assert!(stats.device_cycles > 0);
        assert!(stats.busy_cycles >= 10 * 3 * 100);
    }

    #[test]
    fn more_sms_reduce_device_time() {
        let tasks = |n: usize| (0..n).map(|_| Fixed(50)).collect();
        let one = Device::new(cfg(1, 2)).launch(&unit(), tasks(16));
        let four = Device::new(cfg(4, 2)).launch(&unit(), tasks(16));
        assert!(
            four.device_cycles < one.device_cycles,
            "four={} one={}",
            four.device_cycles,
            one.device_cycles
        );
        // Same total work regardless of SM count.
        assert_eq!(four.busy_cycles, one.busy_cycles);
    }

    #[test]
    fn empty_launch() {
        let dev = Device::new(cfg(2, 4));
        let stats = dev.launch(&unit(), Vec::<Fixed>::new());
        assert_eq!(stats.num_blocks, 0);
        assert_eq!(stats.device_cycles, 0);
        assert_eq!(stats.utilization(), 0.0);
    }

    #[test]
    fn single_block_device_time_is_block_makespan() {
        let dev = Device::new(cfg(4, 8));
        let stats = dev.launch(&unit(), vec![Fixed(10), Fixed(20)]);
        assert_eq!(stats.num_blocks, 1);
        assert_eq!(stats.device_cycles, 20 * 100);
    }

    /// Tasks of varied length, so a lost or double-counted block shows
    /// in the aggregate.
    fn mixed(n: u64) -> Vec<Fixed> {
        (0..n).map(|i| Fixed(1 + i % 7)).collect()
    }

    /// Every field but the informational host wall time.
    fn simulated(s: &KernelStats) -> String {
        format!(
            "{:?}",
            KernelStats {
                wall_seconds: 0.0,
                ..s.clone()
            }
        )
    }

    #[test]
    fn launches_count_every_task_and_steal() {
        // Skewed splittable tasks, so warps steal: each stolen part runs
        // to completion as a task of its own.
        let dev = Device::new(DeviceConfig {
            stealing: Stealing::Active,
            min_steal_hint: 4,
            ..cfg(4, 3)
        });
        let skewed = |n: u64| (0..n).map(|i| Fixed(1 + (i % 5) * 40)).collect::<Vec<_>>();
        let launch = unit();
        let lone = dev.launch(&launch, skewed(20));
        let grids = dev.launch_grids(vec![(&launch, skewed(20)), (&launch, skewed(7))]);
        assert_eq!(simulated(&grids[0]), simulated(&lone));
        for s in std::iter::once(&lone).chain(&grids) {
            assert!(s.steals > 0, "{s:?}");
            assert_eq!(s.tasks_completed, s.num_tasks as u64 + s.steals, "{s:?}");
            assert!(s.scheduler_steps >= s.tasks_completed, "{s:?}");
        }
        assert_eq!(Arc::strong_count(&launch), 1, "blocks keep no launch");
    }

    #[test]
    fn concurrent_launches_match_sequential() {
        let dev = Device::new(cfg(4, 3));
        let launch = unit();
        let expected: Vec<String> = (0..8)
            .map(|t| simulated(&dev.launch(&launch, mixed(20 + t))))
            .collect();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (dev, start, expected, launch) = (&dev, &start, &expected, &launch);
                s.spawn(move || {
                    start.wait();
                    for i in 0..25 {
                        assert_eq!(
                            &simulated(&dev.launch(launch, mixed(20 + t as u64))),
                            &expected[t]
                        );
                        // This thread's grid next to another's in one call.
                        let other = (t + 1 + i) % 8;
                        let got = dev.launch_grids(vec![
                            (launch, mixed(20 + t as u64)),
                            (launch, mixed(20 + other as u64)),
                        ]);
                        assert_eq!(&simulated(&got[0]), &expected[t]);
                        assert_eq!(&simulated(&got[1]), &expected[other]);
                    }
                });
            }
        });
    }

    #[test]
    fn launch_grids_match_lone_launches() {
        let dev = Device::new(cfg(4, 3));
        let launch = unit();
        // Grids of different lengths, one of them empty.
        let sizes = [20u64, 0, 7, 33, 1];
        let lone: Vec<String> = sizes
            .iter()
            .map(|&n| simulated(&dev.launch(&launch, mixed(n))))
            .collect();
        let before = std::time::Instant::now();
        let grids = dev.launch_grids(sizes.iter().map(|&n| (&launch, mixed(n))).collect());
        let elapsed = before.elapsed().as_secs_f64();
        assert_eq!(grids.len(), sizes.len());
        for (g, want) in grids.iter().zip(&lone) {
            assert_eq!(&simulated(g), want);
            assert!(g.wall_seconds >= 0.0, "{g:?}");
        }
        let wall: f64 = grids.iter().map(|g| g.wall_seconds).sum();
        assert!(wall <= elapsed, "grids' wall {wall} s > call's {elapsed} s");
        let no_grids: Vec<(&Arc<()>, Vec<Fixed>)> = Vec::new();
        assert!(dev.launch_grids(no_grids).is_empty());
    }

    #[test]
    fn task_panic_reaches_the_caller_and_the_pool_survives() {
        let dev = Device::new(cfg(4, 2));
        let launch = unit();
        // Six blocks; the first one, then all of them, panic — on the
        // calling thread or on a helper, wherever they land.
        for panicking in [1, 6] {
            let tasks = (0..12)
                .map(|i| if i / 2 < panicking { PANICS } else { Fixed(3) })
                .collect();
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| dev.launch(&launch, tasks)))
                .expect_err("a task panic must panic the launch");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"task failure"));
        }
        // A panicking task in any grid of a multi-grid call.
        for panicking_grid in 0..3 {
            let grids = (0..3)
                .map(|gi| {
                    let mut tasks = mixed(9);
                    if gi == panicking_grid {
                        tasks[4] = PANICS;
                    }
                    (&launch, tasks)
                })
                .collect();
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| dev.launch_grids(grids)))
                .expect_err("a task panic must panic the call");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"task failure"));
        }
        // A panicking job that is not a block, first or last in line.
        for panicking in [0u64, 5] {
            let jobs: Vec<Job<u64>> = (0..6u64)
                .map(|i| {
                    Box::new(move || {
                        if i == panicking {
                            panic!("job failure")
                        }
                        i
                    }) as Job<u64>
                })
                .collect();
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| run_jobs(jobs, 4)))
                .expect_err("a job panic must panic the call");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"job failure"));
        }
        let squares: Vec<Job<u64>> = (0..6u64).map(|i| Box::new(move || i * i) as _).collect();
        assert_eq!(run_jobs(squares, 4), [0, 1, 4, 9, 16, 25]);
        let stats = dev.launch(&launch, mixed(12));
        assert_eq!(stats.num_blocks, 6);
        let charged: u64 = (0..12).map(|i| (1 + i % 7) * 100).sum();
        assert_eq!(stats.busy_cycles, charged);
    }

    #[test]
    fn seconds_conversion() {
        let dev = Device::new(DeviceConfig {
            clock_ghz: 1.0,
            ..DeviceConfig::default()
        });
        assert!((dev.seconds(1_000_000_000) - 1.0).abs() < 1e-12);
    }
}
