//! End-to-end throughput suite: the perf trajectory anchor for the repo.
//!
//! Unlike the `figN_*` binaries (which reproduce individual paper plots),
//! this suite measures **host wall-clock throughput** of the full engine —
//! the quantity successive PRs are judged against — plus the deterministic
//! simulated-cycle total CI gates on. It sweeps preset datasets × query
//! classes × three batch workloads:
//!
//! * `insert` — batched edge insertions (positive kernel only),
//! * `delete` — batched edge deletions (negative kernel only),
//! * `churn`  — alternating delete/re-insert rounds over the same edge
//!   set, the steady-state workload that exercises both kernel phases,
//!   the GPMA delete *and* insert paths, and the re-encoding pipeline
//!   every round.
//!
//! Engines: the full GAMMA engine, the WBM ablation, and the multi-device
//! [`ShardedEngine`] at 1/2/4 shards on the churn workload — the scaling
//! curve the JSON summary records.
//!
//! For every (dataset, class, workload, engine) cell it prints updates/sec
//! (net structural updates over host wall time), matches/sec, the
//! simulated device-cycle total, the kernels' summed warp work (busy
//! cycles, which no gate reads) and their scheduler steps (`steps`), then
//! writes a machine-readable JSON summary (default `BENCH_PR10.json`;
//! `--smoke` defaults to a per-invocation file under the system temp dir
//! so parallel CI jobs never clobber each other — `--out=PATH` is honored
//! everywhere). Each cell there also carries the kernels' `tasks`,
//! `tasks_completed` (a stolen part counts as a task, so on the device it
//! is `tasks + steals`), `scheduler_steps`, `shared_scans` (the steps
//! whose scan a block's waiting warps joined; the table's `shared`) and
//! `block_splits` (the blocks split off blocks past the split budget;
//! the table's `bsplits`).
//!
//! The summary's `registry` block measures the standing-query serving
//! tier: 8 same-class subscriptions served by one [`QueryRegistry`]
//! against the same subscriptions on dedicated engines, over the same
//! churn stream. Under `--check` (non-replay) the same-run ratio must
//! hold [`REGISTRY_SPEEDUP_FLOOR`]. The block is omitted under
//! `--replay-trace`, whose recorded traces predate the serving tier.
//!
//! The summary also carries an `intersect` micro-benchmark block: ns/probe
//! of the three backward-edge membership primitives (scalar galloping,
//! chunked merge, signature-prefiltered chunked) measured on real preset
//! runs — the quantity the PR-6 kernel rework targets. It runs in `--smoke`
//! too, so CI validates the block's presence and sanity.
//!
//! ```text
//! cargo run --release -p gamma-bench --bin perf_suite             # full
//! cargo run --release -p gamma-bench --bin perf_suite -- --smoke  # CI
//! ```
//!
//! ## Fixed traces
//!
//! `--record-trace=FILE` serializes the whole generated sweep — suite
//! parameters, data graphs, per-class queries, every update batch — into
//! a checksummed [`gamma_wal::Trace`]. `--replay-trace=FILE` runs the
//! suite on exactly that recorded work: the trace's parameters are
//! adopted, and a parameter passed explicitly on the command line that
//! *conflicts* with the trace is refused with exit code 2 (the same
//! convention as the baseline parameter check). Replayed work is
//! bit-identical across hosts, so the `sim_cycles` column becomes a
//! drift-immune regression signal: every cell replays to the **exact**
//! cycle count, and the gate's one ceiling is its baseline's count, at 0%
//! tolerance — the device's block scheduler and the sharded engine's
//! virtual-time executor make every scheduling decision (and therefore
//! every cycle of accounting) a pure function of the replayed work.
//!
//! ## CI perf-regression gate
//!
//! `--baseline=BENCH_PR8.json --check` compares the run against a
//! previously committed summary: for every `churn` cell present in both
//! files (matched on dataset/class/workload/engine, with identical suite
//! parameters), a drop of more than 30% in updates/sec fails the process
//! with a non-zero exit — the trajectory must not silently regress.
//! Violated wall-clock cells are re-measured up to twice (best-of-3)
//! before failing: host noise only ever slows a cell down, so a retry
//! clearing the floor proves health while a genuine regression fails
//! every attempt. Every violation message names the offending cell's
//! baseline vs measured sim-cycles — the hardware-independent companion
//! signal for triage.
//!
//! Under `--replay-trace` the gate additionally checks the deterministic
//! columns: any cell whose `sim_cycles` grew at all over the baseline,
//! or whose match count differs from the baseline's at all,
//! fails immediately, with no re-measure (determinism means a retry
//! cannot differ). A replay that is not narrowed by `--dataset` or
//! `--class` must also measure every baseline cell: a cell it did not
//! measure (a renamed engine, a dropped class) fails the same way. The
//! gate's summary line counts the cells it compared, not the baseline's.
//!
//! ## Shard-scaling gate
//!
//! Under `--check`, every dense-class churn cell measured in *this run*
//! must show SHARD4 holding at least [`SHARD_VS_WBM_FLOOR`] of the
//! single-device WBM wall-clock throughput — the multi-device runtime
//! must pay for itself on the workloads it targets, same-run so host
//! speed cancels out of the ratio. Sharded cells also carry migration
//! telemetry in the JSON (migrant batches shipped, per-(src,dst) migrant
//! counts, inbox high-water depth, and the partitioner's edge-cut
//! fraction) — the observability for tuning the greedy partitioner — and
//! `unit_splits`, the parts their units split off (also the table's
//! `splits` column).
//!
//! ## Exit status
//!
//! Under `--check` every gate (baseline, shard scaling, registry) runs
//! and prints its section before the process exits, so a failed gate
//! never hides the verdicts after it: the exit code is 1 if any gate
//! failed, 0 otherwise. A refused comparison (missing or mismatched
//! baseline parameters, conflicting trace parameters) exits 2 at once.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use gamma_bench::{fmt_secs, print_header, print_row, GammaVariant};
use gamma_core::{
    GammaEngine, PartitionStrategy, QueryConfig, QueryRegistry, ShardStealing, ShardedConfig,
    ShardedEngine,
};
use gamma_datasets::{
    generate_queries, sample_deletion_workload, split_insertion_workload, DatasetPreset, QueryClass,
};
use gamma_graph::{DynamicGraph, QueryGraph, Update};
use gamma_wal::{PresetTrace, Trace, TraceParams, WorkloadTrace};

/// The regression gate's tolerated throughput drop (fraction of baseline).
const REGRESSION_TOLERANCE: f64 = 0.30;

/// The deterministic gate's tolerated sim-cycle growth under a trace
/// replay (fraction of baseline), on every cell. Replayed work is
/// bit-identical on every engine — the device's blocks and the shard
/// executor's virtual-time scheduler alike have no jitter — so the
/// tolerance is zero: a single cycle of growth is a real code change, and
/// a change that lowers a cell re-pins it.
const SIM_CYCLE_TOLERANCE: f64 = 0.0;

/// Same-run floor for the SHARD4 / WBM churn throughput ratio on dense
/// query classes (slightly under 1.0 to absorb wall-clock measurement
/// noise; the committed summaries show the ratio above parity).
const SHARD_VS_WBM_FLOOR: f64 = 0.95;

/// Migration telemetry of one sharded cell (absent on single-device
/// cells).
#[derive(Clone, Debug)]
struct ShardTelemetry {
    /// Partial embeddings shipped toward another shard.
    migrations: u64,
    /// Sealed migrant batches published into destination queues.
    migrant_batches: u64,
    /// Migrants executed by a non-owner shard via batch stealing.
    shard_steals: u64,
    /// Peak published-but-undrained migrant depth at any destination.
    inbox_high_water: u64,
    /// Fraction of the start graph's edges cut by the partitioner.
    edge_cut: f64,
    /// Migrants shipped per (src, dst) pair, `src * num_shards + dst`.
    pair_migrants: Vec<u64>,
    /// Runtime faults applied from the configured fault plan (0 on
    /// non-chaos runs; asserted present by the CI smoke gate).
    faults_injected: u64,
    /// Shard fail-stops that triggered partition repair.
    failovers: u64,
    /// Pending units reassigned to survivors by failovers.
    requeued_units: u64,
    /// Parts split off units (device stealing on: every unit that ran
    /// the split budget hands what a device thief would take to its
    /// shard).
    unit_splits: u64,
}

/// One measured cell of the suite.
#[derive(Clone, Debug)]
struct Sample {
    dataset: &'static str,
    class: &'static str,
    workload: &'static str,
    engine: &'static str,
    /// Net structural updates applied across all batches.
    updates: u64,
    /// Incremental matches reported (positive + negative).
    matches: u64,
    /// Host wall-clock seconds across all `apply_batch` calls.
    wall_seconds: f64,
    /// Simulated device cycles (GPMA update + kernels).
    sim_cycles: u64,
    /// Summed warp work of the kernels ([`KernelStats::busy_cycles`]):
    /// `sim_cycles` is the makespan, this the work behind it.
    ///
    /// [`KernelStats::busy_cycles`]: gamma_gpu::KernelStats::busy_cycles
    busy_cycles: u64,
    /// Summed kernel steals ([`KernelStats::steals`]): warp steals on the
    /// device (0 with stealing off), migrant batch steals on shards.
    ///
    /// [`KernelStats::steals`]: gamma_gpu::KernelStats::steals
    steals: u64,
    /// Summed tasks the kernels were given ([`KernelStats::num_tasks`]):
    /// warp tasks on the device, units run on shards.
    ///
    /// [`KernelStats::num_tasks`]: gamma_gpu::KernelStats::num_tasks
    tasks: u64,
    /// Summed tasks run to completion, stolen parts included
    /// ([`KernelStats::tasks_completed`]): `tasks + steals` on the device,
    /// 0 on shards.
    ///
    /// [`KernelStats::tasks_completed`]: gamma_gpu::KernelStats::tasks_completed
    tasks_completed: u64,
    /// Summed block-scheduler steps ([`KernelStats::scheduler_steps`]; 0
    /// on shards).
    ///
    /// [`KernelStats::scheduler_steps`]: gamma_gpu::KernelStats::scheduler_steps
    scheduler_steps: u64,
    /// Summed steps whose scan waiting warps joined
    /// ([`KernelStats::shared_scans`]; 0 with stealing off and on shards).
    ///
    /// [`KernelStats::shared_scans`]: gamma_gpu::KernelStats::shared_scans
    shared_scans: u64,
    /// Summed blocks split off blocks past the split budget
    /// ([`KernelStats::block_splits`]; 0 with stealing off and on shards).
    ///
    /// [`KernelStats::block_splits`]: gamma_gpu::KernelStats::block_splits
    block_splits: u64,
    /// Batches applied.
    batches: u64,
    /// Sharded cells' migration telemetry.
    shard: Option<ShardTelemetry>,
}

impl Sample {
    fn updates_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.updates as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    fn matches_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.matches as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

struct SuiteParams {
    smoke: bool,
    scale: f64,
    query_size: usize,
    rounds: usize,
    batch_rate: f64,
    seed: u64,
    out: String,
    baseline_path: Option<String>,
    check: bool,
    /// `--dataset=GH` / `--class=Dense`: restrict the sweep to one
    /// dataset and/or query class (regression triage).
    only_dataset: Option<String>,
    only_class: Option<String>,
    /// `--record-trace=FILE`: serialize the generated sweep to a trace.
    record_trace: Option<String>,
    /// `--replay-trace=FILE`: run the suite on a recorded trace.
    replay_trace: Option<String>,
    /// Keys the user passed explicitly (`--k=v`): a replayed trace may
    /// only override parameters the user did *not* pin.
    explicit: HashSet<String>,
}

impl SuiteParams {
    fn from_args() -> Self {
        let mut map: HashMap<String, String> = HashMap::new();
        let mut smoke = false;
        let mut check = false;
        for arg in std::env::args().skip(1) {
            if arg == "--smoke" {
                smoke = true;
            } else if arg == "--check" {
                check = true;
            } else if let Some(rest) = arg.strip_prefix("--") {
                if let Some((k, v)) = rest.split_once('=') {
                    map.insert(k.to_string(), v.to_string());
                }
            }
        }
        let default_out = if smoke {
            // Per-invocation path: parallel CI jobs must not clobber each
            // other through a shared fixed file.
            std::env::temp_dir()
                .join(format!("perf_suite_{}.json", std::process::id()))
                .to_string_lossy()
                .into_owned()
        } else {
            "BENCH_PR10.json".to_string()
        };
        let mut p = Self {
            smoke,
            scale: if smoke { 0.05 } else { 0.35 },
            query_size: 6,
            rounds: if smoke { 2 } else { 6 },
            batch_rate: 0.04,
            seed: 42,
            out: default_out,
            baseline_path: None,
            check,
            only_dataset: None,
            only_class: None,
            record_trace: None,
            replay_trace: None,
            explicit: map.keys().cloned().collect(),
        };
        if let Some(v) = map.get("scale") {
            p.scale = v.parse().expect("--scale");
        }
        if let Some(v) = map.get("size") {
            p.query_size = v.parse().expect("--size");
        }
        if let Some(v) = map.get("rounds") {
            p.rounds = v.parse().expect("--rounds");
        }
        if let Some(v) = map.get("rate") {
            p.batch_rate = v.parse().expect("--rate");
        }
        if let Some(v) = map.get("seed") {
            p.seed = v.parse().expect("--seed");
        }
        if let Some(v) = map.get("out") {
            p.out = v.clone();
        }
        if let Some(v) = map.get("baseline") {
            p.baseline_path = Some(v.clone());
        }
        if let Some(v) = map.get("dataset") {
            p.only_dataset = Some(v.clone());
        }
        if let Some(v) = map.get("class") {
            p.only_class = Some(v.clone());
        }
        if let Some(v) = map.get("record-trace") {
            p.record_trace = Some(v.clone());
        }
        if let Some(v) = map.get("replay-trace") {
            p.replay_trace = Some(v.clone());
        }
        p
    }
}

/// Loads `--replay-trace` and adopts its recorded parameters, refusing
/// (with a message for exit code 2) any explicitly-passed parameter that
/// conflicts with the trace — replaying different work than the trace
/// records would silently compare apples to oranges.
fn load_replay_trace(p: &mut SuiteParams) -> Result<Option<Trace>, String> {
    let Some(path) = p.replay_trace.clone() else {
        return Ok(None);
    };
    if p.record_trace.is_some() {
        return Err("--record-trace and --replay-trace are mutually exclusive".into());
    }
    let (trace, crc) = Trace::read(Path::new(&path))
        .map_err(|e| format!("replay trace {path} unreadable: {e}"))?;
    let tp = trace.params.expect("read trace always carries params");
    let pinned: [(&str, f64, f64); 5] = [
        ("scale", p.scale, tp.scale),
        ("size", p.query_size as f64, tp.query_size as f64),
        ("rounds", p.rounds as f64, tp.rounds as f64),
        ("rate", p.batch_rate, tp.batch_rate),
        ("seed", p.seed as f64, tp.seed as f64),
    ];
    for (key, mine, theirs) in pinned {
        if p.explicit.contains(key) && (mine - theirs).abs() > 1e-9 {
            return Err(format!(
                "--{key}={mine} conflicts with replay trace {path} \
                 (recorded with {key}={theirs}) — drop the flag or re-record"
            ));
        }
    }
    if p.smoke && !tp.smoke {
        return Err(format!(
            "--smoke conflicts with replay trace {path} (recorded without smoke)"
        ));
    }
    p.scale = tp.scale;
    p.query_size = tp.query_size as usize;
    p.rounds = tp.rounds as usize;
    p.batch_rate = tp.batch_rate;
    p.seed = tp.seed;
    p.smoke = tp.smoke;
    println!("replaying trace {path} (crc 0x{crc:08x})");
    Ok(Some(trace))
}

/// Interns a recorded workload name back to the suite's static labels.
fn static_workload(name: &str) -> &'static str {
    match name {
        "churn" => "churn",
        "insert" => "insert",
        "delete" => "delete",
        other => panic!("trace contains unknown workload {other:?}"),
    }
}

/// Reconstructs one (preset, class) sweep instance from a recorded trace:
/// the exact recorded query and `(workload, start graph, batches)`
/// triples, bit-identical to the run that recorded them.
#[allow(clippy::type_complexity)]
fn workloads_from_trace(
    trace: &Trace,
    preset: DatasetPreset,
    class: QueryClass,
) -> Option<(
    QueryGraph,
    Vec<(&'static str, DynamicGraph, Vec<Vec<Update>>)>,
)> {
    let pt = trace.preset(preset.name())?;
    let q = pt.query(class.name())?.clone();
    let workloads = pt
        .workloads
        .iter()
        .map(|wl| {
            let g0 = wl.start.clone().unwrap_or_else(|| pt.graph.clone());
            (static_workload(&wl.name), g0, wl.batches.clone())
        })
        .collect();
    Some((q, workloads))
}

/// An engine under measurement: the single-device variants plus the
/// sharded engine's scaling column.
#[derive(Clone, Copy, Debug)]
enum EngineUnderTest {
    Gamma(GammaVariant),
    Sharded(usize),
}

/// Applies `batches` to a fresh engine, accumulating throughput numbers.
fn run_engine(
    g0: &DynamicGraph,
    q: &QueryGraph,
    batches: &[Vec<Update>],
    under_test: EngineUnderTest,
    names: (&'static str, &'static str, &'static str, &'static str),
) -> Sample {
    let mut s = Sample {
        dataset: names.0,
        class: names.1,
        workload: names.2,
        engine: names.3,
        updates: 0,
        matches: 0,
        wall_seconds: 0.0,
        sim_cycles: 0,
        busy_cycles: 0,
        steals: 0,
        tasks: 0,
        tasks_completed: 0,
        scheduler_steps: 0,
        shared_scans: 0,
        block_splits: 0,
        batches: 0,
        shard: None,
    };
    let account = |s: &mut Sample, wall: f64, r: gamma_core::BatchResult| {
        s.wall_seconds += wall;
        s.updates += r.stats.net_updates as u64;
        s.matches += r.positive_count + r.negative_count;
        s.sim_cycles += r.stats.update_cycles + r.stats.kernel.device_cycles;
        s.busy_cycles += r.stats.kernel.busy_cycles;
        s.steals += r.stats.kernel.steals;
        s.tasks += r.stats.kernel.num_tasks as u64;
        s.tasks_completed += r.stats.kernel.tasks_completed;
        s.scheduler_steps += r.stats.kernel.scheduler_steps;
        s.shared_scans += r.stats.kernel.shared_scans;
        s.block_splits += r.stats.kernel.block_splits;
        s.batches += 1;
    };
    match under_test {
        EngineUnderTest::Gamma(variant) => {
            let mut cfg = variant.config(120.0);
            cfg.collect_matches = false;
            let mut engine = GammaEngine::new(g0.clone(), q, cfg);
            for batch in batches {
                let t0 = Instant::now();
                let r = engine.apply_batch(batch);
                account(&mut s, t0.elapsed().as_secs_f64(), r);
            }
        }
        EngineUnderTest::Sharded(shards) => {
            let mut base = GammaVariant::FULL.config(120.0);
            base.collect_matches = false;
            // The locality-aware partitioner is the production default for
            // the scaling column: its edge-cut (reported per cell) is what
            // keeps the replication factor — and the host work — down.
            let cfg = ShardedConfig {
                base,
                num_shards: shards,
                strategy: PartitionStrategy::Greedy,
                stealing: ShardStealing::Active,
                faults: None,
                query_id: 0,
            };
            let mut engine = ShardedEngine::new(g0.clone(), q, cfg);
            let edge_cut = engine.partition().cut_fraction(g0);
            for batch in batches {
                let t0 = Instant::now();
                let r = engine.apply_batch(batch);
                account(&mut s, t0.elapsed().as_secs_f64(), r);
            }
            let st = engine.shard_stats();
            s.shard = Some(ShardTelemetry {
                migrations: st.migrations,
                migrant_batches: st.migrant_batches,
                shard_steals: st.shard_steals,
                inbox_high_water: st.inbox_high_water,
                edge_cut,
                pair_migrants: st.pair_migrants,
                faults_injected: st.faults_injected,
                failovers: st.failovers,
                requeued_units: st.requeued_units,
                unit_splits: st.unit_splits,
            });
        }
    }
    s
}

/// Splits `updates` into `n` roughly equal consecutive batches.
fn chunk(updates: Vec<Update>, n: usize) -> Vec<Vec<Update>> {
    let n = n.max(1);
    let per = updates.len().div_ceil(n).max(1);
    updates.chunks(per).map(|c| c.to_vec()).collect()
}

/// Builds the workloads for one (preset, class) instance. Returns the
/// query plus `(workload name, pre-batch start graph, batches)` triples —
/// the insert workload starts from the stripped graph, churn and delete
/// from the full one.
#[allow(clippy::type_complexity)]
fn build_workloads(
    preset: DatasetPreset,
    class: QueryClass,
    p: &SuiteParams,
) -> Option<(
    QueryGraph,
    Vec<(&'static str, DynamicGraph, Vec<Vec<Update>>)>,
)> {
    let d = preset.build(p.scale, p.seed);
    let queries = generate_queries(&d.graph, class, p.query_size, 1, p.seed ^ 0xbeef);
    let q = queries.into_iter().next()?;

    // Churn workload: alternately delete and re-insert the same edge set,
    // `rounds` times — the steady-state regime.
    let churn_set = sample_deletion_workload(&d.graph, p.batch_rate, p.seed ^ 0x3);
    let churn_inserts: Vec<Update> = {
        let mut v = Vec::with_capacity(churn_set.len());
        for up in &churn_set {
            let label = d.graph.edge_label(up.u, up.v).unwrap_or(0);
            v.push(Update::insert_labeled(up.u, up.v, label));
        }
        v
    };
    let mut churn_batches = Vec::with_capacity(2 * p.rounds);
    for _ in 0..p.rounds {
        churn_batches.push(churn_set.clone());
        churn_batches.push(churn_inserts.clone());
    }

    let mut out = vec![("churn", d.graph.clone(), churn_batches)];
    if !p.smoke {
        // Insert workload: split real edges out (stripping `g_ins`), then
        // re-insert them in batches starting from the stripped graph.
        let mut g_ins = d.graph.clone();
        let ins = split_insertion_workload(&mut g_ins, p.batch_rate, p.seed ^ 0x1);
        out.push(("insert", g_ins, chunk(ins, p.rounds)));

        // Delete workload: remove live edges in batches.
        let del = sample_deletion_workload(&d.graph, p.batch_rate, p.seed ^ 0x2);
        out.push(("delete", d.graph, chunk(del, p.rounds)));
    }
    Some((q, out))
}

// ---------------------------------------------------------------------------
// Standing-query serving-tier benchmark
// ---------------------------------------------------------------------------

/// Same-run floor for the registry-vs-independent churn throughput ratio:
/// 8 same-class subscriptions served by one [`QueryRegistry`] (shared
/// structural update, shared encoders, one launch per distinct pattern)
/// must beat 8 sequential dedicated engines by at least this factor.
const REGISTRY_SPEEDUP_FLOOR: f64 = 1.3;

/// One standing-query subscription's totals, for the JSON summary.
struct RegistryPerQuery {
    id: u64,
    batches: u64,
    positive: u64,
    negative: u64,
}

/// The serving-tier cell: one registry holding `queries` subscriptions vs
/// the same subscriptions served by dedicated engines, same churn stream.
struct RegistryBench {
    dataset: &'static str,
    class: &'static str,
    queries: usize,
    group_count: usize,
    distinct_patterns: usize,
    /// Net structural updates of the (shared) stream.
    stream_updates: u64,
    /// Registry wall-clock across all `apply_batch` calls.
    reg_wall: f64,
    /// Summed wall-clock of the dedicated engines over the same stream.
    indep_wall: f64,
    per_query: Vec<RegistryPerQuery>,
}

impl RegistryBench {
    fn reg_updates_per_sec(&self) -> f64 {
        if self.reg_wall > 0.0 {
            self.stream_updates as f64 / self.reg_wall
        } else {
            0.0
        }
    }

    fn indep_updates_per_sec(&self) -> f64 {
        if self.indep_wall > 0.0 {
            self.stream_updates as f64 / self.indep_wall
        } else {
            0.0
        }
    }

    fn speedup(&self) -> f64 {
        if self.reg_wall > 0.0 {
            self.indep_wall / self.reg_wall
        } else {
            0.0
        }
    }
}

/// Runs the serving-tier cell on the GH preset's steady-state churn
/// workload: 8 same-class subscriptions cycling a couple of distinct
/// patterns (duplicates share their pattern's launch — the serving tier's
/// whole point), measured against 8 sequential dedicated engines.
fn bench_registry(p: &SuiteParams) -> Option<RegistryBench> {
    const SUBS: usize = 8;
    let preset = DatasetPreset::GH;
    // Dense first (the acceptance cell); fall back so smoke always emits
    // the JSON section even on hostile scales.
    for class in [QueryClass::Dense, QueryClass::Sparse, QueryClass::Tree] {
        let (_, workloads) = match build_workloads(preset, class, p) {
            Some(x) => x,
            None => continue,
        };
        let (_, g0, batches) = workloads
            .into_iter()
            .find(|(w, _, _)| *w == "churn")
            .expect("churn workload always present");
        let qs = generate_queries(&g0, class, p.query_size.min(5), 2, p.seed ^ 0x517e);
        if qs.is_empty() {
            continue;
        }
        let subs: Vec<&QueryGraph> = (0..SUBS).map(|i| &qs[i % qs.len()]).collect();

        let mut cfg = GammaVariant::FULL.config(120.0);
        cfg.collect_matches = false;

        let mut reg = QueryRegistry::new(g0.clone(), cfg.clone());
        let ids: Vec<_> = subs
            .iter()
            .map(|q| reg.register(q, QueryConfig::default()))
            .collect();
        let mut stream_updates = 0u64;
        let mut reg_wall = 0.0;
        for batch in &batches {
            let t0 = Instant::now();
            let r = reg.apply_batch(batch);
            reg_wall += t0.elapsed().as_secs_f64();
            stream_updates += r.net_updates as u64;
        }

        let mut indep_wall = 0.0;
        for q in &subs {
            let mut engine = GammaEngine::new(g0.clone(), q, cfg.clone());
            for batch in &batches {
                let t0 = Instant::now();
                engine.apply_batch(batch);
                indep_wall += t0.elapsed().as_secs_f64();
            }
        }

        let per_query = ids
            .iter()
            .map(|&id| {
                let st = reg.stats(id).expect("registered id has stats");
                RegistryPerQuery {
                    id: id.0,
                    batches: st.batches,
                    positive: st.positive_total,
                    negative: st.negative_total,
                }
            })
            .collect();
        return Some(RegistryBench {
            dataset: preset.name(),
            class: class.name(),
            queries: SUBS,
            group_count: reg.group_count(),
            distinct_patterns: qs.len(),
            stream_updates,
            reg_wall,
            indep_wall,
            per_query,
        });
    }
    None
}

// ---------------------------------------------------------------------------
// Backward-edge intersection micro-benchmark
// ---------------------------------------------------------------------------

/// ns/probe of the three backward-edge membership primitives, measured on
/// real preset runs (the WBM backward-check shape: for each edge `(u, v)`,
/// `v`'s sorted neighbor run probed for membership in `u`'s run).
struct IntersectBench {
    probes: u64,
    scalar_ns: f64,
    chunked_ns: f64,
    bitmap_ns: f64,
}

fn bench_intersect(p: &SuiteParams) -> IntersectBench {
    use gamma_gpma::{Gpma, GpmaConfig, CHUNK_WIDTH};
    use gamma_graph::ELabel;

    let scale = if p.smoke { 0.05 } else { 0.25 };
    let d = DatasetPreset::GH.build(scale, p.seed ^ 0x6);
    let pma = Gpma::from_graph(&d.graph, GpmaConfig::default());

    // Probe pairs with real degree/overlap distributions: one pair per
    // vertex `u` with neighbors, probing `u`'s run with the sorted run of
    // its highest-degree neighbor.
    let mut pairs: Vec<(u32, Vec<u32>)> = Vec::new();
    let mut total_targets = 0u64;
    for u in 0..d.graph.num_vertices() as u32 {
        let Some(&(v, _)) = d
            .graph
            .neighbors(u)
            .iter()
            .max_by_key(|&&(w, _)| d.graph.degree(w))
        else {
            continue;
        };
        let targets: Vec<u32> = pma.neighbor_run(v).map(|(w, _)| w).collect();
        if targets.is_empty() {
            continue;
        }
        total_targets += targets.len() as u64;
        pairs.push((u, targets));
    }
    // Fixed probe volume so smoke stays fast and full runs measure stably.
    let goal: u64 = if p.smoke { 200_000 } else { 2_000_000 };
    let rounds = (goal / total_targets.max(1)).max(1);
    let probes = total_targets * rounds;

    let mut labels = [0 as ELabel; CHUNK_WIDTH];
    let per_probe = |t0: Instant, hits: u64| -> f64 {
        std::hint::black_box(hits);
        t0.elapsed().as_nanos() as f64 / probes as f64
    };

    // Scalar galloping: one `run_seek` per target.
    let t0 = Instant::now();
    let mut hits = 0u64;
    for _ in 0..rounds {
        for (u, targets) in &pairs {
            let mut cur = pma.run_cursor(*u);
            for &t in targets {
                hits += pma.run_seek(&mut cur, t).is_some() as u64;
            }
        }
    }
    let scalar_ns = per_probe(t0, hits);

    // Chunked merge: 64-wide `run_seek_chunk` over the same targets.
    let t0 = Instant::now();
    let mut hits = 0u64;
    for _ in 0..rounds {
        for (u, targets) in &pairs {
            let mut cur = pma.run_cursor(*u);
            for chunk in targets.chunks(CHUNK_WIDTH) {
                hits += u64::from(
                    pma.run_seek_chunk(&mut cur, chunk, &mut labels)
                        .count_ones(),
                );
            }
        }
    }
    let chunked_ns = per_probe(t0, hits);

    // Signature-prefiltered chunked: build the u64 signature (charged
    // inside the timing, as the kernel pays it), reject lanes whose bit is
    // clear, seek only survivors.
    let t0 = Instant::now();
    let mut hits = 0u64;
    let mut buf = [0u32; CHUNK_WIDTH];
    for _ in 0..rounds {
        for (u, targets) in &pairs {
            let sig = pma.run_signature(*u);
            let mut cur = pma.run_cursor(*u);
            for chunk in targets.chunks(CHUNK_WIDTH) {
                let mut nt = 0usize;
                for &t in chunk {
                    if sig & (1u64 << (t & 63)) != 0 {
                        buf[nt] = t;
                        nt += 1;
                    }
                }
                if nt > 0 {
                    hits += u64::from(
                        pma.run_seek_chunk(&mut cur, &buf[..nt], &mut labels)
                            .count_ones(),
                    );
                }
            }
        }
    }
    let bitmap_ns = per_probe(t0, hits);

    IntersectBench {
        probes,
        scalar_ns,
        chunked_ns,
        bitmap_ns,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(
    path: &str,
    samples: &[Sample],
    isect: &IntersectBench,
    registry: Option<&RegistryBench>,
    p: &SuiteParams,
    trace_info: Option<(&str, u32)>,
) -> std::io::Result<()> {
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"suite\": \"perf_suite\",");
    let _ = writeln!(j, "  \"pr\": 10,");
    match trace_info {
        Some((tpath, crc)) => {
            let _ = writeln!(j, "  \"trace\": \"{}\",", json_escape(tpath));
            let _ = writeln!(j, "  \"trace_crc\": {crc},");
        }
        None => {
            let _ = writeln!(j, "  \"trace\": null,");
            let _ = writeln!(j, "  \"trace_crc\": null,");
        }
    }
    let _ = writeln!(j, "  \"smoke\": {},", p.smoke);
    let _ = writeln!(j, "  \"scale\": {},", p.scale);
    let _ = writeln!(j, "  \"query_size\": {},", p.query_size);
    let _ = writeln!(j, "  \"rounds\": {},", p.rounds);
    let _ = writeln!(j, "  \"batch_rate\": {},", p.batch_rate);
    let _ = writeln!(j, "  \"seed\": {},", p.seed);

    // Aggregate churn throughput for the full engine (the headline number).
    let churn: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.workload == "churn" && s.engine == "GAMMA")
        .collect();
    let churn_updates: u64 = churn.iter().map(|s| s.updates).sum();
    let churn_wall: f64 = churn.iter().map(|s| s.wall_seconds).sum();
    let churn_matches: u64 = churn.iter().map(|s| s.matches).sum();
    let churn_ups = if churn_wall > 0.0 {
        churn_updates as f64 / churn_wall
    } else {
        0.0
    };
    let churn_mps = if churn_wall > 0.0 {
        churn_matches as f64 / churn_wall
    } else {
        0.0
    };
    j.push_str("  \"churn\": {\n");
    let _ = writeln!(j, "    \"updates_per_sec\": {churn_ups:.1},");
    let _ = writeln!(j, "    \"matches_per_sec\": {churn_mps:.1},");
    let _ = writeln!(j, "    \"wall_seconds\": {churn_wall:.4}");
    j.push_str("  },\n");

    // Backward-edge membership primitives (ns/probe, lower is better).
    j.push_str("  \"intersect\": {\n");
    let _ = writeln!(j, "    \"probes\": {},", isect.probes);
    let _ = writeln!(j, "    \"scalar_ns_per_probe\": {:.2},", isect.scalar_ns);
    let _ = writeln!(j, "    \"chunked_ns_per_probe\": {:.2},", isect.chunked_ns);
    let _ = writeln!(j, "    \"bitmap_ns_per_probe\": {:.2}", isect.bitmap_ns);
    j.push_str("  },\n");

    // The standing-query serving tier: one registry vs dedicated engines
    // (absent under `--replay-trace` — replayed runs reproduce the
    // recorded engine matrix only).
    match registry {
        Some(r) => {
            j.push_str("  \"registry\": {\n");
            let _ = writeln!(j, "    \"dataset\": \"{}\",", json_escape(r.dataset));
            let _ = writeln!(j, "    \"class\": \"{}\",", json_escape(r.class));
            let _ = writeln!(j, "    \"queries\": {},", r.queries);
            let _ = writeln!(j, "    \"group_count\": {},", r.group_count);
            let _ = writeln!(j, "    \"distinct_patterns\": {},", r.distinct_patterns);
            let _ = writeln!(j, "    \"stream_updates\": {},", r.stream_updates);
            let _ = writeln!(j, "    \"wall_seconds\": {:.6},", r.reg_wall);
            let _ = writeln!(
                j,
                "    \"updates_per_sec\": {:.1},",
                r.reg_updates_per_sec()
            );
            let _ = writeln!(j, "    \"indep_wall_seconds\": {:.6},", r.indep_wall);
            let _ = writeln!(
                j,
                "    \"indep_updates_per_sec\": {:.1},",
                r.indep_updates_per_sec()
            );
            let _ = writeln!(j, "    \"speedup_vs_independent\": {:.2},", r.speedup());
            j.push_str("    \"per_query\": [\n");
            for (i, q) in r.per_query.iter().enumerate() {
                let comma = if i + 1 < r.per_query.len() { "," } else { "" };
                let _ = writeln!(
                    j,
                    "      {{\"id\": {}, \"batches\": {}, \"positive\": {}, \"negative\": {}}}{}",
                    q.id, q.batches, q.positive, q.negative, comma
                );
            }
            j.push_str("    ]\n");
            j.push_str("  },\n");
        }
        None => {
            let _ = writeln!(j, "  \"registry\": null,");
        }
    }

    j.push_str("  \"cells\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        // Migration telemetry rides on the sharded cells' lines.
        let shard_fields = match &s.shard {
            Some(t) => {
                let pairs = t
                    .pair_migrants
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    ", \"migrations\": {}, \"migrant_batches\": {}, \"shard_steals\": {}, \
                     \"inbox_high_water\": {}, \"edge_cut\": {:.4}, \"pair_migrants\": [{}], \
                     \"faults_injected\": {}, \"failovers\": {}, \"requeued_units\": {}, \
                     \"unit_splits\": {}",
                    t.migrations,
                    t.migrant_batches,
                    t.shard_steals,
                    t.inbox_high_water,
                    t.edge_cut,
                    pairs,
                    t.faults_injected,
                    t.failovers,
                    t.requeued_units,
                    t.unit_splits
                )
            }
            None => String::new(),
        };
        let _ = writeln!(
            j,
            "    {{\"dataset\": \"{}\", \"class\": \"{}\", \"workload\": \"{}\", \"engine\": \"{}\", \
             \"updates\": {}, \"matches\": {}, \"batches\": {}, \"wall_seconds\": {:.6}, \
             \"updates_per_sec\": {:.1}, \"matches_per_sec\": {:.1}, \"sim_cycles\": {}, \
             \"busy_cycles\": {}, \"steals\": {}, \"tasks\": {}, \"tasks_completed\": {}, \
             \"scheduler_steps\": {}, \"shared_scans\": {}, \"block_splits\": {}{}}}{}",
            json_escape(s.dataset),
            json_escape(s.class),
            json_escape(s.workload),
            json_escape(s.engine),
            s.updates,
            s.matches,
            s.batches,
            s.wall_seconds,
            s.updates_per_sec(),
            s.matches_per_sec(),
            s.sim_cycles,
            s.busy_cycles,
            s.steals,
            s.tasks,
            s.tasks_completed,
            s.scheduler_steps,
            s.shared_scans,
            s.block_splits,
            shard_fields,
            comma
        );
    }
    j.push_str("  ]\n}\n");
    std::fs::write(path, j)
}

// ---------------------------------------------------------------------------
// Baseline parsing + the regression gate
// ---------------------------------------------------------------------------

/// A baseline cell parsed back out of a committed summary.
#[derive(Debug)]
struct BaselineCell {
    dataset: String,
    class: String,
    workload: String,
    engine: String,
    updates_per_sec: f64,
    /// Absent in pre-PR-4 summaries (the column postdates them).
    sim_cycles: Option<f64>,
    /// Incremental matches reported.
    matches: Option<f64>,
}

/// Extracts `"key": "value"` from one JSON line of our own writer.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts `"key": <number>` from one JSON line of our own writer.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .map(|e| e + start)
        .unwrap_or(line.len());
    line[start..end].parse().ok()
}

/// Parses a committed `perf_suite` summary (the line-oriented format this
/// binary writes — one cell object per line).
fn parse_baseline(text: &str) -> (HashMap<String, f64>, Vec<BaselineCell>) {
    let mut params = HashMap::new();
    let mut cells = Vec::new();
    let mut in_cells = false;
    for line in text.lines() {
        if line.contains("\"cells\"") {
            in_cells = true;
        }
        if in_cells && line.trim_start().starts_with('{') && line.contains("\"dataset\"") {
            if let (Some(dataset), Some(class), Some(workload), Some(engine), Some(ups)) = (
                field_str(line, "dataset"),
                field_str(line, "class"),
                field_str(line, "workload"),
                field_str(line, "engine"),
                field_num(line, "updates_per_sec"),
            ) {
                cells.push(BaselineCell {
                    dataset,
                    class,
                    workload,
                    engine,
                    updates_per_sec: ups,
                    sim_cycles: field_num(line, "sim_cycles"),
                    matches: field_num(line, "matches"),
                });
            }
        } else if !in_cells {
            for key in ["scale", "query_size", "rounds", "batch_rate", "seed"] {
                if line.trim_start().starts_with(&format!("\"{key}\"")) {
                    if let Some(v) = field_num(line, key) {
                        params.insert(key.to_string(), v);
                    }
                }
            }
        }
    }
    (params, cells)
}

/// One gate violation: its message, and the sample to re-measure — a
/// wall-clock violation's cell — or `None` for a deterministic one (a
/// sim-cycle or match-count violation, or a cell the run did not
/// measure), which a retry of identical work cannot change.
struct Violation {
    msg: String,
    retry: Option<usize>,
}

/// What the regression gate compared, and what it found.
struct GateReport {
    violations: Vec<Violation>,
    /// Churn cells whose throughput was compared.
    churn: usize,
    /// Cells whose sim-cycles were compared (trace replay only).
    sim_cycles: usize,
    /// Cells whose match counts were compared (trace replay only).
    matches: usize,
}

/// Formats a cell's baseline-vs-measured sim-cycles for a violation
/// message — the hardware-independent triage signal every violation must
/// carry (pre-PR-4 baselines lack the column).
fn sim_cycle_note(b: &BaselineCell, s: &Sample) -> String {
    match b.sim_cycles {
        Some(bs) => format!("; sim-cycles baseline {bs:.0} vs measured {}", s.sim_cycles),
        None => format!(
            "; sim-cycles measured {} (baseline lacks column)",
            s.sim_cycles
        ),
    }
}

/// The perf-regression gate: every `churn` cell shared with the baseline
/// must hold at least `1 - REGRESSION_TOLERANCE` of its throughput, and —
/// when `sim_gate` is on (trace replay: the work is bit-identical) —
/// every shared cell's deterministic `sim_cycles` must stay within
/// `1 + SIM_CYCLE_TOLERANCE` of the baseline and its match count must
/// equal the baseline's. With `complete` set (a replay of the whole
/// trace), a baseline cell the run did not measure is a deterministic
/// violation; otherwise it is skipped. The report counts the cells
/// actually compared.
fn check_regressions(
    samples: &[Sample],
    baseline: &[BaselineCell],
    sim_gate: bool,
    complete: bool,
) -> GateReport {
    let mut report = GateReport {
        violations: Vec::new(),
        churn: 0,
        sim_cycles: 0,
        matches: 0,
    };
    for b in baseline {
        let cell = format!("{}/{}/{}/{}", b.dataset, b.class, b.workload, b.engine);
        let Some((i, s)) = samples.iter().enumerate().find(|(_, s)| {
            s.dataset == b.dataset
                && s.class == b.class
                && s.workload == b.workload
                && s.engine == b.engine
        }) else {
            if complete {
                report.violations.push(Violation {
                    msg: format!("{cell}: in the baseline but not measured by this run"),
                    retry: None,
                });
            }
            continue;
        };
        if b.workload == "churn" {
            report.churn += 1;
            let floor = b.updates_per_sec * (1.0 - REGRESSION_TOLERANCE);
            if s.updates_per_sec() < floor {
                report.violations.push(Violation {
                    msg: format!(
                        "{cell}: {:.0} upd/s < floor {:.0} (baseline {:.0}, -{:.0}%){}",
                        s.updates_per_sec(),
                        floor,
                        b.updates_per_sec,
                        (1.0 - s.updates_per_sec() / b.updates_per_sec) * 100.0,
                        sim_cycle_note(b, s)
                    ),
                    retry: Some(i),
                });
            }
        }
        if sim_gate {
            if let Some(bs) = b.sim_cycles.filter(|&bs| bs > 0.0) {
                report.sim_cycles += 1;
                let ceiling = bs * (1.0 + SIM_CYCLE_TOLERANCE);
                if s.sim_cycles as f64 > ceiling {
                    report.violations.push(Violation {
                        msg: format!(
                            "{cell}: sim-cycles measured {} > ceiling {:.0} \
                             (baseline {:.0}, +{:.1}%)",
                            s.sim_cycles,
                            ceiling,
                            bs,
                            (s.sim_cycles as f64 / bs - 1.0) * 100.0
                        ),
                        retry: None,
                    });
                }
            }
            if let Some(bm) = b.matches {
                report.matches += 1;
                if (s.matches as f64 - bm).abs() >= 1.0 {
                    report.violations.push(Violation {
                        msg: format!("{cell}: matches measured {} != baseline {bm:.0}", s.matches),
                        retry: None,
                    });
                }
            }
        }
    }
    report
}

/// One dense-class churn comparison of the same-run SHARD4 and WBM cells:
/// `(shard4 sample index, ratio, message)` — ratio below
/// [`SHARD_VS_WBM_FLOOR`] is a gate violation.
fn shard_scaling_ratios(samples: &[Sample]) -> Vec<(usize, f64, String)> {
    let mut out = Vec::new();
    for (i, s4) in samples.iter().enumerate() {
        if s4.engine != "SHARD4" || s4.workload != "churn" || s4.class != "Dense" {
            continue;
        }
        let Some(wbm) = samples.iter().find(|w| {
            w.engine == "WBM"
                && w.workload == "churn"
                && w.dataset == s4.dataset
                && w.class == s4.class
        }) else {
            continue;
        };
        let ratio = if wbm.updates_per_sec() > 0.0 {
            s4.updates_per_sec() / wbm.updates_per_sec()
        } else {
            0.0
        };
        out.push((
            i,
            ratio,
            format!(
                "{}/{}: SHARD4 {:.0} upd/s vs WBM {:.0} — ratio {ratio:.2}",
                s4.dataset,
                s4.class,
                s4.updates_per_sec(),
                wbm.updates_per_sec()
            ),
        ));
    }
    out
}

/// Re-measures one sample's cell from scratch and keeps the better of the
/// two measurements. Wall-clock throughput is one-sided under host noise —
/// interference can only make a healthy cell look slow, never a regressed
/// cell look fast — so best-of-N retries reject noise without masking real
/// regressions.
fn remeasure(sample: &Sample, p: &SuiteParams, trace: Option<&Trace>) -> Option<Sample> {
    let preset = [DatasetPreset::GH, DatasetPreset::AZ, DatasetPreset::NF]
        .into_iter()
        .find(|d| d.name() == sample.dataset)?;
    let class = QueryClass::ALL
        .iter()
        .copied()
        .find(|c| c.name() == sample.class)?;
    let under_test = match sample.engine {
        "GAMMA" => EngineUnderTest::Gamma(GammaVariant::FULL),
        "WBM" => EngineUnderTest::Gamma(GammaVariant::WBM),
        "SHARD1" => EngineUnderTest::Sharded(1),
        "SHARD2" => EngineUnderTest::Sharded(2),
        "SHARD4" => EngineUnderTest::Sharded(4),
        _ => return None,
    };
    // A replayed run must re-measure the *recorded* work, not regenerate.
    let (q, workloads) = match trace {
        Some(t) => workloads_from_trace(t, preset, class)?,
        None => build_workloads(preset, class, p)?,
    };
    let (wname, g0, batches) = workloads
        .into_iter()
        .find(|(w, _, _)| *w == sample.workload)?;
    Some(run_engine(
        &g0,
        &q,
        &batches,
        under_test,
        (sample.dataset, sample.class, wname, sample.engine),
    ))
}

fn main() -> ExitCode {
    let mut p = SuiteParams::from_args();
    let replay = match load_replay_trace(&mut p) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("perf_suite: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut presets: Vec<DatasetPreset> = if p.smoke {
        vec![DatasetPreset::GH]
    } else {
        vec![DatasetPreset::GH, DatasetPreset::AZ, DatasetPreset::NF]
    };
    let mut classes: Vec<QueryClass> = if p.smoke {
        vec![QueryClass::Tree]
    } else {
        QueryClass::ALL.to_vec()
    };
    if let Some(d) = &p.only_dataset {
        presets.retain(|x| x.name() == d);
        assert!(!presets.is_empty(), "unknown --dataset={d}");
    }
    if let Some(c) = &p.only_class {
        classes.retain(|x| x.name() == c);
        assert!(!classes.is_empty(), "unknown --class={c}");
    }
    if let Some(t) = &replay {
        // Only the recorded slices of the matrix can be replayed.
        presets.retain(|d| t.preset(d.name()).is_some());
        classes.retain(|c| t.presets.iter().any(|pt| pt.query(c.name()).is_some()));
        if presets.is_empty() || classes.is_empty() {
            eprintln!("perf_suite: replay trace covers none of the requested cells");
            return ExitCode::from(2);
        }
    }

    println!(
        "# perf_suite (scale={}, size={}, rounds={}, rate={:.0}%{}{})\n",
        p.scale,
        p.query_size,
        p.rounds,
        p.batch_rate * 100.0,
        if p.smoke { ", smoke" } else { "" },
        if replay.is_some() { ", replay" } else { "" }
    );
    print_header(&[
        "dataset",
        "class",
        "workload",
        "engine",
        "updates",
        "matches",
        "upd/s",
        "match/s",
        "wall",
        "sim-cycles",
        "busy-cycles",
        "steals",
        "steps",
        "shared",
        "bsplits",
        "migr",
        "cut%",
        "splits",
    ]);

    // `--record-trace`: accumulate the generated sweep as it is built —
    // workloads once per preset (class-independent), queries per class.
    let mut recorder: Option<Trace> = p.record_trace.as_ref().map(|_| Trace {
        params: Some(TraceParams {
            scale: p.scale,
            query_size: p.query_size as u32,
            rounds: p.rounds as u32,
            batch_rate: p.batch_rate,
            seed: p.seed,
            smoke: p.smoke,
        }),
        presets: Vec::new(),
    });

    let mut samples: Vec<Sample> = Vec::new();
    for &preset in &presets {
        for &class in &classes {
            let built = match &replay {
                Some(t) => workloads_from_trace(t, preset, class),
                None => build_workloads(preset, class, &p),
            };
            let Some((q, workloads)) = built else {
                continue;
            };
            if let Some(t) = recorder.as_mut() {
                if t.preset(preset.name()).is_none() {
                    // The churn workload starts from the preset's full
                    // graph, so its start graph doubles as the preset
                    // payload; only insert needs a start override (the
                    // stripped graph).
                    let graph = workloads
                        .iter()
                        .find(|(w, _, _)| *w == "churn")
                        .map(|(_, g, _)| g.clone())
                        .expect("churn workload always present");
                    t.presets.push(PresetTrace {
                        name: preset.name().to_string(),
                        graph,
                        queries: Vec::new(),
                        workloads: workloads
                            .iter()
                            .map(|(w, g0, batches)| WorkloadTrace {
                                name: (*w).to_string(),
                                start: (*w == "insert").then(|| g0.clone()),
                                batches: batches.clone(),
                            })
                            .collect(),
                    });
                }
                let pt = t
                    .presets
                    .iter_mut()
                    .find(|x| x.name == preset.name())
                    .expect("preset entry just ensured");
                pt.queries.push((class.name().to_string(), q.clone()));
            }
            for (wname, g0, batches) in &workloads {
                // The sharded scaling column runs on the steady-state
                // churn workload; insert/delete keep the two single-device
                // variants (bounded suite runtime). Smoke keeps one
                // single-device and one sharded cell so CI can assert the
                // migration-telemetry plumbing end to end.
                let mut engines: Vec<(&'static str, EngineUnderTest)> =
                    vec![("GAMMA", EngineUnderTest::Gamma(GammaVariant::FULL))];
                if p.smoke {
                    engines.push(("SHARD4", EngineUnderTest::Sharded(4)));
                } else {
                    engines.push(("WBM", EngineUnderTest::Gamma(GammaVariant::WBM)));
                    if *wname == "churn" {
                        engines.push(("SHARD1", EngineUnderTest::Sharded(1)));
                        engines.push(("SHARD2", EngineUnderTest::Sharded(2)));
                        engines.push(("SHARD4", EngineUnderTest::Sharded(4)));
                    }
                }
                for &(ename, under_test) in &engines {
                    let s = run_engine(
                        g0,
                        &q,
                        batches,
                        under_test,
                        (preset.name(), class.name(), wname, ename),
                    );
                    let (migr, cut, splits) = match &s.shard {
                        Some(t) => (
                            format!("{}/{}b", t.migrations, t.migrant_batches),
                            format!("{:.1}", t.edge_cut * 100.0),
                            t.unit_splits.to_string(),
                        ),
                        None => ("-".to_string(), "-".to_string(), "-".to_string()),
                    };
                    print_row(&[
                        s.dataset.to_string(),
                        s.class.to_string(),
                        s.workload.to_string(),
                        s.engine.to_string(),
                        s.updates.to_string(),
                        s.matches.to_string(),
                        format!("{:.0}", s.updates_per_sec()),
                        format!("{:.0}", s.matches_per_sec()),
                        fmt_secs(s.wall_seconds),
                        s.sim_cycles.to_string(),
                        s.busy_cycles.to_string(),
                        s.steals.to_string(),
                        s.scheduler_steps.to_string(),
                        s.shared_scans.to_string(),
                        s.block_splits.to_string(),
                        migr,
                        cut,
                        splits,
                    ]);
                    samples.push(s);
                }
            }
        }
    }

    let isect = bench_intersect(&p);
    println!(
        "\n# intersect micro ({} probes): scalar {:.1} ns/probe, chunked {:.1}, bitmap {:.1}",
        isect.probes, isect.scalar_ns, isect.chunked_ns, isect.bitmap_ns
    );

    // Serving-tier cell: skipped under replay (the recorded traces predate
    // the registry, and the replay gate compares the engine matrix only).
    let registry = if replay.is_some() {
        None
    } else {
        bench_registry(&p)
    };
    if let Some(r) = &registry {
        println!(
            "# registry ({}/{}): {} queries in {} groups — {:.0} upd/s vs {:.0} upd/s \
             dedicated ({}x speedup, floor {REGISTRY_SPEEDUP_FLOOR})",
            r.dataset,
            r.class,
            r.queries,
            r.group_count,
            r.reg_updates_per_sec(),
            r.indep_updates_per_sec(),
            format_args!("{:.2}", r.speedup()),
        );
    }

    // Trace provenance in the JSON: the file just recorded, or the one
    // being replayed (re-reading for its crc keeps one code path).
    let mut trace_info: Option<(String, u32)> = None;
    if let Some(t) = &recorder {
        let path = p.record_trace.clone().expect("recorder implies path");
        let crc = t.write(Path::new(&path)).expect("write trace");
        println!("recorded trace {path} (crc 0x{crc:08x})");
        trace_info = Some((path, crc));
    } else if let Some(path) = &p.replay_trace {
        let (_, crc) = Trace::read(Path::new(path)).expect("trace re-read");
        trace_info = Some((path.clone(), crc));
    }
    let trace_ref = trace_info.as_ref().map(|(f, c)| (f.as_str(), *c));

    write_json(&p.out, &samples, &isect, registry.as_ref(), &p, trace_ref)
        .expect("write JSON summary");
    println!("\nwrote {}", p.out);

    if p.check && p.baseline_path.is_none() {
        eprintln!("perf gate: --check requires --baseline=FILE (nothing to compare against)");
        return ExitCode::from(2);
    }
    // Every gate below runs and prints its section even when one before it
    // failed, so a red gate never hides the verdicts after it; the process
    // exits FAILURE at the end if any gate failed. Refused comparisons
    // (exit 2) still stop the run at once.
    let mut failed = false;
    if let Some(path) = &p.baseline_path {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let (params, cells) = parse_baseline(&text);
        let baseline_churn_cells = cells.iter().filter(|c| c.workload == "churn").count();
        if p.check && baseline_churn_cells == 0 {
            eprintln!(
                "perf gate: baseline {path} contains no parseable churn cells — \
                 the gate would pass vacuously, refusing"
            );
            return ExitCode::from(2);
        }
        // Refuse apples-to-oranges comparisons: the baseline must have
        // been recorded under the same suite parameters.
        let ours: [(&str, f64); 5] = [
            ("scale", p.scale),
            ("query_size", p.query_size as f64),
            ("rounds", p.rounds as f64),
            ("batch_rate", p.batch_rate),
            ("seed", p.seed as f64),
        ];
        for (key, mine) in ours {
            // A missing key must refuse too (NaN compares false with
            // everything, so `unwrap_or(NAN)` would silently pass).
            let Some(theirs) = params.get(key).copied() else {
                eprintln!(
                    "perf gate: baseline {path} does not record \"{key}\" — \
                     unparseable or pre-gate format, refusing to compare"
                );
                return ExitCode::from(2);
            };
            if (theirs - mine).abs() > 1e-9 {
                eprintln!(
                    "perf gate: baseline {path} was recorded with {key}={theirs}, \
                     this run uses {key}={mine} — refusing to compare"
                );
                return ExitCode::from(2);
            }
        }
        let sim_gate = replay.is_some();
        // A replay of the whole trace must measure every baseline cell.
        let complete = sim_gate && p.only_dataset.is_none() && p.only_class.is_none();
        let mut report = check_regressions(&samples, &cells, sim_gate, complete);
        // Best-of-3: re-measure violated wall-clock cells before failing.
        // Host noise is one-sided (it only slows cells down), so a retry
        // that clears the floor proves the cell healthy, while a real
        // regression stays below it on every attempt. Deterministic
        // sim-cycle violations are never retried — identical work yields
        // identical cycles, so a retry cannot differ.
        for attempt in 1..=2 {
            let noisy: Vec<usize> = report.violations.iter().filter_map(|v| v.retry).collect();
            if !p.check || noisy.is_empty() {
                break;
            }
            eprintln!(
                "perf gate: {} wall-clock violation(s), re-measuring (attempt {attempt}/2) \
                 to reject host noise",
                noisy.len()
            );
            for &i in &noisy {
                if let Some(fresh) = remeasure(&samples[i], &p, replay.as_ref()) {
                    if fresh.updates_per_sec() > samples[i].updates_per_sec() {
                        samples[i] = fresh;
                    }
                }
            }
            report = check_regressions(&samples, &cells, sim_gate, complete);
            // Keep the JSON summary consistent with the retained (best)
            // measurements.
            write_json(&p.out, &samples, &isect, registry.as_ref(), &p, trace_ref)
                .expect("rewrite JSON summary");
        }
        if p.check && !report.violations.is_empty() {
            eprintln!(
                "\nperf gate FAILED vs {path} (>{:.0}% churn wall-clock regression{}):",
                REGRESSION_TOLERANCE * 100.0,
                if sim_gate {
                    format!(
                        ", >{:.0}% sim-cycle growth on any cell, a changed match count or an \
                         unmeasured cell",
                        SIM_CYCLE_TOLERANCE * 100.0
                    )
                } else {
                    String::new()
                }
            );
            for v in &report.violations {
                eprintln!("  {}", v.msg);
            }
            failed = true;
        } else {
            println!(
                "perf gate vs {path}: {} churn cell(s) compared{}, {}",
                report.churn,
                if sim_gate {
                    format!(
                        " + sim-cycles on {} cell(s) + match counts on {}",
                        report.sim_cycles, report.matches
                    )
                } else {
                    String::new()
                },
                if report.violations.is_empty() {
                    "no regressions".to_string()
                } else {
                    format!(
                        "{} regression(s) (informational, no --check)",
                        report.violations.len()
                    )
                }
            );
        }
    }

    // Same-run shard-scaling column: on dense classes, SHARD4 must hold
    // SHARD_VS_WBM_FLOOR of the single-device WBM churn throughput. The
    // two cells ran on the same host minutes apart, so machine speed
    // cancels out of the ratio — unlike the baseline gate, this one
    // cannot be fooled by running CI on a faster box.
    let mut scaling = shard_scaling_ratios(&samples);
    if !scaling.is_empty() {
        println!("\n# shard scaling (SHARD4 vs WBM churn, floor {SHARD_VS_WBM_FLOOR}):");
        for (_, _, msg) in &scaling {
            println!("  {msg}");
        }
        if p.check {
            // Best-of-3 on the SHARD4 side only: host noise slows cells
            // one-sidedly, and a slowed WBM only *raises* the ratio.
            for attempt in 1..=2 {
                let failing: Vec<usize> = scaling
                    .iter()
                    .filter(|(_, r, _)| *r < SHARD_VS_WBM_FLOOR)
                    .map(|(i, _, _)| *i)
                    .collect();
                if failing.is_empty() {
                    break;
                }
                eprintln!(
                    "shard gate: {} ratio violation(s), re-measuring SHARD4 \
                     (attempt {attempt}/2) to reject host noise",
                    failing.len()
                );
                for &i in &failing {
                    if let Some(fresh) = remeasure(&samples[i], &p, replay.as_ref()) {
                        if fresh.updates_per_sec() > samples[i].updates_per_sec() {
                            samples[i] = fresh;
                        }
                    }
                }
                scaling = shard_scaling_ratios(&samples);
                write_json(&p.out, &samples, &isect, registry.as_ref(), &p, trace_ref)
                    .expect("rewrite JSON summary");
            }
            let failing: Vec<&(usize, f64, String)> = scaling
                .iter()
                .filter(|(_, r, _)| *r < SHARD_VS_WBM_FLOOR)
                .collect();
            if !failing.is_empty() {
                eprintln!("\nshard gate FAILED (SHARD4/WBM churn ratio < {SHARD_VS_WBM_FLOOR}):");
                for (_, _, msg) in failing {
                    eprintln!("  {msg}");
                }
                failed = true;
            } else {
                println!(
                    "shard gate: {} dense cell(s), all ratios >= {SHARD_VS_WBM_FLOOR}",
                    scaling.len()
                );
            }
        }
    }

    // Serving-tier gate: same-run ratio (host speed cancels), so no
    // baseline needed. The registry amortizes the structural update, the
    // re-encoding pipeline and each pattern's launch across its
    // subscriptions — if it cannot beat dedicated engines by the floor,
    // the sharing machinery has regressed.
    if p.check {
        if let Some(r) = &registry {
            if r.speedup() < REGISTRY_SPEEDUP_FLOOR {
                eprintln!(
                    "\nregistry gate FAILED: {} queries in {} groups, {:.2}x vs dedicated \
                     engines (floor {REGISTRY_SPEEDUP_FLOOR})",
                    r.queries,
                    r.group_count,
                    r.speedup()
                );
                failed = true;
            } else {
                println!(
                    "registry gate: {:.2}x vs dedicated engines, floor {REGISTRY_SPEEDUP_FLOOR}",
                    r.speedup()
                );
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measured cell of `engine` on GH/Tree churn.
    fn sample(engine: &'static str, sim_cycles: u64, matches: u64) -> Sample {
        Sample {
            dataset: "GH",
            class: "Tree",
            workload: "churn",
            engine,
            updates: 1_000,
            matches,
            wall_seconds: 1.0,
            sim_cycles,
            busy_cycles: 0,
            steals: 0,
            tasks: 0,
            tasks_completed: 0,
            scheduler_steps: 0,
            shared_scans: 0,
            block_splits: 0,
            batches: 1,
            shard: None,
        }
    }

    /// The baseline line `perf_suite` writes for `s`.
    fn baseline(s: &Sample) -> BaselineCell {
        BaselineCell {
            dataset: s.dataset.to_string(),
            class: s.class.to_string(),
            workload: s.workload.to_string(),
            engine: s.engine.to_string(),
            updates_per_sec: s.updates_per_sec(),
            sim_cycles: Some(s.sim_cycles as f64),
            matches: Some(s.matches as f64),
        }
    }

    #[test]
    fn the_gate_counts_the_cells_it_compared() {
        let run = [sample("GAMMA", 100, 7), sample("WBM", 200, 7)];
        let mut cells: Vec<BaselineCell> = run.iter().map(baseline).collect();
        cells.push(baseline(&sample("SHARD1", 300, 7)));
        // A narrowed replay skips the cell it did not measure, and does
        // not count it.
        let report = check_regressions(&run, &cells, true, false);
        assert!(report.violations.is_empty());
        assert_eq!((report.churn, report.sim_cycles, report.matches), (2, 2, 2));
        // Without the sim gate only churn throughput is compared.
        let report = check_regressions(&run, &cells, false, false);
        assert_eq!((report.churn, report.sim_cycles, report.matches), (2, 0, 0));
    }

    #[test]
    fn a_whole_replay_refuses_a_cell_it_did_not_measure() {
        let run = [sample("GAMMA", 100, 7), sample("WBM", 200, 7)];
        let mut cells: Vec<BaselineCell> = run.iter().map(baseline).collect();
        cells.push(baseline(&sample("SHARD1", 300, 7)));
        let report = check_regressions(&run, &cells, true, true);
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert!(v.msg.starts_with("GH/Tree/churn/SHARD1: "), "{}", v.msg);
        assert!(v.retry.is_none(), "a missing cell is not re-measured");
        assert_eq!((report.churn, report.sim_cycles, report.matches), (2, 2, 2));
        // Every cell measured: nothing to refuse.
        let all = [
            sample("GAMMA", 100, 7),
            sample("WBM", 200, 7),
            sample("SHARD1", 300, 7),
        ];
        let report = check_regressions(&all, &cells, true, true);
        assert!(report.violations.is_empty());
        assert_eq!((report.churn, report.sim_cycles, report.matches), (3, 3, 3));
    }

    #[test]
    fn deterministic_violations_are_not_retried() {
        let cells = [baseline(&sample("GAMMA", 100, 7))];
        let slow = Sample {
            wall_seconds: 10.0,
            ..sample("GAMMA", 111, 8)
        };
        let report = check_regressions(&[slow], &cells, true, true);
        let retries: Vec<Option<usize>> = report.violations.iter().map(|v| v.retry).collect();
        // Throughput (re-measured), sim-cycles 11% over, matches changed.
        assert_eq!(retries, [Some(0), None, None]);
    }
}
