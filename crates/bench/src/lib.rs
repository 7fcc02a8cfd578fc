//! Shared experiment harness for the GAMMA reproduction.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§VI); this library holds the pieces they share:
//! parameter parsing, method runners (GAMMA variants + CSM baselines, both
//! under the paper's timeout/unsolved protocol) and tabular output.
//!
//! ## Latency semantics
//!
//! * **GAMMA** latency = simulated device seconds (GPMA update + kernel
//!   cycles at the configured clock) + measured host preprocessing: the
//!   device work runs on the deterministic SIMT simulator (`gamma-gpu`),
//!   whose cost model prices it in cycles, while preprocessing runs on the
//!   host in the paper too. The number therefore adds a simulated clock
//!   to a host clock.
//! * **Baselines** latency = host wall-clock of sequential application.
//!
//! Absolute values are not comparable to the paper's RTX-3090 testbed;
//! *orderings, ratios and trends* are the reproduction targets.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use gamma_core::{GammaConfig, GammaEngine, StealingMode};
use gamma_csm::{CsmEngine, GraphflowLite, IncIsoMatLite, RapidFlowLite, SymBiLite, TurboFluxLite};
use gamma_datasets::{generate_queries, DatasetPreset, QueryClass};
use gamma_graph::{DynamicGraph, QueryGraph, Update};

/// Harness-wide parameters, overridable on every binary's command line as
/// `--key=value` (e.g. `--scale=0.3 --queries=5 --timeout=10`).
#[derive(Clone, Debug)]
pub struct BenchParams {
    /// Dataset scale factor (1.0 = the presets' default size).
    pub scale: f64,
    /// Queries per (dataset, class) set.
    pub queries: usize,
    /// Query size |V(Q)|.
    pub query_size: usize,
    /// Insertion (batch) rate.
    pub insert_rate: f64,
    /// Per-query timeout in seconds (the paper's 30-minute rule, scaled).
    pub timeout: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenchParams {
    fn default() -> Self {
        Self {
            scale: 0.12,
            queries: 3,
            query_size: 6,
            insert_rate: 0.10,
            timeout: 3.0,
            seed: 42,
        }
    }
}

impl BenchParams {
    /// Parses `--key=value` arguments over the defaults.
    pub fn from_args() -> Self {
        let mut map: HashMap<String, String> = HashMap::new();
        for arg in std::env::args().skip(1) {
            if let Some(rest) = arg.strip_prefix("--") {
                if let Some((k, v)) = rest.split_once('=') {
                    map.insert(k.to_string(), v.to_string());
                } else if rest == "quick" {
                    map.insert("scale".into(), "0.06".into());
                    map.insert("queries".into(), "2".into());
                    map.insert("timeout".into(), "1.5".into());
                }
            }
        }
        let mut p = Self::default();
        if let Some(v) = map.get("scale") {
            p.scale = v.parse().expect("--scale");
        }
        if let Some(v) = map.get("queries") {
            p.queries = v.parse().expect("--queries");
        }
        if let Some(v) = map.get("size") {
            p.query_size = v.parse().expect("--size");
        }
        if let Some(v) = map.get("rate") {
            p.insert_rate = v.parse::<f64>().expect("--rate");
        }
        if let Some(v) = map.get("timeout") {
            p.timeout = v.parse().expect("--timeout");
        }
        if let Some(v) = map.get("seed") {
            p.seed = v.parse().expect("--seed");
        }
        p
    }
}

/// One method run on one (query, batch) instance.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// Reported latency in seconds (see module docs for semantics).
    pub latency: f64,
    /// Whether the run completed within the timeout.
    pub solved: bool,
    /// Incremental matches reported (positive + negative).
    pub matches: u64,
    /// GPU utilization (GAMMA only; 0 otherwise).
    pub utilization: f64,
    /// Steal count (GAMMA only).
    pub steals: u64,
}

/// A GAMMA engine variant for ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GammaVariant {
    /// Coalesced search on/off.
    pub coalesced: bool,
    /// Work stealing strategy.
    pub stealing: StealingMode,
}

impl GammaVariant {
    /// The full system (+cs +ws).
    pub const FULL: GammaVariant = GammaVariant {
        coalesced: true,
        stealing: StealingMode::Active,
    };
    /// Plain WBM.
    pub const WBM: GammaVariant = GammaVariant {
        coalesced: false,
        stealing: StealingMode::Off,
    };

    /// Engine config for this variant under the given timeout.
    pub fn config(&self, timeout: f64) -> GammaConfig {
        let mut cfg = GammaConfig::default();
        cfg.coalesced_search = self.coalesced;
        cfg.device.stealing = self.stealing;
        cfg.collect_matches = false;
        cfg.timeout = Some(Duration::from_secs_f64(timeout));
        cfg.match_limit = 50_000_000;
        cfg
    }
}

/// Runs a GAMMA variant on one instance. `g0` is the pre-batch graph.
pub fn run_gamma(
    g0: &DynamicGraph,
    q: &QueryGraph,
    batch: &[Update],
    variant: GammaVariant,
    timeout: f64,
) -> Run {
    let cfg = variant.config(timeout);
    let clock = cfg.device.clock_ghz;
    let mut engine = GammaEngine::new(g0.clone(), q, cfg);
    let r = engine.apply_batch(batch);
    Run {
        latency: r.stats.device_seconds(clock) + r.stats.preprocess_seconds,
        solved: !r.stats.timed_out,
        matches: r.positive_count + r.negative_count,
        utilization: r.stats.kernel.utilization(),
        steals: r.stats.kernel.steals,
    }
}

/// The baseline names in the order Table III prints them.
pub const BASELINES: [&str; 5] = ["IncIsoMat", "Graphflow", "TurboFlux", "SymBi", "RapidFlow"];

/// Instantiates a baseline by name.
pub fn make_baseline(name: &str, g: &DynamicGraph, q: &QueryGraph) -> Box<dyn CsmEngine> {
    match name {
        "IncIsoMat" => Box::new(IncIsoMatLite::new(g.clone(), q)),
        "Graphflow" => Box::new(GraphflowLite::new(g.clone(), q)),
        "TurboFlux" => Box::new(TurboFluxLite::new(g.clone(), q)),
        "SymBi" => Box::new(SymBiLite::new(g.clone(), q)),
        "RapidFlow" => Box::new(RapidFlowLite::new(g.clone(), q)),
        other => panic!("unknown baseline {other}"),
    }
}

/// Runs a named baseline sequentially over the batch under a deadline.
pub fn run_baseline(
    name: &str,
    g0: &DynamicGraph,
    q: &QueryGraph,
    batch: &[Update],
    timeout: f64,
) -> Run {
    let mut engine = make_baseline(name, g0, q);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(timeout);
    engine.set_deadline(Some(deadline));
    let mut matches = 0u64;
    let mut solved = true;
    for &up in batch {
        let r = engine.apply_update(up);
        matches += r.len() as u64;
        if Instant::now() >= deadline {
            solved = false;
            break;
        }
    }
    Run {
        latency: start.elapsed().as_secs_f64(),
        solved,
        matches,
        utilization: 0.0,
        steals: 0,
    }
}

/// Aggregates runs into the paper's cell format: average latency over
/// solved queries + unsolved count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cell {
    /// Sum of solved latencies.
    pub latency_sum: f64,
    /// Number of solved queries.
    pub solved: usize,
    /// Number of unsolved (timed-out) queries.
    pub unsolved: usize,
    /// Total matches across solved runs.
    pub matches: u64,
    /// Utilization sum over solved runs.
    pub util_sum: f64,
}

impl Cell {
    /// Absorbs one run.
    pub fn push(&mut self, r: Run) {
        if r.solved {
            self.latency_sum += r.latency;
            self.solved += 1;
            self.matches += r.matches;
            self.util_sum += r.utilization;
        } else {
            self.unsolved += 1;
        }
    }

    /// Average latency over solved runs (`None` if none solved).
    pub fn avg_latency(&self) -> Option<f64> {
        (self.solved > 0).then(|| self.latency_sum / self.solved as f64)
    }

    /// Paper-style cell text: `latency(unsolved)`.
    pub fn render(&self) -> String {
        match self.avg_latency() {
            Some(l) => {
                if self.unsolved > 0 {
                    format!("{}({})", fmt_secs(l), self.unsolved)
                } else {
                    fmt_secs(l)
                }
            }
            None => format!("timeout({})", self.unsolved),
        }
    }

    /// Average utilization over solved runs.
    pub fn avg_utilization(&self) -> f64 {
        if self.solved == 0 {
            0.0
        } else {
            self.util_sum / self.solved as f64
        }
    }
}

/// Human-readable seconds with three significant digits.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// The standard experiment instance: pre-batch graph, query set, batch.
pub struct Instance {
    /// Pre-batch graph (insertions removed).
    pub graph: DynamicGraph,
    /// The query set.
    pub queries: Vec<QueryGraph>,
    /// The update batch.
    pub batch: Vec<Update>,
}

/// Assembles an [`Instance`] for `(preset, class)` under `params`.
pub fn build_instance(preset: DatasetPreset, class: QueryClass, params: &BenchParams) -> Instance {
    let d = preset.build(params.scale, params.seed);
    let queries = generate_queries(
        &d.graph,
        class,
        params.query_size,
        params.queries,
        params.seed ^ 0xabcd,
    );
    let mut graph = d.graph;
    let batch = gamma_datasets::split_insertion_workload(
        &mut graph,
        params.insert_rate,
        params.seed ^ 0x5eed,
    );
    Instance {
        graph,
        queries,
        batch,
    }
}

/// Prints a markdown table row.
pub fn print_row(cols: &[String]) {
    println!("| {} |", cols.join(" | "));
}

/// Prints a markdown table header (with separator).
pub fn print_header(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}
