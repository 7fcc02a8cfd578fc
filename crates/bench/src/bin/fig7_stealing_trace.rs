//! Figures 6–7: the skewed-star illustration — per-warp workloads before
//! and after work stealing on the two-insertion star workload.
//!
//! `cargo run --release -p gamma-bench --bin fig7_stealing_trace`

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

use gamma_core::{wbm, GammaConfig, IncrementalEncoder};
use gamma_datasets::skewed_star_workload;
use gamma_gpma::{Gpma, GpmaConfig};
use gamma_gpu::{run_block, DeviceConfig, Stealing};
use gamma_graph::UpdateBatch;

fn main() {
    // v0 has 3 spokes, v1 has 120: the Figure 6 shape.
    let (g, ups, q) = skewed_star_workload(3, 120);
    println!("# Figures 6–7 — skewed workloads and warp-level work stealing\n");
    println!(
        "star graph: v0 degree {}, v1 degree {}; both updates attach the same bridge vertex\n",
        g.degree(0),
        g.degree(1)
    );

    // Build one block with the two warp tasks by hand so per-warp clocks
    // are observable.
    let mut g2 = g.clone();
    UpdateBatch::canonicalize(&g, &ups).apply(&mut g2);
    let batch = UpdateBatch::canonicalize(&g, &ups);
    let (enc, table) = IncrementalEncoder::build(&g2, &q, 2);
    let cfg = GammaConfig::default();
    let meta = Arc::new(wbm::QueryMeta::build(
        &q,
        &table,
        enc.scheme(),
        cfg.coalesced_search,
        cfg.max_degenerate_k,
    ));

    for (label, stealing) in [
        ("before work stealing", Stealing::Off),
        ("after work stealing", Stealing::Active),
    ] {
        let gpma = Gpma::from_graph(&g2, GpmaConfig::default());
        let shared = wbm::KernelShared {
            gpma: Arc::new(gpma),
            meta: Arc::clone(&meta),
            table: table.clone(),
            encodings: Arc::clone(&enc.encodings),
            update_order: wbm::build_update_order(&batch.inserts),
            sink: Mutex::new(Vec::new()),
            match_count: std::sync::atomic::AtomicU64::new(0),
            collect: false,
            abort: Arc::new(AtomicBool::new(false)),
            deadline: None,
            match_limit: u64::MAX,
            signatures: true,
            residency: None,
        };
        let tasks = batch
            .inserts
            .iter()
            .enumerate()
            .map(|(i, a)| wbm::WbmTask::new(&shared, a, i as u32))
            .collect();
        let dev_cfg = DeviceConfig {
            stealing,
            ..DeviceConfig::single_sm()
        };
        let (s, warp_busy) = run_block(&shared, tasks, &dev_cfg);
        println!("## {label}\n");
        println!(
            "block makespan: {} cycles; steals: {}; utilization {:.1}%",
            s.device_cycles,
            s.steals,
            s.utilization() * 100.0
        );
        for (i, &busy) in warp_busy.iter().enumerate() {
            let bar = "#".repeat(((busy as f64 / s.device_cycles as f64) * 50.0) as usize);
            println!("  warp {i}: busy {busy:>9} cycles |{bar}");
        }
        println!();
    }
    println!("warp 0 carries the small star, warp 1 the large one; active stealing");
    println!("moves half of warp 1's unexplored candidates to warp 0 (Figure 7(b)).");
}
