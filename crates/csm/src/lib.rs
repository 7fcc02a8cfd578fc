//! # gamma-csm — CPU continuous-subgraph-matching baselines
//!
//! The paper compares GAMMA against four sequential CPU systems:
//! TurboFlux (SIGMOD'18), SymBi (PVLDB'21), RapidFlow (PVLDB'22) and CaLig
//! (PACMMOD'23), plus the classical IncIsoMat and Graphflow lineages. This
//! crate implements from-scratch engines in their *algorithmic spirit* —
//! what each one indexes and what it recomputes per update — behind one
//! [`CsmEngine`] trait, to serve as the Table-III baselines:
//!
//! * [`IncIsoMatLite`] — re-enumerates the affected r-hop region before and
//!   after each update and diffs (the expensive strawman).
//! * [`GraphflowLite`] — no index: maps the updated edge onto each
//!   compatible query edge and extends by joining one query vertex at a
//!   time.
//! * [`TurboFluxLite`] — maintains an incremental data-centric candidate
//!   index (NLF-based vertex→query-vertex bitmap) that prunes extensions.
//! * [`SymBiLite`] — maintains a rooted query DAG with top-down/bottom-up
//!   dynamic-candidate flags (weak embeddings) updated per edge event.
//! * [`RapidFlowLite`] — query reduction (degree-1 vertices stripped and
//!   joined back at the end) on top of the candidate index; the strongest
//!   CPU baseline, as in the paper.
//!
//! All engines process updates **one at a time, sequentially** — the
//! defining contrast with GAMMA's batch-parallel processing (Example 1).
//!
//! Each engine's module docs state what it keeps of the original system
//! and what it leaves out; every engine is validated against the
//! snapshot-diff oracle in this crate's tests.

pub mod common;
pub mod graphflow;
pub mod inciso;
pub mod rapidflow;
pub mod symbi;
pub mod turboflux;

pub use common::{CsmEngine, IncrementalResult};
pub use graphflow::GraphflowLite;
pub use inciso::IncIsoMatLite;
pub use rapidflow::RapidFlowLite;
pub use symbi::SymBiLite;
pub use turboflux::TurboFluxLite;

use gamma_graph::{DynamicGraph, QueryGraph};

/// Instantiates every baseline for a `(G, Q)` pair (bench convenience).
pub fn all_baselines(g: &DynamicGraph, q: &QueryGraph) -> Vec<Box<dyn CsmEngine>> {
    vec![
        Box::new(IncIsoMatLite::new(g.clone(), q)),
        Box::new(GraphflowLite::new(g.clone(), q)),
        Box::new(TurboFluxLite::new(g.clone(), q)),
        Box::new(SymBiLite::new(g.clone(), q)),
        Box::new(RapidFlowLite::new(g.clone(), q)),
    ]
}
