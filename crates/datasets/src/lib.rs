//! # gamma-datasets — workload generation for the GAMMA reproduction
//!
//! The paper evaluates on six public datasets (GitHub, Skitter, Amazon,
//! LiveJournal, Netflow, LSBench; Table II). Those graphs are not shipped
//! here; instead this crate generates **seeded synthetic graphs with the
//! same shape parameters** — |V|:|E| ratio, average degree, vertex/edge
//! label alphabet sizes and power-law degree skew — scaled down to sizes a
//! laptop handles in seconds. The label alphabets and average degree are
//! what decide candidate-set sizes and scan lengths, so they are kept
//! exactly, while `|V|` scales ([`DatasetPreset`] lists the paper's values
//! beside what each preset keeps).
//!
//! It also reproduces the paper's workload machinery:
//!
//! * query generation by random-walk extraction of subgraphs from the data
//!   graph, classified Dense / Sparse / Tree exactly as in §VI-A;
//! * update streams: an insertion batch is produced by *removing* a random
//!   `Ir`% of edges from the generated graph (so inserted edges are
//!   distributionally real edges) and replaying them; deletions sample live
//!   edges; mixed workloads use the paper's 2:1 insert:delete ratio;
//! * k-core-targeted sampling for the Figure-10 density experiment;
//! * the skewed star workload of Figure 6 that motivates work stealing.

pub mod presets;
pub mod queries;
pub mod synth;
pub mod updates;
pub mod zipf;

pub use presets::{Dataset, DatasetPreset};
pub use queries::{generate_queries, generate_query, QueryClass};
pub use synth::{generate_graph, SynthSpec};
pub use updates::{
    kcore_insertion_workload, mixed_workload, route_updates_by_owner, sample_deletion_workload,
    skewed_star_workload, split_insertion_workload,
};
pub use zipf::Zipf;
