//! Neighborhood-label-frequency (NLF) bit encoding and the candidate table
//! (§IV-B, Figure 4).
//!
//! Each data vertex gets a `K`-bit code: the first `N` bits one-hot encode
//! the vertex label; the remaining bits hold, per query label, an `M`-bit
//! **thermometer** (unary, saturating) counter of neighbors with that
//! label. Thermometer coding is what makes GSI's candidate test a single
//! bitwise AND: `ENC(u) & ENC(v) == ENC(u)` holds iff `v` has `u`'s label
//! and `min(cnt_v, sat) ≥ min(cnt_u, sat)` for every encoded label.
//!
//! Following the paper's refinement of GSI, only labels that actually occur
//! in the query graph are encoded (so codes for ≤16-vertex queries always
//! fit one `u64`), and a batch only re-encodes *dirty* vertices — those
//! whose saturating counters actually changed — before refreshing their
//! candidate-table rows.

use std::sync::Arc;

use gamma_graph::{DynamicGraph, QueryGraph, VLabel, VertexId};

/// The per-query encoding layout: which labels are encoded and how wide the
/// counters are.
#[derive(Clone, Debug)]
pub struct EncodingScheme {
    /// Sorted distinct labels of the query graph.
    labels: Vec<VLabel>,
    /// Counter width `M` in bits; counters saturate at `M` (thermometer).
    counter_bits: u32,
}

impl EncodingScheme {
    /// Builds the layout for a query. `counter_bits` is the paper's `M`
    /// (2 in Figure 4).
    pub fn new(q: &QueryGraph, counter_bits: u32) -> Self {
        assert!((1..=8).contains(&counter_bits));
        let mut labels: Vec<VLabel> = q.labels().to_vec();
        labels.sort_unstable();
        labels.dedup();
        let total_bits = labels.len() as u32 * (1 + counter_bits);
        assert!(
            total_bits <= 64,
            "encoding exceeds 64 bits: {} labels x {} bits",
            labels.len(),
            1 + counter_bits
        );
        Self {
            labels,
            counter_bits,
        }
    }

    /// Number of encoded labels.
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// The sorted distinct labels this layout encodes. Two queries with
    /// equal label sets (and equal `counter_bits`) share a layout, so their
    /// data-vertex encodings are interchangeable — the precondition for
    /// sharing one [`IncrementalEncoder`] across registered queries.
    pub fn labels(&self) -> &[VLabel] {
        &self.labels
    }

    /// Counter width `M` of this layout.
    pub fn counter_bits(&self) -> u32 {
        self.counter_bits
    }

    /// Saturation point of the counters (`2^M - 1` values collapse to `M`
    /// ones in thermometer code, i.e. counts ≥ `M` are indistinguishable).
    pub fn saturation(&self) -> u32 {
        self.counter_bits
    }

    /// Thermometer bits for a count: `min(count, M)` ones.
    #[inline]
    fn thermometer(&self, count: u32) -> u64 {
        let c = count.min(self.counter_bits);
        (1u64 << c) - 1
    }

    /// Encodes an arbitrary vertex given its label and a per-label neighbor
    /// counter callback.
    fn encode_with(&self, label: VLabel, mut count_of: impl FnMut(VLabel) -> u32) -> u64 {
        let mut code = 0u64;
        let m = self.counter_bits;
        for (i, &l) in self.labels.iter().enumerate() {
            let base = i as u32 * (1 + m);
            if l == label {
                code |= 1u64 << base;
            }
            code |= self.thermometer(count_of(l)) << (base + 1);
        }
        code
    }

    /// Encodes data vertex `v` of `g`.
    pub fn encode_data_vertex(&self, g: &DynamicGraph, v: VertexId) -> u64 {
        self.encode_with(g.label(v), |l| g.nl_count(v, l) as u32)
    }

    /// Encodes query vertex `u` of `q`.
    pub fn encode_query_vertex(&self, q: &QueryGraph, u: u8) -> u64 {
        self.encode_with(q.label(u), |l| q.nl_count(u, l) as u32)
    }

    /// The GSI test: is a vertex with code `vcode` a candidate for a query
    /// vertex with code `ucode`?
    #[inline]
    pub fn is_candidate(ucode: u64, vcode: u64) -> bool {
        ucode & vcode == ucode
    }
}

/// The candidate table: one bitmask row per data vertex, bit `u` set iff
/// the vertex is a candidate for query vertex `u` (Figure 4, right).
#[derive(Clone, Debug)]
pub struct CandidateTable {
    rows: Vec<u16>,
    /// Per-query-vertex candidate population (used by matching-order
    /// selectivity heuristics).
    counts: Vec<u32>,
}

impl CandidateTable {
    /// Builds the full table (initialization phase: all vertices encoded).
    pub fn build(g: &DynamicGraph, q: &QueryGraph, scheme: &EncodingScheme) -> (Self, Vec<u64>) {
        let qcodes: Vec<u64> = (0..q.num_vertices() as u8)
            .map(|u| scheme.encode_query_vertex(q, u))
            .collect();
        let mut encodings = Vec::with_capacity(g.num_vertices());
        let mut rows = Vec::with_capacity(g.num_vertices());
        let mut counts = vec![0u32; q.num_vertices()];
        for v in 0..g.num_vertices() as VertexId {
            let vcode = scheme.encode_data_vertex(g, v);
            encodings.push(vcode);
            let row = Self::row_for(vcode, &qcodes);
            for u in 0..q.num_vertices() {
                counts[u] += u32::from(row & (1 << u) != 0);
            }
            rows.push(row);
        }
        (Self { rows, counts }, encodings)
    }

    /// Builds the table for a query from *already-maintained* data-vertex
    /// encodings (a shared [`IncrementalEncoder`]'s), instead of re-encoding
    /// the graph: row `v` = candidate bits of `encodings[v]` against
    /// `qcodes`. Equal to [`CandidateTable::build`] whenever `encodings`
    /// matches the graph state, which the incremental re-encoding invariant
    /// guarantees.
    pub fn from_encodings(encodings: &[u64], qcodes: &[u64]) -> Self {
        let mut rows = Vec::with_capacity(encodings.len());
        let mut counts = vec![0u32; qcodes.len()];
        for &vcode in encodings {
            let row = Self::row_for(vcode, qcodes);
            for (u, c) in counts.iter_mut().enumerate() {
                *c += u32::from(row & (1 << u) != 0);
            }
            rows.push(row);
        }
        Self { rows, counts }
    }

    fn row_for(vcode: u64, qcodes: &[u64]) -> u16 {
        let mut row = 0u16;
        for (u, &uc) in qcodes.iter().enumerate() {
            if EncodingScheme::is_candidate(uc, vcode) {
                row |= 1 << u;
            }
        }
        row
    }

    /// Whether data vertex `v` is a candidate for query vertex `u`.
    #[inline]
    pub fn is_candidate(&self, v: VertexId, u: u8) -> bool {
        self.rows
            .get(v as usize)
            .is_some_and(|&r| r & (1 << u) != 0)
    }

    /// Candidate-set size of query vertex `u`.
    pub fn count(&self, u: u8) -> u32 {
        self.counts[u as usize]
    }

    /// Raw row for `v`.
    #[inline]
    pub fn row(&self, v: VertexId) -> u16 {
        self.rows[v as usize]
    }

    /// Refreshes the rows of `dirty` vertices after their encodings
    /// changed; returns how many rows actually changed.
    pub fn refresh(&mut self, dirty: &[VertexId], encodings: &[u64], qcodes: &[u64]) -> usize {
        let mut changed = 0;
        for &v in dirty {
            if v as usize >= self.rows.len() {
                self.rows.resize(v as usize + 1, 0);
            }
            let new_row = Self::row_for(encodings[v as usize], qcodes);
            let old_row = self.rows[v as usize];
            if new_row != old_row {
                for u in 0..self.counts.len() {
                    let ob = old_row & (1 << u) != 0;
                    let nb = new_row & (1 << u) != 0;
                    match (ob, nb) {
                        (false, true) => self.counts[u] += 1,
                        (true, false) => self.counts[u] -= 1,
                        _ => {}
                    }
                }
                self.rows[v as usize] = new_row;
                changed += 1;
            }
        }
        changed
    }
}

/// The incremental encoder: holds per-vertex codes and refreshes only
/// vertices touched by a batch ("we load only the vertices with modified
/// encodings", §IV-B).
#[derive(Clone, Debug)]
pub struct IncrementalEncoder {
    scheme: EncodingScheme,
    /// Query-vertex codes (fixed per query).
    pub qcodes: Vec<u64>,
    /// Data-vertex codes, index = vertex id. Held behind an `Arc` so
    /// kernel launches share the table without an O(|V|) copy per phase;
    /// [`IncrementalEncoder::reencode`] copies-on-write only when a batch
    /// actually dirties codes (and between batches the launch's reference
    /// is already gone, so even that clone is almost always elided).
    pub encodings: Arc<Vec<u64>>,
}

impl IncrementalEncoder {
    /// Initializes encoder + candidate table for `(g, q)`.
    pub fn build(g: &DynamicGraph, q: &QueryGraph, counter_bits: u32) -> (Self, CandidateTable) {
        let scheme = EncodingScheme::new(q, counter_bits);
        let (table, encodings) = CandidateTable::build(g, q, &scheme);
        let qcodes = (0..q.num_vertices() as u8)
            .map(|u| scheme.encode_query_vertex(q, u))
            .collect();
        (
            Self {
                scheme,
                qcodes,
                encodings: Arc::new(encodings),
            },
            table,
        )
    }

    /// The layout in use.
    pub fn scheme(&self) -> &EncodingScheme {
        &self.scheme
    }

    /// Re-encodes `touched` vertices against the *current* state of `g`
    /// (call after applying a batch to the host mirror). Returns the subset
    /// whose code actually changed — the "dirty" vertices whose candidate
    /// rows must be refreshed and shipped to the device.
    pub fn reencode(&mut self, g: &DynamicGraph, touched: &[VertexId]) -> Vec<VertexId> {
        // Diff against the shared snapshot first: an all-clean batch must
        // not clone the (potentially shared) table at all.
        let mut dirty = Vec::new();
        let mut changes: Vec<(usize, u64)> = Vec::new();
        let mut need_len = self.encodings.len();
        for &v in touched {
            let vi = v as usize;
            need_len = need_len.max(vi + 1);
            let new_code = self.scheme.encode_data_vertex(g, v);
            if self.encodings.get(vi).copied().unwrap_or(0) != new_code {
                changes.push((vi, new_code));
                dirty.push(v);
            }
        }
        if !changes.is_empty() || need_len > self.encodings.len() {
            let enc = Arc::make_mut(&mut self.encodings);
            if need_len > enc.len() {
                enc.resize(need_len, 0);
            }
            for (vi, code) in changes {
                enc[vi] = code;
            }
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamma_graph::NO_ELABEL;

    /// Figure 1's query (labels A=0, B=1, C=2).
    fn fig1_query() -> QueryGraph {
        let mut b = QueryGraph::builder();
        let u0 = b.vertex(0);
        let u1 = b.vertex(1);
        let u2 = b.vertex(1);
        let u3 = b.vertex(2);
        b.edge(u0, u1).edge(u0, u2).edge(u1, u2).edge(u1, u3);
        b.build()
    }

    fn small_graph() -> DynamicGraph {
        // v0(A) - v1(B), v0 - v2(B), v1 - v2, v1 - v3(C), v4(A) isolated-ish
        let mut g = DynamicGraph::new();
        for &l in &[0u16, 1, 1, 2, 0] {
            g.add_vertex(l);
        }
        for &(u, v) in &[(0, 1), (0, 2), (1, 2), (1, 3)] {
            g.insert_edge(u, v, NO_ELABEL);
        }
        g
    }

    #[test]
    fn thermometer_and_test_is_nlf() {
        let q = fig1_query();
        let scheme = EncodingScheme::new(&q, 2);
        assert_eq!(scheme.num_labels(), 3);
        let g = small_graph();
        // v1 (B, neighbors A,B,C) must be a candidate for u1 (B, nbrs A,B,C).
        let u1 = scheme.encode_query_vertex(&q, 1);
        let v1 = scheme.encode_data_vertex(&g, 1);
        assert!(EncodingScheme::is_candidate(u1, v1));
        // v2 (B, neighbors A,B) must NOT be a candidate for u1 (needs C).
        let v2 = scheme.encode_data_vertex(&g, 2);
        assert!(!EncodingScheme::is_candidate(u1, v2));
        // ... but is a candidate for u2 (B, nbrs A,B).
        let u2 = scheme.encode_query_vertex(&q, 2);
        assert!(EncodingScheme::is_candidate(u2, v2));
        // v4 (A, no neighbors) is not a candidate for u0 (A, two B nbrs).
        let u0 = scheme.encode_query_vertex(&q, 0);
        let v4 = scheme.encode_data_vertex(&g, 4);
        assert!(!EncodingScheme::is_candidate(u0, v4));
    }

    #[test]
    fn saturation_is_a_sound_overapproximation() {
        // A query vertex needing 3 same-label neighbors saturates at M=2,
        // so a data vertex with only 2 still passes (weaker filter, never
        // wrongly prunes).
        let mut bq = QueryGraph::builder();
        let hub = bq.vertex(0);
        for _ in 0..3 {
            let s = bq.vertex(1);
            bq.edge(hub, s);
        }
        let q = bq.build();
        let scheme = EncodingScheme::new(&q, 2);
        let mut g = DynamicGraph::new();
        let h = g.add_vertex(0);
        for _ in 0..2 {
            let s = g.add_vertex(1);
            g.insert_edge(h, s, NO_ELABEL);
        }
        let uh = scheme.encode_query_vertex(&q, hub);
        let vh = scheme.encode_data_vertex(&g, h);
        assert!(
            EncodingScheme::is_candidate(uh, vh),
            "saturating filter must not prune"
        );
        // With M=3 the filter becomes exact and prunes.
        let scheme3 = EncodingScheme::new(&q, 3);
        let uh3 = scheme3.encode_query_vertex(&q, hub);
        let vh3 = scheme3.encode_data_vertex(&g, h);
        assert!(!EncodingScheme::is_candidate(uh3, vh3));
    }

    #[test]
    fn candidate_table_counts() {
        let q = fig1_query();
        let g = small_graph();
        let (_enc, table) = IncrementalEncoder::build(&g, &q, 2);
        // u0 (A with 2 B-neighbors): only v0 qualifies.
        assert!(table.is_candidate(0, 0));
        assert!(!table.is_candidate(4, 0));
        assert_eq!(table.count(0), 1);
        // u3 (C with a B-neighbor): v3.
        assert!(table.is_candidate(3, 3));
        assert_eq!(table.count(3), 1);
    }

    #[test]
    fn incremental_reencode_flags_only_changed() {
        let q = fig1_query();
        let mut g = small_graph();
        let (mut enc, mut table) = IncrementalEncoder::build(&g, &q, 2);
        // Insert (v4, v1): v4 gains a B neighbor; v1 gains an A neighbor
        // but was already at A-count 1 -> code changes only via count 1->2
        // ... which saturates at 2 so it does change (1 -> 2 both below M).
        g.insert_edge(4, 1, NO_ELABEL);
        let dirty = enc.reencode(&g, &[4, 1]);
        assert!(dirty.contains(&4));
        let changed = table.refresh(&dirty, &enc.encodings, &enc.qcodes);
        // v4 (A, one B-neighbor) still lacks the 2 B-neighbors u0 needs.
        assert!(!table.is_candidate(4, 0));
        let _ = changed;
        // Insert another B neighbor for v4: now it becomes a candidate.
        let b_new = g.add_vertex(1);
        g.insert_edge(4, b_new, NO_ELABEL);
        let dirty = enc.reencode(&g, &[4, b_new]);
        assert!(dirty.contains(&4));
        table.refresh(&dirty, &enc.encodings, &enc.qcodes);
        assert!(table.is_candidate(4, 0));
        assert_eq!(table.count(0), 2);
    }

    #[test]
    fn saturated_vertex_not_dirty() {
        // Figure 4's observation: v0's encoding stays unchanged after
        // gaining a 4th same-label neighbor because the 2-bit counter is
        // already saturated.
        let q = fig1_query();
        let mut g = DynamicGraph::new();
        let v0 = g.add_vertex(0);
        for _ in 0..3 {
            let b = g.add_vertex(1);
            g.insert_edge(v0, b, NO_ELABEL);
        }
        let (mut enc, _t) = IncrementalEncoder::build(&g, &q, 2);
        let b4 = g.add_vertex(1);
        g.insert_edge(v0, b4, NO_ELABEL);
        let dirty = enc.reencode(&g, &[v0, b4]);
        assert!(!dirty.contains(&v0), "saturated counter must not dirty v0");
        assert!(dirty.contains(&b4));
    }

    #[test]
    fn refresh_keeps_counts_consistent() {
        let q = fig1_query();
        let mut g = small_graph();
        let (mut enc, mut table) = IncrementalEncoder::build(&g, &q, 2);
        // Delete (v1, v3): v1 loses its C neighbor; v1 leaves C(u1).
        assert!(table.is_candidate(1, 1));
        let before = table.count(1);
        g.delete_edge(1, 3);
        let dirty = enc.reencode(&g, &[1, 3]);
        table.refresh(&dirty, &enc.encodings, &enc.qcodes);
        assert!(!table.is_candidate(1, 1));
        assert_eq!(table.count(1), before - 1);
    }

    #[test]
    fn labels_absent_from_query_are_not_encoded() {
        let q = fig1_query(); // labels {0,1,2}
        let scheme = EncodingScheme::new(&q, 2);
        let mut g = DynamicGraph::new();
        let v = g.add_vertex(0);
        let exotic = g.add_vertex(77); // label not in query
        g.insert_edge(v, exotic, NO_ELABEL);
        // The exotic neighbor contributes to no encoded counter.
        let code_with = scheme.encode_data_vertex(&g, v);
        let mut g2 = DynamicGraph::new();
        g2.add_vertex(0);
        let code_without = scheme.encode_data_vertex(&g2, 0);
        assert_eq!(code_with, code_without);
    }
}
