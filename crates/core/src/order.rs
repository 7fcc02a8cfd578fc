//! Per-query-edge matching orders (§IV-C).
//!
//! "The matching order guides the order in which query vertices are
//! matched, and we generate it for each query edge offline. The matching
//! order tends to prioritize the more selective query vertices, such as
//! those with higher degrees and fewer candidates."

use gamma_graph::QueryGraph;

use crate::encoding::CandidateTable;

/// Builds the matching order for a seed query edge `(a, b)`: the order
/// starts `[a, b]` and then greedily appends the unplaced vertex with
/// (1) the most already-placed neighbors (connectivity, mandatory ≥ 1),
/// (2) the smallest candidate set, (3) the highest degree.
///
/// `restrict` optionally limits the *first* phase of the order to a vertex
/// subset (bitmask): all restricted vertices are placed before any vertex
/// outside the mask — this is how coalesced search explores a
/// k-degenerated automorphic subgraph `V^k` before the removed set `R^k`.
pub fn matching_order(
    q: &QueryGraph,
    a: u8,
    b: u8,
    table: &CandidateTable,
    restrict: Option<u16>,
) -> Vec<u8> {
    let n = q.num_vertices();
    debug_assert!(q.has_edge(a, b));
    let mut order = Vec::with_capacity(n);
    let mut placed: u16 = 0;
    order.push(a);
    placed |= 1 << a;
    order.push(b);
    placed |= 1 << b;

    let full: u16 = if n >= 16 { u16::MAX } else { (1 << n) - 1 };
    let phases: [u16; 2] = match restrict {
        Some(mask) => [mask, full],
        None => [full, full],
    };

    for phase_mask in phases {
        loop {
            let next = (0..n as u8)
                .filter(|&u| placed & (1 << u) == 0 && phase_mask & (1 << u) != 0)
                .filter(|&u| q.adj_mask(u) & placed != 0)
                .max_by_key(|&u| {
                    let back = (q.adj_mask(u) & placed).count_ones();
                    // Fewer candidates = more selective = earlier.
                    let selectivity = u32::MAX - table.count(u);
                    (back, selectivity, q.degree(u), usize::MAX - u as usize)
                });
            match next {
                Some(u) => {
                    order.push(u);
                    placed |= 1 << u;
                }
                None => break,
            }
        }
    }
    debug_assert_eq!(order.len(), n, "query must be connected");
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::IncrementalEncoder;
    use gamma_graph::{DynamicGraph, NO_ELABEL};

    fn fig1() -> (DynamicGraph, QueryGraph) {
        let mut g = DynamicGraph::new();
        for &l in &[0u16, 0, 1, 1, 1, 1, 1, 2, 2, 2] {
            g.add_vertex(l);
        }
        for &(u, v) in &[
            (0, 3),
            (0, 4),
            (2, 3),
            (2, 4),
            (3, 7),
            (2, 8),
            (1, 5),
            (1, 6),
            (5, 6),
            (5, 9),
            (4, 7),
        ] {
            g.insert_edge(u, v, NO_ELABEL);
        }
        let mut b = QueryGraph::builder();
        let u0 = b.vertex(0);
        let u1 = b.vertex(1);
        let u2 = b.vertex(1);
        let u3 = b.vertex(2);
        b.edge(u0, u1).edge(u0, u2).edge(u1, u2).edge(u1, u3);
        (g, b.build())
    }

    #[test]
    fn order_starts_with_seed_edge() {
        let (g, q) = fig1();
        let (_e, table) = IncrementalEncoder::build(&g, &q, 2);
        for e in q.edges() {
            let ord = matching_order(&q, e.u, e.v, &table, None);
            assert_eq!(&ord[..2], &[e.u, e.v]);
            assert_eq!(ord.len(), 4);
            let mut sorted = ord.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn every_vertex_has_backward_neighbor() {
        let (g, q) = fig1();
        let (_e, table) = IncrementalEncoder::build(&g, &q, 2);
        let ord = matching_order(&q, 0, 1, &table, None);
        let mut placed: u16 = 1 << ord[0];
        for &u in &ord[1..] {
            assert_ne!(q.adj_mask(u) & placed, 0);
            placed |= 1 << u;
        }
    }

    #[test]
    fn restricted_phase_comes_first() {
        let (g, q) = fig1();
        let (_e, table) = IncrementalEncoder::build(&g, &q, 2);
        // Restrict to the triangle {u0, u1, u2}; u3 must come last.
        let ord = matching_order(&q, 0, 1, &table, Some(0b0111));
        assert_eq!(ord[3], 3);
        assert_eq!(&ord[..2], &[0, 1]);
    }

    #[test]
    fn selectivity_tie_break_prefers_rare_candidates() {
        // Query path x(A) - y(B) - z(B); data graph with many B vertices
        // matching z but only one with the full u1-like context.
        let mut g = DynamicGraph::new();
        let a = g.add_vertex(0);
        for i in 0..6 {
            let b = g.add_vertex(1);
            if i == 0 {
                g.insert_edge(a, b, NO_ELABEL);
            }
        }
        let mut bq = QueryGraph::builder();
        let x = bq.vertex(0);
        let y = bq.vertex(1);
        let z = bq.vertex(1);
        bq.edge(x, y).edge(y, z);
        let q = bq.build();
        let (_e, table) = IncrementalEncoder::build(&g, &q, 2);
        // From edge (y, z): next vertex is x (only option).
        let ord = matching_order(&q, y, z, &table, None);
        assert_eq!(ord, vec![1, 2, 0]);
    }
}
