//! Little-endian byte codec for the payloads durable files carry.
//!
//! Everything the durability layer persists — update batches, data graphs,
//! query graphs — round-trips through [`ByteWriter`]/[`ByteReader`]. The
//! encodings are positional (no field tags): the enclosing file's version
//! field governs compatibility, and decoders fail with
//! [`WalError::Truncated`] rather than reading past the payload.

use gamma_graph::{DynamicGraph, Op, QueryGraph, Update};

use crate::WalError;

/// Append-only byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The buffer itself, for an encoder that appends to a `Vec<u8>`
    /// (a GPMA store's snapshot, say) without an intermediate copy.
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Forward-only reader over an encoded payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.remaining() < n {
            return Err(WalError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WalError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WalError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WalError> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WalError> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WalError::Corrupt("non-UTF8 string".into()))
    }
}

// ---------------------------------------------------------------------------
// Update batches
// ---------------------------------------------------------------------------

/// Encodes a raw update sequence (order-preserving: canonicalization is
/// the *reader's* job, exactly as in the live path).
pub fn encode_updates(w: &mut ByteWriter, ups: &[Update]) {
    w.put_u32(ups.len() as u32);
    for u in ups {
        w.put_u8(match u.op {
            Op::Insert => 0,
            Op::Delete => 1,
        });
        w.put_u32(u.u);
        w.put_u32(u.v);
        w.put_u16(u.label);
    }
}

/// Decodes an update sequence written by [`encode_updates`].
pub fn decode_updates(r: &mut ByteReader<'_>) -> Result<Vec<Update>, WalError> {
    let n = r.get_u32()? as usize;
    // A record can't legitimately hold more updates than bytes.
    if n > r.remaining() {
        return Err(WalError::Corrupt(format!(
            "update count {n} exceeds payload"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let op = match r.get_u8()? {
            0 => Op::Insert,
            1 => Op::Delete,
            other => return Err(WalError::Corrupt(format!("unknown update op {other}"))),
        };
        let u = r.get_u32()?;
        let v = r.get_u32()?;
        let label = r.get_u16()?;
        out.push(Update { op, u, v, label });
    }
    Ok(out)
}

/// Convenience: one update sequence as a standalone payload.
pub fn updates_to_bytes(ups: &[Update]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_updates(&mut w, ups);
    w.into_bytes()
}

/// Inverse of [`updates_to_bytes`].
pub fn updates_from_bytes(bytes: &[u8]) -> Result<Vec<Update>, WalError> {
    let mut r = ByteReader::new(bytes);
    let ups = decode_updates(&mut r)?;
    if r.remaining() != 0 {
        return Err(WalError::Corrupt(
            "trailing bytes after update batch".into(),
        ));
    }
    Ok(ups)
}

// ---------------------------------------------------------------------------
// Graphs
// ---------------------------------------------------------------------------

/// Encodes a data graph: vertex labels, then the canonical edge list.
/// Rebuilding through sorted-adjacency insertion makes the round-trip
/// canonical — two graphs with equal vertex labels and edge sets decode to
/// byte-identical internal state regardless of original insertion order.
pub fn encode_graph(w: &mut ByteWriter, g: &DynamicGraph) {
    w.put_u32(g.num_vertices() as u32);
    for v in 0..g.num_vertices() as u32 {
        w.put_u16(g.label(v));
    }
    w.put_u32(g.num_edges() as u32);
    for (u, v, l) in g.edges() {
        w.put_u32(u);
        w.put_u32(v);
        w.put_u16(l);
    }
}

/// Decodes a graph written by [`encode_graph`].
pub fn decode_graph(r: &mut ByteReader<'_>) -> Result<DynamicGraph, WalError> {
    let n = r.get_u32()? as usize;
    if n > r.remaining() {
        return Err(WalError::Corrupt(format!(
            "vertex count {n} exceeds payload"
        )));
    }
    let mut g = DynamicGraph::with_vertices(n);
    for v in 0..n as u32 {
        g.set_label(v, r.get_u16()?);
    }
    let m = r.get_u32()? as usize;
    if m > r.remaining() {
        return Err(WalError::Corrupt(format!("edge count {m} exceeds payload")));
    }
    for _ in 0..m {
        let u = r.get_u32()?;
        let v = r.get_u32()?;
        let l = r.get_u16()?;
        if u as usize >= n || v as usize >= n {
            return Err(WalError::Corrupt(format!("edge ({u},{v}) out of range")));
        }
        if !g.insert_edge(u, v, l) {
            return Err(WalError::Corrupt(format!("duplicate edge ({u},{v})")));
        }
    }
    Ok(g)
}

/// Encodes a query graph: vertex labels + labeled edges.
pub fn encode_query(w: &mut ByteWriter, q: &QueryGraph) {
    w.put_u8(q.num_vertices() as u8);
    for &l in q.labels() {
        w.put_u16(l);
    }
    w.put_u8(q.num_edges() as u8);
    for e in q.edges() {
        w.put_u8(e.u);
        w.put_u8(e.v);
        w.put_u16(e.label);
    }
}

/// Decodes a query graph written by [`encode_query`].
pub fn decode_query(r: &mut ByteReader<'_>) -> Result<QueryGraph, WalError> {
    let n = r.get_u8()? as usize;
    let mut b = QueryGraph::builder();
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(b.vertex(r.get_u16()?));
    }
    let m = r.get_u8()? as usize;
    for _ in 0..m {
        let u = r.get_u8()? as usize;
        let v = r.get_u8()? as usize;
        let l = r.get_u16()?;
        if u >= n || v >= n {
            return Err(WalError::Corrupt(format!(
                "query edge ({u},{v}) out of range"
            )));
        }
        b.edge_labeled(ids[u], ids[v], l);
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gamma_graph::NO_ELABEL;

    #[test]
    fn updates_roundtrip() {
        let ups = vec![
            Update::insert(3, 9),
            Update::delete(9, 3),
            Update::insert_labeled(0, u32::MAX, 7),
        ];
        assert_eq!(updates_from_bytes(&updates_to_bytes(&ups)).unwrap(), ups);
    }

    #[test]
    fn graph_roundtrip_is_canonical() {
        let mut g1 = DynamicGraph::with_vertices(5);
        g1.set_label(2, 4);
        g1.insert_edge(0, 1, NO_ELABEL);
        g1.insert_edge(3, 2, 6);
        g1.insert_edge(1, 4, NO_ELABEL);

        let mut w = ByteWriter::new();
        encode_graph(&mut w, &g1);
        let bytes = w.into_bytes();
        let g2 = decode_graph(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(g2.num_vertices(), 5);
        assert_eq!(g2.num_edges(), 3);
        assert_eq!(g2.label(2), 4);
        assert_eq!(g2.edge_label(2, 3), Some(6));
        // Canonical: re-encoding the decoded graph is byte-identical.
        let mut w2 = ByteWriter::new();
        encode_graph(&mut w2, &g2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn query_roundtrip() {
        let mut b = QueryGraph::builder();
        let u0 = b.vertex(0);
        let u1 = b.vertex(1);
        let u2 = b.vertex(1);
        b.edge(u0, u1).edge_labeled(u1, u2, 3);
        let q = b.build();

        let mut w = ByteWriter::new();
        encode_query(&mut w, &q);
        let bytes = w.into_bytes();
        let q2 = decode_query(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = updates_to_bytes(&[Update::insert(1, 2); 4]);
        for cut in 0..bytes.len() {
            assert!(updates_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
