//! The edge-set codec: the checkpoint payload of the durability
//! subsystem.
//!
//! An ESDX file (see [`super::persist`]) is not enough to *recover*
//! a serving process: the index only stores edges with a positive score,
//! while maintenance needs the complete graph. Checkpoints therefore
//! persist the **edge set** as an [`EdgeSetSnapshot`], keyed by
//! publication epoch at the envelope layer (`esd-durability` owns file
//! placement, CRC framing, and discovery; this module owns the payload
//! bytes and their structural validation). The module keeps the name
//! `delta` from when it also held an incremental payload; the path
//! `esd_core::index::delta::EdgeSetSnapshot` is public.
//!
//! Format, little-endian like ESDX, FNV-1a-checksummed like ESDX:
//!
//! ```text
//! full : magic "ESDF" | u32 version | u32 n | u64 m | m edges | u64 fnv1a
//! edge : u32 u | u32 v      (canonical u < v, strictly ascending list)
//! ```
//!
//! Decoding validates everything (magic, version, ordering, canonical
//! form, bounds, checksum) so a corrupted checkpoint payload is rejected
//! with a typed [`EdgeSetError`] instead of materialising a garbage graph.

use esd_graph::{Edge, Graph};

const FULL_MAGIC: &[u8; 4] = b"ESDF";
const VERSION: u32 = 1;

/// Errors raised when decoding a checkpoint payload.
#[derive(Debug, PartialEq, Eq)]
pub enum EdgeSetError {
    /// Not the expected payload kind.
    BadMagic,
    /// Produced by an incompatible library version.
    BadVersion(u32),
    /// Structurally invalid (truncation, ordering, non-canonical edge).
    Corrupt(&'static str),
    /// Checksum mismatch.
    ChecksumMismatch,
}

impl std::fmt::Display for EdgeSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeSetError::BadMagic => write!(f, "not an ESDX edge-set payload"),
            EdgeSetError::BadVersion(v) => write!(f, "unsupported edge-set payload version {v}"),
            EdgeSetError::Corrupt(what) => write!(f, "corrupt edge-set payload: {what}"),
            EdgeSetError::ChecksumMismatch => write!(f, "edge-set payload checksum mismatch"),
        }
    }
}

impl std::error::Error for EdgeSetError {}

/// Streaming FNV-1a over the encoded bytes (same parameters as
/// [`super::persist`]).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// A complete edge set at one publication epoch: the payload of a **full**
/// checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSetSnapshot {
    /// Number of vertices (edges are bounded by it).
    pub num_vertices: u32,
    /// Canonical (`u < v`), strictly ascending edge list.
    pub edges: Vec<Edge>,
}

/// `true` when `edges` is strictly ascending, canonical, and in-bounds.
fn edges_valid(edges: &[Edge], n: u32) -> bool {
    edges.windows(2).all(|w| w[0] < w[1])
        && edges
            .iter()
            .all(|e| e.u < e.v && u64::from(e.v) < u64::from(n).max(1))
}

/// A cursor over the payload bytes that hashes everything it reads.
struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    hash: Fnv1a,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            hash: Fnv1a::new(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EdgeSetError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(EdgeSetError::Corrupt("unexpected end of payload"))?;
        let slice = &self.bytes[self.pos..end];
        self.hash.update(slice);
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, EdgeSetError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, EdgeSetError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn edges(&mut self, count: u64) -> Result<Vec<Edge>, EdgeSetError> {
        let count = usize::try_from(count).map_err(|_| EdgeSetError::Corrupt("edge count"))?;
        if count > self.bytes.len() / 8 {
            return Err(EdgeSetError::Corrupt("edge count exceeds payload"));
        }
        let mut edges = Vec::with_capacity(count);
        for _ in 0..count {
            let u = self.u32()?;
            let v = self.u32()?;
            edges.push(Edge { u, v });
        }
        Ok(edges)
    }

    /// Verifies the trailing checksum (not hashed itself) and that the
    /// payload ends exactly there.
    fn finish(mut self) -> Result<(), EdgeSetError> {
        let want = self.hash.0;
        let got = u64::from_le_bytes(
            self.bytes
                .get(self.pos..self.pos + 8)
                .ok_or(EdgeSetError::Corrupt("missing checksum"))?
                .try_into()
                .expect("8 bytes"),
        );
        self.pos += 8;
        if self.pos != self.bytes.len() {
            return Err(EdgeSetError::Corrupt("trailing bytes after checksum"));
        }
        if got != want {
            return Err(EdgeSetError::ChecksumMismatch);
        }
        Ok(())
    }
}

impl EdgeSetSnapshot {
    /// Captures a snapshot from canonical, ascending `edges` (as produced
    /// by [`esd_graph::DynamicGraph::edges`] or [`Graph::edges`]).
    ///
    /// # Panics
    /// Debug-asserts the canonical ordering contract.
    #[must_use]
    pub fn new(num_vertices: u32, edges: Vec<Edge>) -> Self {
        debug_assert!(edges_valid(&edges, num_vertices), "edges not canonical");
        Self {
            num_vertices,
            edges,
        }
    }

    /// Captures the current state of a graph.
    #[must_use]
    pub fn from_graph(g: &esd_graph::DynamicGraph) -> Self {
        Self::new(g.num_vertices() as u32, g.edges())
    }

    /// Rebuilds the CSR graph this snapshot describes.
    #[must_use]
    pub fn to_graph(&self) -> Graph {
        let mut b =
            esd_graph::GraphBuilder::with_capacity(self.num_vertices as usize, self.edges.len());
        for e in &self.edges {
            b.add_edge(e.u, e.v);
        }
        b.build()
    }

    /// Encodes to the `ESDF` payload format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.edges.len() * 8);
        let mut hash = Fnv1a::new();
        for field in [
            FULL_MAGIC.as_slice(),
            &VERSION.to_le_bytes(),
            &self.num_vertices.to_le_bytes(),
            &(self.edges.len() as u64).to_le_bytes(),
        ] {
            hash.update(field);
            out.extend_from_slice(field);
        }
        for e in &self.edges {
            for half in [e.u, e.v] {
                let bytes = half.to_le_bytes();
                hash.update(&bytes);
                out.extend_from_slice(&bytes);
            }
        }
        out.extend_from_slice(&hash.0.to_le_bytes());
        out
    }

    /// Decodes and fully validates an `ESDF` payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, EdgeSetError> {
        let mut d = Decoder::new(bytes);
        if d.take(4)? != FULL_MAGIC {
            return Err(EdgeSetError::BadMagic);
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(EdgeSetError::BadVersion(version));
        }
        let n = d.u32()?;
        let m = d.u64()?;
        let edges = d.edges(m)?;
        d.finish()?;
        if !edges_valid(&edges, n) {
            return Err(EdgeSetError::Corrupt("edge list not canonical/ascending"));
        }
        Ok(Self {
            num_vertices: n,
            edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_graph::generators;
    use proptest::prelude::*;

    fn snap(g: &esd_graph::Graph) -> EdgeSetSnapshot {
        EdgeSetSnapshot::new(g.num_vertices() as u32, g.edges().to_vec())
    }

    #[test]
    fn full_roundtrip() {
        let g = generators::clique_overlap(60, 50, 5, 3);
        let s = snap(&g);
        let decoded = EdgeSetSnapshot::decode(&s.encode()).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(decoded.to_graph(), g);
    }

    #[test]
    fn corrupted_payloads_are_rejected_not_misread() {
        let g = generators::erdos_renyi(25, 0.2, 9);
        let bytes = snap(&g).encode();
        // Every single-byte corruption and every truncation must fail.
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] ^= mask;
                if bad == bytes {
                    continue;
                }
                assert!(
                    EdgeSetSnapshot::decode(&bad).is_err(),
                    "flip at byte {i} mask {mask:#x} must not decode"
                );
            }
        }
        for len in 0..bytes.len() {
            assert!(EdgeSetSnapshot::decode(&bytes[..len]).is_err());
        }
        // Cross-kind confusion: an ESDX index is not an edge set.
        let mut other = bytes.clone();
        other[..4].copy_from_slice(b"ESDX");
        assert!(matches!(
            EdgeSetSnapshot::decode(&other),
            Err(EdgeSetError::BadMagic)
        ));
    }

    #[test]
    fn oversized_counts_fail_fast_without_allocating() {
        let mut bytes = EdgeSetSnapshot::new(4, vec![Edge::new(0, 1)]).encode();
        // Patch the edge count (offset 12) to something enormous.
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            EdgeSetSnapshot::decode(&bytes),
            Err(EdgeSetError::Corrupt(_))
        ));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_is_identity(seed in 0u64..50) {
            let s = snap(&generators::erdos_renyi(30, 0.12, seed));
            prop_assert_eq!(EdgeSetSnapshot::decode(&s.encode()).unwrap(), s);
        }

        #[test]
        fn prop_arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = EdgeSetSnapshot::decode(&bytes);
        }
    }
}
