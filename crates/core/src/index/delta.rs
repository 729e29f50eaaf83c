//! ESDX delta encode/decode: the checkpoint payload codec of the
//! durability subsystem.
//!
//! An ESDX file (see [`super::persist`]) is not enough to *recover*
//! a serving process: the index only stores edges with a positive score,
//! while maintenance needs the complete graph. Checkpoints therefore
//! persist the **edge set** — a full [`EdgeSetSnapshot`], or an
//! [`EdgeSetDelta`] of changed edges against the last full snapshot,
//! keyed by publication epoch at the envelope layer (`esd-durability`
//! owns file placement, CRC framing, and chain discovery; this module
//! owns the payload bytes and their structural validation).
//!
//! Formats, little-endian like ESDX, FNV-1a-checksummed like ESDX:
//!
//! ```text
//! full : magic "ESDF" | u32 version | u32 n | u64 m  | m  edges | u64 fnv1a
//! delta: magic "ESDD" | u32 version | u32 n | u64 +m | u64 -m | added | removed | u64 fnv1a
//! edge : u32 u | u32 v      (canonical u < v, strictly ascending lists)
//! ```
//!
//! Decoding validates everything (magic, version, ordering, canonical
//! form, bounds, checksum) so a corrupted checkpoint payload is rejected
//! with a typed [`DeltaError`] instead of materialising a garbage graph;
//! [`EdgeSetDelta::apply`] additionally refuses deltas that are
//! inconsistent with their base (an edge added twice or removed while
//! absent), which catches chain-confusion corruption that per-file
//! checksums cannot.

use esd_graph::{Edge, Graph};

const FULL_MAGIC: &[u8; 4] = b"ESDF";
const DELTA_MAGIC: &[u8; 4] = b"ESDD";
const VERSION: u32 = 1;

/// Errors raised when decoding or applying a checkpoint payload.
#[derive(Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// Not the expected payload kind.
    BadMagic,
    /// Produced by an incompatible library version.
    BadVersion(u32),
    /// Structurally invalid (truncation, ordering, non-canonical edge).
    Corrupt(&'static str),
    /// Checksum mismatch.
    ChecksumMismatch,
    /// The delta does not match the base snapshot it claims to extend.
    Inconsistent(&'static str),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BadMagic => write!(f, "not an ESDX edge-set payload"),
            DeltaError::BadVersion(v) => write!(f, "unsupported edge-set payload version {v}"),
            DeltaError::Corrupt(what) => write!(f, "corrupt edge-set payload: {what}"),
            DeltaError::ChecksumMismatch => write!(f, "edge-set payload checksum mismatch"),
            DeltaError::Inconsistent(what) => write!(f, "delta inconsistent with base: {what}"),
        }
    }
}

impl std::error::Error for DeltaError {}

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

/// The changed-edge set between a base [`EdgeSetSnapshot`] and a later
/// state: the payload of a **delta** checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EdgeSetDelta {
    /// Number of vertices of the *target* state.
    pub num_vertices: u32,
    /// Edges present in the target but not the base, ascending.
    pub added: Vec<Edge>,
    /// Edges present in the base but not the target, ascending.
    pub removed: Vec<Edge>,
}

/// `true` when `edges` is strictly ascending, canonical, and in-bounds.
fn edges_valid(edges: &[Edge], n: u32) -> bool {
    edges.windows(2).all(|w| w[0] < w[1])
        && edges
            .iter()
            .all(|e| e.u < e.v && u64::from(e.v) < u64::from(n).max(1))
}

fn encode_edges(out: &mut Vec<u8>, hash: &mut Fnv1a, edges: &[Edge]) {
    for e in edges {
        for half in [e.u, e.v] {
            let bytes = half.to_le_bytes();
            hash.update(&bytes);
            out.extend_from_slice(&bytes);
        }
    }
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

    fn take(&mut self, n: usize) -> Result<&'a [u8], DeltaError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(DeltaError::Corrupt("unexpected end of payload"))?;
        let slice = &self.bytes[self.pos..end];
        self.hash.update(slice);
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, DeltaError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, DeltaError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn edges(&mut self, count: u64) -> Result<Vec<Edge>, DeltaError> {
        let count = usize::try_from(count).map_err(|_| DeltaError::Corrupt("edge count"))?;
        if count > self.bytes.len() / 8 {
            return Err(DeltaError::Corrupt("edge count exceeds payload"));
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
    fn finish(mut self) -> Result<(), DeltaError> {
        let want = self.hash.0;
        let got = u64::from_le_bytes(
            self.bytes
                .get(self.pos..self.pos + 8)
                .ok_or(DeltaError::Corrupt("missing checksum"))?
                .try_into()
                .expect("8 bytes"),
        );
        self.pos += 8;
        if self.pos != self.bytes.len() {
            return Err(DeltaError::Corrupt("trailing bytes after checksum"));
        }
        if got != want {
            return Err(DeltaError::ChecksumMismatch);
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
        encode_edges(&mut out, &mut hash, &self.edges);
        out.extend_from_slice(&hash.0.to_le_bytes());
        out
    }

    /// Decodes and fully validates an `ESDF` payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, DeltaError> {
        let mut d = Decoder::new(bytes);
        if d.take(4)? != FULL_MAGIC {
            return Err(DeltaError::BadMagic);
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(DeltaError::BadVersion(version));
        }
        let n = d.u32()?;
        let m = d.u64()?;
        let edges = d.edges(m)?;
        d.finish()?;
        if !edges_valid(&edges, n) {
            return Err(DeltaError::Corrupt("edge list not canonical/ascending"));
        }
        Ok(Self {
            num_vertices: n,
            edges,
        })
    }

    /// The delta that turns `self` into `target` (two-pointer merge over
    /// the sorted edge lists).
    #[must_use]
    pub fn diff(&self, target: &EdgeSetSnapshot) -> EdgeSetDelta {
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.edges.len() || j < target.edges.len() {
            match (self.edges.get(i), target.edges.get(j)) {
                (Some(a), Some(b)) if a == b => {
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a < b => {
                    removed.push(*a);
                    i += 1;
                }
                (Some(_), Some(b)) => {
                    added.push(*b);
                    j += 1;
                }
                (Some(a), None) => {
                    removed.push(*a);
                    i += 1;
                }
                (None, Some(b)) => {
                    added.push(*b);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        EdgeSetDelta {
            num_vertices: target.num_vertices,
            added,
            removed,
        }
    }
}

impl EdgeSetDelta {
    /// `(|added| + |removed|) / max(1, |base|)` — the full-snapshot
    /// fallback trigger compares this against its threshold.
    #[must_use]
    pub fn change_ratio(&self, base: &EdgeSetSnapshot) -> f64 {
        (self.added.len() + self.removed.len()) as f64 / base.edges.len().max(1) as f64
    }

    /// `true` when the delta changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Applies the delta to `base`, validating consistency: every removed
    /// edge must exist in the base and no added edge may already.
    pub fn apply(&self, base: &EdgeSetSnapshot) -> Result<EdgeSetSnapshot, DeltaError> {
        let mut removed = self.removed.iter().peekable();
        let mut edges = Vec::with_capacity(base.edges.len() + self.added.len());
        for e in &base.edges {
            match removed.peek() {
                Some(&r) if r == e => {
                    removed.next();
                }
                Some(&r) if r < e => {
                    return Err(DeltaError::Inconsistent("removed edge absent from base"))
                }
                _ => edges.push(*e),
            }
        }
        if removed.next().is_some() {
            return Err(DeltaError::Inconsistent("removed edge absent from base"));
        }
        // Merge the additions in, rejecting duplicates against the kept set.
        let mut merged = Vec::with_capacity(edges.len() + self.added.len());
        let mut added = self.added.iter().peekable();
        let mut kept = edges.iter().peekable();
        loop {
            match (kept.peek(), added.peek()) {
                (Some(&k), Some(&a)) if k == a => {
                    return Err(DeltaError::Inconsistent("added edge already in base"))
                }
                (Some(&k), Some(&a)) if k < a => {
                    merged.push(*k);
                    kept.next();
                }
                (Some(_), Some(&a)) => {
                    merged.push(*a);
                    added.next();
                }
                (Some(&k), None) => {
                    merged.push(*k);
                    kept.next();
                }
                (None, Some(&a)) => {
                    merged.push(*a);
                    added.next();
                }
                (None, None) => break,
            }
        }
        if !edges_valid(&merged, self.num_vertices.max(base.num_vertices)) {
            return Err(DeltaError::Inconsistent("merged edge set not canonical"));
        }
        Ok(EdgeSetSnapshot {
            num_vertices: self.num_vertices.max(base.num_vertices),
            edges: merged,
        })
    }

    /// Encodes to the `ESDD` payload format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + (self.added.len() + self.removed.len()) * 8);
        let mut hash = Fnv1a::new();
        for field in [
            DELTA_MAGIC.as_slice(),
            &VERSION.to_le_bytes(),
            &self.num_vertices.to_le_bytes(),
            &(self.added.len() as u64).to_le_bytes(),
            &(self.removed.len() as u64).to_le_bytes(),
        ] {
            hash.update(field);
            out.extend_from_slice(field);
        }
        encode_edges(&mut out, &mut hash, &self.added);
        encode_edges(&mut out, &mut hash, &self.removed);
        out.extend_from_slice(&hash.0.to_le_bytes());
        out
    }

    /// Decodes and fully validates an `ESDD` payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, DeltaError> {
        let mut d = Decoder::new(bytes);
        if d.take(4)? != DELTA_MAGIC {
            return Err(DeltaError::BadMagic);
        }
        let version = d.u32()?;
        if version != VERSION {
            return Err(DeltaError::BadVersion(version));
        }
        let n = d.u32()?;
        let added_len = d.u64()?;
        let removed_len = d.u64()?;
        let added = d.edges(added_len)?;
        let removed = d.edges(removed_len)?;
        d.finish()?;
        if !edges_valid(&added, n) || !edges_valid(&removed, u32::MAX) {
            return Err(DeltaError::Corrupt("edge list not canonical/ascending"));
        }
        Ok(Self {
            num_vertices: n,
            added,
            removed,
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
    fn delta_roundtrip_and_apply() {
        let g1 = generators::erdos_renyi(40, 0.15, 7);
        let g2 = generators::erdos_renyi(40, 0.15, 8);
        let (s1, s2) = (snap(&g1), snap(&g2));
        let delta = s1.diff(&s2);
        let decoded = EdgeSetDelta::decode(&delta.encode()).unwrap();
        assert_eq!(decoded, delta);
        assert_eq!(decoded.apply(&s1).unwrap(), s2);
        // Identity delta.
        let nothing = s1.diff(&s1);
        assert!(nothing.is_empty());
        assert_eq!(nothing.apply(&s1).unwrap(), s1);
    }

    #[test]
    fn change_ratio_counts_both_directions() {
        let base = EdgeSetSnapshot::new(10, vec![Edge::new(0, 1), Edge::new(2, 3)]);
        let target = EdgeSetSnapshot::new(10, vec![Edge::new(0, 1), Edge::new(4, 5)]);
        let delta = base.diff(&target);
        assert_eq!(delta.added, vec![Edge::new(4, 5)]);
        assert_eq!(delta.removed, vec![Edge::new(2, 3)]);
        assert!((delta.change_ratio(&base) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inconsistent_deltas_are_refused() {
        let base = EdgeSetSnapshot::new(10, vec![Edge::new(0, 1)]);
        let add_existing = EdgeSetDelta {
            num_vertices: 10,
            added: vec![Edge::new(0, 1)],
            removed: vec![],
        };
        assert!(matches!(
            add_existing.apply(&base),
            Err(DeltaError::Inconsistent(_))
        ));
        let remove_missing = EdgeSetDelta {
            num_vertices: 10,
            added: vec![],
            removed: vec![Edge::new(5, 6)],
        };
        assert!(matches!(
            remove_missing.apply(&base),
            Err(DeltaError::Inconsistent(_))
        ));
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
        // Cross-kind confusion.
        assert!(matches!(
            EdgeSetDelta::decode(&bytes),
            Err(DeltaError::BadMagic)
        ));
    }

    #[test]
    fn oversized_counts_fail_fast_without_allocating() {
        let mut bytes = EdgeSetSnapshot::new(4, vec![Edge::new(0, 1)]).encode();
        // Patch the edge count (offset 12) to something enormous.
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            EdgeSetSnapshot::decode(&bytes),
            Err(DeltaError::Corrupt(_))
        ));
    }

    proptest! {
        #[test]
        fn prop_diff_apply_is_identity(seed1 in 0u64..50, seed2 in 0u64..50) {
            let g1 = generators::erdos_renyi(30, 0.12, seed1);
            let g2 = generators::erdos_renyi(30, 0.12, seed2);
            let (s1, s2) = (snap(&g1), snap(&g2));
            let delta = s1.diff(&s2);
            prop_assert_eq!(delta.apply(&s1).unwrap(), s2.clone());
            // And through the codec.
            let delta2 = EdgeSetDelta::decode(&delta.encode()).unwrap();
            let s1b = EdgeSetSnapshot::decode(&s1.encode()).unwrap();
            prop_assert_eq!(delta2.apply(&s1b).unwrap(), s2);
        }

        #[test]
        fn prop_arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = EdgeSetSnapshot::decode(&bytes);
            let _ = EdgeSetDelta::decode(&bytes);
        }
    }
}
