//! On-disk persistence of the index.
//!
//! Production deployments build the index once (possibly on a bigger
//! machine) and ship it next to the graph. The format is a little-endian
//! versioned binary dump of the [`EsdIndex`] arrays with a checksum:
//!
//! ```text
//! magic "ESDX" | u32 version | u64 |C| | u64 #entries
//! C as u32s | list offsets as u64s (|C|+1) | entries as (u32 u, u32 v, u32 score)
//! u64 fnv1a checksum of everything above
//! ```
//!
//! No external serialisation crate is needed; the format is explicit,
//! stable, and validated on load (magic, version, arity, offsets
//! monotonicity, checksum), so truncated or corrupted files are rejected
//! rather than misread. The loader reads the whole file before decoding
//! and bounds every count by the bytes actually present, so a corrupt
//! header can never make it allocate more than the file's own size.

use super::EsdIndex;
use crate::ScoredEdge;
use esd_graph::Edge;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"ESDX";
const VERSION: u32 = 1;

/// Errors raised when loading a persisted index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not an ESDX file.
    BadMagic,
    /// Produced by an incompatible library version.
    BadVersion(u32),
    /// Structurally invalid (bad offsets, truncation, bad edge).
    Corrupt(&'static str),
    /// Checksum mismatch.
    ChecksumMismatch,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not an ESDX index file"),
            PersistError::BadVersion(v) => write!(f, "unsupported ESDX version {v}"),
            PersistError::Corrupt(what) => write!(f, "corrupt index file: {what}"),
            PersistError::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Streaming FNV-1a, applied to every byte written/read before the trailer.
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

struct CountingWriter<W: Write> {
    inner: W,
    hash: Fnv1a,
}

impl<W: Write> CountingWriter<W> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash.update(bytes);
        self.inner.write_all(bytes)
    }

    fn put_u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }
}

struct HashingReader<R: Read> {
    inner: R,
    hash: Fnv1a,
}

impl<R: Read> HashingReader<R> {
    fn get(&mut self, buf: &mut [u8]) -> Result<(), PersistError> {
        self.inner
            .read_exact(buf)
            .map_err(|_| PersistError::Corrupt("unexpected end of file"))?;
        self.hash.update(buf);
        Ok(())
    }

    fn get_u32(&mut self) -> Result<u32, PersistError> {
        let mut b = [0u8; 4];
        self.get(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn get_u64(&mut self) -> Result<u64, PersistError> {
        let mut b = [0u8; 8];
        self.get(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

impl EsdIndex {
    /// Serialises to any writer in the ESDX format.
    pub fn write_to(&self, writer: impl Write) -> io::Result<()> {
        let mut w = CountingWriter {
            inner: BufWriter::new(writer),
            hash: Fnv1a::new(),
        };
        w.put(MAGIC)?;
        w.put_u32(VERSION)?;
        w.put_u64(self.sizes.len() as u64)?;
        w.put_u64(self.entries.len() as u64)?;
        for &c in &self.sizes {
            w.put_u32(c)?;
        }
        for &off in &self.list_offsets {
            w.put_u64(off as u64)?;
        }
        for e in &self.entries {
            w.put_u32(e.edge.u)?;
            w.put_u32(e.edge.v)?;
            w.put_u32(e.score)?;
        }
        let checksum = w.hash.0;
        w.inner.write_all(&checksum.to_le_bytes())?;
        w.inner.flush()
    }

    /// Deserialises from any reader, validating structure and checksum.
    pub fn read_from(mut reader: impl Read) -> Result<Self, PersistError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let mut r = HashingReader {
            inner: bytes.as_slice(),
            hash: Fnv1a::new(),
        };
        let mut magic = [0u8; 4];
        r.get(&mut magic)?;
        if &magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(PersistError::BadVersion(version));
        }
        let num_lists = r.get_u64()? as usize;
        let num_entries = r.get_u64()? as usize;
        // Arity guard before allocating: each list takes 12 bytes (its
        // size and its offset) and each entry 12, so a count the remaining
        // bytes cannot hold is corrupt — and never reaches an allocation.
        let remaining = r.inner.len();
        if num_lists > remaining / 12 || num_entries > remaining / 12 {
            return Err(PersistError::Corrupt("header counts exceed file size"));
        }
        let mut sizes = Vec::with_capacity(num_lists);
        for _ in 0..num_lists {
            sizes.push(r.get_u32()?);
        }
        if !sizes.windows(2).all(|w| w[0] < w[1]) {
            return Err(PersistError::Corrupt("C not strictly ascending"));
        }
        let mut list_offsets = Vec::with_capacity(num_lists + 1);
        for _ in 0..=num_lists {
            list_offsets.push(r.get_u64()? as usize);
        }
        let monotone = list_offsets.windows(2).all(|w| w[0] <= w[1]);
        if list_offsets.first() != Some(&0)
            || list_offsets.last() != Some(&num_entries)
            || !monotone
        {
            return Err(PersistError::Corrupt("bad list offsets"));
        }
        let mut entries = Vec::with_capacity(num_entries);
        for _ in 0..num_entries {
            let u = r.get_u32()?;
            let v = r.get_u32()?;
            let score = r.get_u32()?;
            if u >= v || score == 0 {
                return Err(PersistError::Corrupt("invalid entry"));
            }
            entries.push(ScoredEdge {
                edge: Edge { u, v },
                score,
            });
        }
        let computed = r.hash.0;
        let mut trailer = [0u8; 8];
        r.inner
            .read_exact(&mut trailer)
            .map_err(|_| PersistError::Corrupt("missing checksum"))?;
        if u64::from_le_bytes(trailer) != computed {
            return Err(PersistError::ChecksumMismatch);
        }
        // Defence in depth: run the full structural audit (rank order inside
        // each list, nesting and score monotonicity across lists, …). A file
        // passing the field-level checks above can still encode an index no
        // builder would produce; such files are corrupt, never a panic or a
        // silently wrong index.
        let index = Self {
            sizes,
            list_offsets,
            entries,
        };
        if !index.validate().is_empty() {
            return Err(PersistError::Corrupt("index fails structural audit"));
        }
        Ok(index)
    }

    /// Saves to a file. See [`Self::write_to`].
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.write_to(std::fs::File::create(path)?)
    }

    /// Loads from a file. See [`Self::read_from`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::read_from(std::fs::File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use esd_graph::generators;

    fn roundtrip(index: &EsdIndex) -> EsdIndex {
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        EsdIndex::read_from(buf.as_slice()).unwrap()
    }

    #[test]
    fn roundtrip_fig1() {
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        assert_eq!(roundtrip(&index), index);
    }

    #[test]
    fn roundtrip_random_and_empty() {
        let g = generators::clique_overlap(100, 80, 6, 5);
        let index = EsdIndex::build_fast(&g);
        assert_eq!(roundtrip(&index), index);
        let empty = EsdIndex::build_fast(&esd_graph::Graph::from_edges(2, &[]));
        assert_eq!(roundtrip(&empty), empty);
    }

    /// Fig 1's index encodes to 1,180 bytes with this FNV-1a trailer: a
    /// change to the ESDX format, or to what the builders put in the
    /// lists, fails here.
    #[test]
    fn fig1_encoding_is_pinned() {
        let (g, _) = fig1();
        let mut buf = Vec::new();
        EsdIndex::build_fast(&g).write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), 1180);
        let trailer = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
        assert_eq!(trailer, 0x9ab0_86cd_d031_2743);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let (g, _) = fig1();
        let mut buf = Vec::new();
        EsdIndex::build_fast(&g).write_to(&mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            EsdIndex::read_from(bad.as_slice()),
            Err(PersistError::BadMagic)
        ));
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            EsdIndex::read_from(bad.as_slice()),
            Err(PersistError::BadVersion(_))
        ));
    }

    #[test]
    fn rejects_truncation_and_bitflips() {
        let (g, _) = fig1();
        let mut buf = Vec::new();
        EsdIndex::build_fast(&g).write_to(&mut buf).unwrap();
        // Truncate at several depths.
        for cut in [10, buf.len() / 2, buf.len() - 1] {
            assert!(
                EsdIndex::read_from(&buf[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Flip one payload byte: either a structural error or a checksum
        // mismatch, never a silent success.
        let mut bad = buf.clone();
        let mid = buf.len() / 2;
        bad[mid] ^= 0x40;
        assert!(EsdIndex::read_from(bad.as_slice()).is_err());
    }

    #[test]
    fn header_counts_beyond_the_file_are_rejected_before_allocating() {
        for (lists, entries) in [(1u64 << 32, 0u64), (0, 1 << 40), (u64::MAX, u64::MAX)] {
            let mut bad = Vec::new();
            bad.extend_from_slice(MAGIC);
            bad.extend_from_slice(&VERSION.to_le_bytes());
            bad.extend_from_slice(&lists.to_le_bytes());
            bad.extend_from_slice(&entries.to_le_bytes());
            bad.extend_from_slice(&[0; 64]);
            assert!(
                matches!(
                    EsdIndex::read_from(bad.as_slice()),
                    Err(PersistError::Corrupt("header counts exceed file size"))
                ),
                "|C| = {lists}, #entries = {entries}"
            );
        }
    }

    mod fuzz {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary bytes must never panic the loader — they either
            /// parse (vanishingly unlikely) or return a structured error.
            #[test]
            fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
                let _ = EsdIndex::read_from(bytes.as_slice());
            }

            /// Valid files with one mutated byte must never load as a
            /// *different* index: either they error, or (e.g. a flip in
            /// dead padding — impossible in this format, so practically
            /// always) they error.
            #[test]
            fn single_byte_mutations_detected(pos_seed in any::<u64>(), flip in 1u8..=255) {
                let (g, _) = crate::fixtures::fig1();
                let mut buf = Vec::new();
                EsdIndex::build_fast(&g).write_to(&mut buf).unwrap();
                let pos = (pos_seed as usize) % buf.len();
                buf[pos] ^= flip;
                match EsdIndex::read_from(buf.as_slice()) {
                    Err(_) => {}
                    Ok(loaded) => {
                        // The checksum covers every payload byte, so a
                        // successful load can only happen if the flip hit
                        // the checksum trailer itself... which would then
                        // mismatch. Reaching here is a real bug.
                        let original = EsdIndex::build_fast(&g);
                        prop_assert_eq!(loaded, original, "silent corruption at byte {}", pos);
                        prop_assert!(false, "mutated file loaded successfully at byte {}", pos);
                    }
                }
            }
        }
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        let dir = std::env::temp_dir().join("esd_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.esdx");
        index.save(&path).unwrap();
        assert_eq!(EsdIndex::load(&path).unwrap(), index);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            EsdIndex::load(dir.join("nope.esdx")),
            Err(PersistError::Io(_))
        ));
    }
}
