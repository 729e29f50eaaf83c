//! Shared original-id ↔ dense-id mapping for interactive surfaces.
//!
//! Graph files carry arbitrary `u64` vertex ids; the engine works on the
//! dense `u32` relabelling produced at load time. Update commands may name
//! vertices the graph has never seen, so the map grows: every connection of
//! the TCP server and the stdin loop share one [`IdMap`] to keep the
//! assignment consistent.

use crate::sync::Unpoison;
use std::collections::HashMap;
use std::sync::Mutex;

#[derive(Debug, Default)]
struct IdMapInner {
    to_dense: HashMap<u64, u32>,
    original: Vec<u64>,
}

/// A growable, thread-safe bidirectional id mapping.
#[derive(Debug, Default)]
pub struct IdMap {
    inner: Mutex<IdMapInner>,
}

impl IdMap {
    /// Builds the map from the loader's dense → original table.
    pub fn from_original(original: Vec<u64>) -> Self {
        let to_dense = original
            .iter()
            .enumerate()
            .map(|(d, &o)| (o, d as u32))
            .collect();
        Self {
            inner: Mutex::new(IdMapInner { to_dense, original }),
        }
    }

    /// Dense ids for a pair of original ids, allocating fresh slots for
    /// unseen vertices.
    pub fn dense_pair(&self, a: u64, b: u64) -> (u32, u32) {
        let mut inner = self.inner.lock().unpoison();
        let mut dense = |o: u64| {
            if let Some(&d) = inner.to_dense.get(&o) {
                return d;
            }
            let d = inner.original.len() as u32;
            inner.original.push(o);
            inner.to_dense.insert(o, d);
            d
        };
        (dense(a), dense(b))
    }

    /// Original id of a dense id (falls back to the dense value itself for
    /// ids the map has never issued — they can only come from a corrupted
    /// caller, but a lookup must not panic on the serving path).
    pub fn original_of(&self, dense: u32) -> u64 {
        let inner = self.inner.lock().unpoison();
        inner
            .original
            .get(dense as usize)
            .copied()
            .unwrap_or(u64::from(dense))
    }

    /// Number of mapped vertices.
    pub fn len(&self) -> usize {
        self.inner.lock().unpoison().original.len()
    }

    /// True when no vertex is mapped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_known_and_grows_unknown() {
        let ids = IdMap::from_original(vec![100, 101, 102]);
        assert_eq!(ids.dense_pair(101, 100), (1, 0));
        assert_eq!(ids.dense_pair(999, 101), (3, 1), "999 gets a fresh slot");
        assert_eq!(ids.original_of(3), 999);
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn unknown_dense_falls_back_to_identity() {
        let ids = IdMap::from_original(vec![7]);
        assert_eq!(ids.original_of(42), 42);
        assert!(!ids.is_empty());
    }
}
