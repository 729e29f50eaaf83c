//! A copy-on-write map keyed by canonical edge key.
//!
//! [`CowMap`] splits its entries over a fixed number of `Arc`-shared pages,
//! each a key-sorted `Vec<(u64, V)>`. Cloning a map copies only the page
//! pointers; a write copies the one page it touches, and only while another
//! clone still shares that page. Publishing a served snapshot is therefore
//! a pointer copy, and the next write window pays for the pages its blast
//! radius touches instead of for the whole map.
//!
//! Which page a key lands on is a fixed multiplicative hash of the key, so
//! the layout — and with it the iteration order — depends only on the
//! content and the page count, never on the insertion history.

use std::sync::Arc;

type Page<V> = Arc<Vec<(u64, V)>>;

/// A map from `u64` edge keys to `V` whose clones share unmodified pages.
///
/// # Examples
///
/// ```
/// use esd_core::cow::CowMap;
///
/// let mut live: CowMap<u32> = CowMap::with_pages(64);
/// live.insert(7, 70);
/// let published = live.clone(); // copies 64 page pointers
/// live.insert(7, 71); // copies the one page holding key 7
/// assert_eq!(published.get(7), Some(&70));
/// assert_eq!(live.get(7), Some(&71));
/// assert_eq!(live.pages_unshared_with(&published), 1);
/// ```
#[derive(Clone)]
pub struct CowMap<V> {
    pages: Box<[Page<V>]>,
    /// `64 − log2(page count)`: a key's page is the top bits of its hash.
    shift: u32,
    len: usize,
}

impl<V> CowMap<V> {
    /// An empty map over `pages` pages. Every page starts as the same
    /// shared empty vector, so an empty map costs one allocation.
    ///
    /// # Panics
    /// If `pages` is not a power of two.
    #[must_use]
    pub fn with_pages(pages: usize) -> Self {
        assert!(
            pages.is_power_of_two(),
            "page count {pages} is not a power of two"
        );
        let empty: Page<V> = Arc::new(Vec::new());
        Self {
            pages: (0..pages).map(|_| Arc::clone(&empty)).collect(),
            shift: 64 - pages.trailing_zeros(),
            len: 0,
        }
    }

    /// Builds a map over `pages` pages from `entries` in bulk: each page is
    /// collected and then sorted once. A key given twice keeps its last
    /// value, as `HashMap::from_iter` would.
    ///
    /// # Panics
    /// If `pages` is not a power of two.
    #[must_use]
    pub fn from_entries(pages: usize, entries: impl IntoIterator<Item = (u64, V)>) -> Self {
        let mut map = Self::with_pages(pages);
        let mut buckets: Vec<Vec<(u64, V)>> = (0..pages).map(|_| Vec::new()).collect();
        for (key, value) in entries {
            buckets[map.page_of(key)].push((key, value));
        }
        for (slot, mut bucket) in map.pages.iter_mut().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            // Stable sort, then fold each run of equal keys onto its last value.
            bucket.sort_by_key(|&(key, _)| key);
            bucket.dedup_by(|later, kept| {
                let dup = later.0 == kept.0;
                if dup {
                    std::mem::swap(later, kept);
                }
                dup
            });
            map.len += bucket.len();
            *slot = Arc::new(bucket);
        }
        map
    }

    fn page_of(&self, key: u64) -> usize {
        // `shift == 64` (a single page) would overflow the shift.
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .checked_shr(self.shift)
            .unwrap_or(0) as usize
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored under `key`.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&V> {
        let page = &self.pages[self.page_of(key)];
        page.binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| &page[i].1)
    }

    /// Whether `key` has an entry.
    #[must_use]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Every `(key, value)` pair: pages in order, keys ascending within a
    /// page. The order depends only on the content and the page count.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.pages
            .iter()
            .flat_map(|page| page.iter().map(|(k, v)| (*k, v)))
    }

    /// Every key, in [`iter`](Self::iter) order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Every value, in [`iter`](Self::iter) order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// How many page slots hold a different page than `other`'s — the
    /// pages a write window copied since `other` was cloned from this map
    /// (or this map from `other`). Maps with different page counts share
    /// nothing.
    #[must_use]
    pub fn pages_unshared_with(&self, other: &Self) -> usize {
        if self.pages.len() != other.pages.len() {
            return self.pages.len();
        }
        self.pages
            .iter()
            .zip(other.pages.iter())
            .filter(|(a, b)| !Arc::ptr_eq(a, b))
            .count()
    }
}

impl<V: Clone> CowMap<V> {
    /// Mutable access to `key`'s value. Copies the page first if another
    /// clone shares it; an absent key copies nothing.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let p = self.page_of(key);
        let i = self.pages[p].binary_search_by_key(&key, |&(k, _)| k).ok()?;
        Some(&mut Arc::make_mut(&mut self.pages[p])[i].1)
    }

    /// Mutable access to `key`'s value, inserting `V::default()` first if
    /// the key is absent.
    pub fn get_or_insert_default(&mut self, key: u64) -> &mut V
    where
        V: Default,
    {
        let p = self.page_of(key);
        let page = Arc::make_mut(&mut self.pages[p]);
        let i = match page.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => i,
            Err(i) => {
                page.insert(i, (key, V::default()));
                self.len += 1;
                i
            }
        };
        &mut page[i].1
    }

    /// Stores `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let p = self.page_of(key);
        let page = Arc::make_mut(&mut self.pages[p]);
        match page.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => Some(std::mem::replace(&mut page[i].1, value)),
            Err(i) => {
                page.insert(i, (key, value));
                self.len += 1;
                None
            }
        }
    }

    /// Removes `key`'s entry, returning its value. An absent key copies
    /// nothing.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let p = self.page_of(key);
        let i = self.pages[p].binary_search_by_key(&key, |&(k, _)| k).ok()?;
        self.len -= 1;
        Some(Arc::make_mut(&mut self.pages[p]).remove(i).1)
    }
}

/// Logical equality: two maps are equal when they hold the same entries,
/// however they got there. Shared pages compare by pointer.
impl<V: PartialEq> PartialEq for CowMap<V> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        if self.pages.len() != other.pages.len() {
            return self.iter().all(|(k, v)| other.get(k) == Some(v));
        }
        // Same page count: a key's page is fixed and each page is sorted,
        // so equal content means equal pages.
        self.pages
            .iter()
            .zip(other.pages.iter())
            .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for CowMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn basic_operations() {
        let mut m: CowMap<&str> = CowMap::with_pages(8);
        assert!(m.is_empty());
        assert_eq!(m.insert(3, "a"), None);
        assert_eq!(m.insert(3, "b"), Some("a"));
        assert_eq!(m.insert(u64::MAX, "z"), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(3), Some(&"b"));
        assert!(m.contains_key(u64::MAX));
        assert_eq!(m.remove(4), None);
        assert_eq!(m.remove(3), Some("b"));
        assert_eq!(m.len(), 1);
        *m.get_or_insert_default(9) = "d";
        assert_eq!(m.get(9), Some(&"d"));
        *m.get_mut(9).unwrap() = "e";
        assert_eq!(m.get(9), Some(&"e"));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn single_page_map_works() {
        let m = CowMap::from_entries(1, (0..100u64).rev().map(|k| (k, k * 2)));
        assert_eq!(m.len(), 100);
        assert!(m.keys().eq(0..100));
        assert_eq!(m.get(42), Some(&84));
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn page_count_must_be_a_power_of_two() {
        let _ = CowMap::<u8>::with_pages(12);
    }

    #[test]
    fn bulk_build_keeps_the_last_duplicate() {
        let m = CowMap::from_entries(4, [(1, 'a'), (2, 'b'), (1, 'c'), (1, 'd')]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(&'d'));
    }

    #[test]
    fn clone_shares_every_page_until_a_write() {
        let mut live = CowMap::from_entries(16, (0..200u64).map(|k| (k, k)));
        let snap = live.clone();
        assert_eq!(live.pages_unshared_with(&snap), 0);
        live.insert(5, 0);
        live.remove(6);
        *live.get_mut(7).unwrap() += 1;
        assert!(live.pages_unshared_with(&snap) <= 3);
        // Reads and misses copy nothing.
        let before = live.pages_unshared_with(&snap);
        let _ = live.get(100);
        assert_eq!(live.remove(1000), None);
        assert!(live.get_mut(1001).is_none());
        assert_eq!(live.pages_unshared_with(&snap), before);
        assert_eq!(snap.get(5), Some(&5));
        assert_eq!(snap.get(6), Some(&6));
        assert_eq!(snap.get(7), Some(&7));
    }

    #[test]
    fn equality_is_logical() {
        let built = CowMap::from_entries(8, (0..50u64).map(|k| (k, k)));
        let mut grown = CowMap::with_pages(8);
        for k in (0..60u64).rev() {
            grown.insert(k, k + 1);
        }
        for k in 50..60 {
            grown.remove(k);
        }
        for k in 0..50 {
            *grown.get_mut(k).unwrap() -= 1;
        }
        assert_eq!(built, grown);
        let other_layout = CowMap::from_entries(2, (0..50u64).map(|k| (k, k)));
        assert_eq!(built, other_layout);
        grown.insert(0, 9);
        assert_ne!(built, grown);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Remove(u64),
        Bump(u64),
        Snapshot,
    }

    fn op() -> impl Strategy<Value = Op> {
        // A small key space makes hits, misses and overwrites all common.
        (0u8..4, 0u64..64, any::<u32>()).prop_map(|(kind, k, v)| match kind {
            0 => Op::Insert(k, v),
            1 => Op::Remove(k),
            2 => Op::Bump(k),
            _ => Op::Snapshot,
        })
    }

    proptest! {
        #[test]
        fn matches_hashmap_and_clones_stay_frozen(
            pages in (0u32..3).prop_map(|i| 1usize << (2 * i + i / 2)),
            ops in proptest::collection::vec(op(), 0..200),
        ) {
            let mut map: CowMap<u32> = CowMap::with_pages(pages);
            let mut model: HashMap<u64, u32> = HashMap::new();
            let mut frozen: Vec<(CowMap<u32>, HashMap<u64, u32>)> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                    Op::Remove(k) => prop_assert_eq!(map.remove(k), model.remove(&k)),
                    Op::Bump(k) => {
                        if let Some(v) = map.get_mut(k) {
                            *v = v.wrapping_add(1);
                        }
                        if let Some(v) = model.get_mut(&k) {
                            *v = v.wrapping_add(1);
                        }
                    }
                    Op::Snapshot => frozen.push((map.clone(), model.clone())),
                }
                prop_assert_eq!(map.len(), model.len());
            }
            let mut got: Vec<(u64, u32)> = map.iter().map(|(k, &v)| (k, v)).collect();
            got.sort_unstable();
            let mut want: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            want.sort_unstable();
            prop_assert_eq!(&got, &want);
            // The same content built in bulk compares equal.
            prop_assert_eq!(&map, &CowMap::from_entries(pages, want.iter().copied()));
            // Mutating after a clone never changed the clone.
            for (snap, at) in &frozen {
                prop_assert_eq!(snap.len(), at.len());
                for (&k, v) in at {
                    prop_assert_eq!(snap.get(k), Some(v));
                }
            }
        }
    }
}
