//! Copy-on-write containers whose clones share unmodified pages.
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
//!
//! [`CowRun`] applies the same sharing to a ranking: a rank-sorted run of
//! [`RankKey`]s cut into `Arc`-shared pages of about [`RUN_PAGE`] keys, so
//! a top-k read is a walk over the first pages and a re-ranked edge copies
//! the one or two pages its old and new keys sit on.
//!
//! [`SizeRuns`] keeps one [`CowRun`] per size of a family of per-edge size
//! multisets — the paper's threshold lists `H(c)` — and is the one place
//! that knows how those runs move when an edge's sizes change.

use crate::index::build;
use crate::score::score_from_sizes;
use crate::ScoredEdge;
use esd_graph::Edge;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
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
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + Clone + '_ {
        self.pages
            .iter()
            .flat_map(|page| page.iter().map(|(k, v)| (*k, v)))
    }

    /// Every key, in [`iter`](Self::iter) order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Every value, in [`iter`](Self::iter) order.
    pub fn values(&self) -> impl Iterator<Item = &V> + Clone + '_ {
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

/// A ranked key: score-descending, then edge-ascending — the
/// [`ScoredEdge::ranking_cmp`] order as an `Ord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankKey {
    /// The score the key is ranked by.
    pub score: u32,
    /// The edge.
    pub edge: Edge,
}

impl Ord for RankKey {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .cmp(&self.score)
            .then_with(|| self.edge.cmp(&other.edge))
    }
}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<RankKey> for ScoredEdge {
    fn from(key: RankKey) -> Self {
        ScoredEdge {
            edge: key.edge,
            score: key.score,
        }
    }
}

/// Target key count of a [`CowRun`] page; a page splits in two once an
/// insert brings it to twice this size. A re-ranked key copies its page,
/// so the page bounds the bytes one key edit costs a shared run (256 keys
/// are 3 KiB); a top-k read touches `⌈k / RUN_PAGE⌉ + 1` pages at most.
pub const RUN_PAGE: usize = 256;

type RunPage = Arc<Vec<RankKey>>;

/// A rank-sorted run of [`RankKey`]s (score descending, then edge
/// ascending — the [`ScoredEdge::ranking_cmp`] order) whose clones share
/// unmodified pages.
///
/// The run is cut into non-empty `Arc`-shared pages that partition it in
/// order. `Clone` copies the page pointers; `insert` and `remove` call
/// `Arc::make_mut` on the one page the key belongs on, split that page at
/// `2 ×` [`RUN_PAGE`] keys and drop it once empty. Equality is logical:
/// where the page boundaries fall does not matter.
///
/// # Examples
///
/// ```
/// use esd_core::cow::{CowRun, RankKey};
/// use esd_graph::Edge;
///
/// let key = |score, u, v| RankKey { score, edge: Edge::new(u, v) };
/// let mut live = CowRun::from_sorted(&[key(5, 0, 1), key(2, 0, 2)]);
/// let published = live.clone(); // copies one page pointer
/// live.insert(key(3, 1, 2)); // copies the one page it lands on
/// assert_eq!(live.top_k(2)[1].score, 3);
/// assert_eq!(published.len(), 2);
/// assert_eq!(live.pages_unshared_with(&published), 1);
/// ```
#[derive(Clone, Default)]
pub struct CowRun {
    /// Non-empty pages, each strictly rank-ascending, every key of a page
    /// ranked before every key of the next.
    pub(crate) pages: Vec<RunPage>,
    pub(crate) len: usize,
}

impl CowRun {
    /// Builds a run from keys already in strictly ascending rank order,
    /// [`RUN_PAGE`] keys to a page.
    #[must_use]
    pub fn from_sorted(keys: &[RankKey]) -> Self {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys are not strictly rank-sorted"
        );
        Self {
            pages: keys
                .chunks(RUN_PAGE)
                .map(|c| Arc::new(c.to_vec()))
                .collect(),
            len: keys.len(),
        }
    }

    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run holds no key.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every key, best first.
    pub fn iter(&self) -> impl Iterator<Item = RankKey> + '_ {
        self.pages.iter().flat_map(|page| page.iter().copied())
    }

    /// The best `k` keys as scored edges, best first.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<ScoredEdge> {
        let mut out = Vec::with_capacity(k.min(self.len));
        out.extend(self.iter().take(k).map(ScoredEdge::from));
        out
    }

    /// The page `key` belongs on: the first whose last key does not rank
    /// before it, or the last page. The run must not be empty.
    fn page_for(&self, key: &RankKey) -> usize {
        let p = self
            .pages
            .partition_point(|page| page[page.len() - 1] < *key);
        p.min(self.pages.len() - 1)
    }

    /// Adds `key`; `false` (and nothing copied) if it is already present.
    pub fn insert(&mut self, key: RankKey) -> bool {
        if self.pages.is_empty() {
            self.pages.push(Arc::new(vec![key]));
            self.len = 1;
            return true;
        }
        let p = self.page_for(&key);
        let Err(i) = self.pages[p].binary_search(&key) else {
            return false;
        };
        let page = Arc::make_mut(&mut self.pages[p]);
        page.insert(i, key);
        if page.len() >= 2 * RUN_PAGE {
            let upper = page.split_off(RUN_PAGE);
            self.pages.insert(p + 1, Arc::new(upper));
        }
        self.len += 1;
        true
    }

    /// Removes `key`; `false` (and nothing copied) if it is absent.
    pub fn remove(&mut self, key: &RankKey) -> bool {
        if self.pages.is_empty() {
            return false;
        }
        let p = self.page_for(key);
        let Ok(i) = self.pages[p].binary_search(key) else {
            return false;
        };
        if self.pages[p].len() == 1 {
            self.pages.remove(p);
        } else {
            Arc::make_mut(&mut self.pages[p]).remove(i);
        }
        self.len -= 1;
        true
    }

    /// Page identities, for counting what two clones still share.
    fn page_ptrs(&self) -> impl Iterator<Item = *const Vec<RankKey>> + '_ {
        self.pages.iter().map(Arc::as_ptr)
    }

    /// How many of this run's pages `other` does not hold — the pages the
    /// writes since the two were cloned apart have copied or created.
    #[must_use]
    pub fn pages_unshared_with(&self, other: &Self) -> usize {
        run_pages_unshared([self], [other])
    }
}

/// How many distinct pages of the runs `mine` the runs `theirs` hold
/// nowhere — for two families of runs cloned apart, the pages the writes
/// since then have copied or created. A run seeded from another run's
/// pages shares them.
pub(crate) fn run_pages_unshared<'a>(
    mine: impl IntoIterator<Item = &'a CowRun>,
    theirs: impl IntoIterator<Item = &'a CowRun>,
) -> usize {
    let theirs: HashSet<_> = theirs.into_iter().flat_map(CowRun::page_ptrs).collect();
    let mine: HashSet<_> = mine.into_iter().flat_map(CowRun::page_ptrs).collect();
    mine.difference(&theirs).count()
}

/// Logical equality: the same keys in the same order, wherever the page
/// boundaries fall.
impl PartialEq for CowRun {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for CowRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The distinct values of a sorted multiset, ascending.
fn distinct(sizes: &[u32]) -> impl Iterator<Item = u32> + '_ {
    sizes.chunk_by(|a, b| a == b).map(|run| run[0])
}

/// One ranked run per size `c` over a set of edges, each carrying a sorted
/// size multiset: run `c` holds every edge whose largest size is `≥ c`,
/// scored by how many of its sizes are `≥ c`, and a query at `τ` reads the
/// first run with `c ≥ τ`. This is the paper's index rule (§IV-A): the
/// component sizes of [`MaintainedIndex`](crate::MaintainedIndex) give its
/// `H(c)` lists, and the 3-truss core sizes of
/// [`FamilySuite`](crate::FamilySuite) give the truss rankings.
///
/// Beside the runs it keeps a refcount per size — how many edges hold it —
/// whose keys are exactly the run sizes between updates. An update
/// [`retract`](Self::retract)s each affected edge under its old sizes and
/// then [`restore`](Self::restore)s all of them under their new ones.
///
/// **Documented deviation from the paper** (see DESIGN.md §4): when a
/// restore brings a size `c` that no run has, the fresh run is seeded as a
/// clone of its successor run `c'` — a copy of its page pointers — before
/// the restored edges are inserted. The paper's Example 7 inserts only the
/// updated edge, which would leave run `c` missing every edge of run `c'`
/// and break queries with `τ ≤ c`. Cloning is correct because no edge
/// outside the update has a size strictly between `c` and `c'`, so each of
/// them scores the same at `c` as at `c'`.
///
/// # Examples
///
/// ```
/// use esd_core::cow::SizeRuns;
/// use esd_graph::Edge;
///
/// let (a, b) = (Edge::new(0, 1), Edge::new(2, 3));
/// let mut runs = SizeRuns::build([(a, &[2, 4][..]), (b, &[4][..])].into_iter());
/// assert_eq!(runs.sizes().collect::<Vec<_>>(), [2, 4]);
/// assert_eq!(runs.top_k(1, 1)[0].edge, a); // two sizes ≥ 2
///
/// // b's sizes change from {4} to {3}: size 3 is seeded from run 4.
/// runs.retract(b, &[4]);
/// runs.restore([(b, &[3][..])].into_iter());
/// assert_eq!(runs.sizes().collect::<Vec<_>>(), [2, 3, 4]);
/// assert_eq!(runs.run_len(3), Some(2));
/// assert_eq!(runs.top_k(5, 4).len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SizeRuns {
    /// Run per size `c`.
    pub(crate) runs: BTreeMap<u32, CowRun>,
    /// `c` → number of edges whose multiset holds `c`.
    pub(crate) refcounts: BTreeMap<u32, usize>,
}

impl SizeRuns {
    /// Builds the runs of `items`, each an edge and its sorted sizes
    /// (empty for an edge in no run): the sizes are counted first, then
    /// every run is filled into an exactly sized buffer and paged.
    #[must_use]
    pub fn build<'a>(items: impl Iterator<Item = (Edge, &'a [u32])> + Clone) -> Self {
        let mut out = Self::default();
        out.hold(items.clone());
        let sizes: Vec<u32> = out.sizes().collect();
        let lists = build::fill_lists(items, &sizes, 0..sizes.len());
        out.runs = sizes
            .into_iter()
            .zip(lists.into_iter().map(|keys| CowRun::from_sorted(&keys)))
            .collect();
        out
    }

    /// Counts each item's distinct sizes into the refcounts.
    fn hold<'a>(&mut self, items: impl Iterator<Item = (Edge, &'a [u32])>) {
        for (_, sizes) in items {
            for c in distinct(sizes) {
                *self.refcounts.entry(c).or_insert(0) += 1;
            }
        }
    }

    /// The sizes, ascending.
    pub fn sizes(&self) -> impl Iterator<Item = u32> + '_ {
        self.refcounts.keys().copied()
    }

    /// Key count of run `c`, if `c` is a size.
    #[must_use]
    pub fn run_len(&self, c: u32) -> Option<usize> {
        self.runs.get(&c).map(CowRun::len)
    }

    /// The best `k` keys of the run answering `tau`: the first run with
    /// `c ≥ tau`, or nothing past the largest size.
    #[must_use]
    pub fn top_k(&self, k: usize, tau: u32) -> Vec<ScoredEdge> {
        self.runs
            .range(tau..)
            .next()
            .map_or_else(Vec::new, |(_, run)| run.top_k(k))
    }

    /// How many distinct pages of these runs `other`'s hold nowhere — see
    /// [`CowRun::pages_unshared_with`]. A run seeded from its successor
    /// shares the successor's pages.
    #[must_use]
    pub fn pages_unshared_with(&self, other: &Self) -> usize {
        run_pages_unshared(self.runs.values(), other.runs.values())
    }

    /// Removes `edge`'s key from every run its old `sizes` put it in and
    /// releases those sizes. A size whose count reaches zero keeps its run
    /// until the next [`restore`](Self::restore), since the update may
    /// bring it back. Returns the number of keys removed.
    pub fn retract(&mut self, edge: Edge, sizes: &[u32]) -> u64 {
        let Some(&cmax) = sizes.last() else {
            return 0;
        };
        let mut removed = 0;
        for (&c, run) in self.runs.range_mut(..=cmax) {
            let score = score_from_sizes(sizes, c);
            let found = run.remove(&RankKey { score, edge });
            debug_assert!(found, "stale key for {edge} in run {c}");
            removed += 1;
        }
        for c in distinct(sizes) {
            *self.refcounts.get_mut(&c).expect("refcounted size") -= 1;
        }
        removed
    }

    /// Re-inserts retracted edges under their new sizes: holds the new
    /// sizes, reaps every size no edge holds any more, seeds each fresh
    /// size's run from its successor (largest first), then inserts the
    /// keys. Returns the number of keys inserted.
    pub fn restore<'a>(&mut self, items: impl Iterator<Item = (Edge, &'a [u32])> + Clone) -> u64 {
        self.hold(items.clone());
        self.refcounts.retain(|_, n| *n > 0);
        let counts = &self.refcounts;
        self.runs.retain(|c, _| counts.contains_key(c));
        let fresh: Vec<u32> = counts
            .keys()
            .rev()
            .copied()
            .filter(|c| !self.runs.contains_key(c))
            .collect();
        for c in fresh {
            let seeded = self
                .runs
                .range(c + 1..)
                .next()
                .map(|(_, successor)| successor.clone())
                .unwrap_or_default();
            self.runs.insert(c, seeded);
        }
        let mut inserted = 0;
        for (edge, sizes) in items {
            let Some(&cmax) = sizes.last() else {
                continue;
            };
            for (&c, run) in self.runs.range_mut(..=cmax) {
                let score = score_from_sizes(sizes, c);
                let added = run.insert(RankKey { score, edge });
                debug_assert!(added, "duplicate key for {edge} in run {c}");
                inserted += 1;
            }
        }
        inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};

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

    fn rk(score: u32, u: u32, v: u32) -> RankKey {
        RankKey {
            score,
            edge: esd_graph::Edge::new(u, v),
        }
    }

    #[test]
    fn run_basic_operations() {
        let mut run = CowRun::default();
        assert!(run.is_empty());
        assert!(!run.remove(&rk(1, 0, 1)));
        assert!(run.insert(rk(1, 0, 1)));
        assert!(run.insert(rk(4, 2, 3)));
        assert!(run.insert(rk(1, 0, 2)));
        assert!(!run.insert(rk(4, 2, 3)));
        assert_eq!(run.len(), 3);
        let top: Vec<(u32, u32)> = run.top_k(2).iter().map(|s| (s.score, s.edge.v)).collect();
        assert_eq!(top, [(4, 3), (1, 1)]);
        assert_eq!(run.top_k(usize::MAX).len(), 3);
        assert!(run.top_k(0).is_empty());
        assert!(run.remove(&rk(4, 2, 3)));
        assert!(!run.remove(&rk(4, 2, 3)));
        assert_eq!(run.len(), 2);
        assert!(run.validate().is_empty());
    }

    #[test]
    fn run_pages_split_at_twice_the_page_and_empty_pages_drop() {
        let n = 5 * RUN_PAGE as u32;
        let keys: Vec<RankKey> = (0..n).map(|i| rk(1, 0, i + 1)).collect();
        let mut run = CowRun::default();
        for &key in &keys {
            run.insert(key);
        }
        // Appending fills the last page to 2 × RUN_PAGE and halves it, so
        // n = 5 × RUN_PAGE ascending inserts leave five full pages.
        assert_eq!(run.pages.len(), 5);
        assert!(run.pages.iter().all(|p| p.len() == RUN_PAGE));
        assert_eq!(run, CowRun::from_sorted(&keys));
        for key in &keys[..RUN_PAGE] {
            assert!(run.remove(key));
        }
        assert_eq!(run.pages.len(), 4, "the emptied first page is dropped");
        assert_eq!(run.len(), keys.len() - RUN_PAGE);
        for key in &keys[RUN_PAGE..] {
            assert!(run.remove(key));
        }
        assert!(run.is_empty() && run.pages.is_empty());
        assert!(run.validate().is_empty());
    }

    #[test]
    fn run_clone_shares_pages_until_a_write() {
        let n = 4 * RUN_PAGE as u32;
        let keys: Vec<RankKey> = (0..n).map(|i| rk(n - i, 0, i + 1)).collect();
        let mut live = CowRun::from_sorted(&keys);
        let snap = live.clone();
        assert_eq!(live.pages_unshared_with(&snap), 0);
        assert!(live.remove(&keys[10]));
        assert!(live.insert(rk(0, 7, 9))); // ranks last: the last page
        assert_eq!(live.pages_unshared_with(&snap), 2);
        // Misses copy nothing.
        assert!(!live.remove(&keys[10]));
        assert!(!live.insert(keys[11]));
        assert_eq!(live.pages_unshared_with(&snap), 2);
        assert_eq!(snap, CowRun::from_sorted(&keys));
        assert_ne!(live, snap);
    }

    #[derive(Debug, Clone)]
    enum RunOp {
        Insert(RankKey),
        Remove(RankKey),
        /// Inserts every key of one score and one endpoint: a burst that
        /// lands on few pages.
        Burst(u32, u32),
        Snapshot,
    }

    fn rank_key() -> impl Strategy<Value = RankKey> {
        (0u32..6, 0u32..30, 1u32..30).prop_map(|(score, u, d)| rk(score, u, (u + d) % 30))
    }

    fn run_op() -> impl Strategy<Value = RunOp> {
        (0u8..8, rank_key()).prop_map(|(kind, key)| match kind {
            0..=2 => RunOp::Insert(key),
            3..=5 => RunOp::Remove(key),
            6 => RunOp::Burst(key.score, key.edge.u),
            _ => RunOp::Snapshot,
        })
    }

    proptest! {
        #[test]
        fn run_matches_btreeset_and_clones_stay_frozen(
            base in proptest::collection::vec(rank_key(), 0..2000),
            ops in proptest::collection::vec(run_op(), 0..150),
            k in 0usize..700,
        ) {
            let mut model: BTreeSet<RankKey> = base.into_iter().collect();
            let sorted: Vec<RankKey> = model.iter().copied().collect();
            let mut run = CowRun::from_sorted(&sorted);
            let mut frozen: Vec<(CowRun, BTreeSet<RankKey>)> = Vec::new();
            for op in ops {
                match op {
                    RunOp::Insert(key) => prop_assert_eq!(run.insert(key), model.insert(key)),
                    RunOp::Remove(key) => prop_assert_eq!(run.remove(&key), model.remove(&key)),
                    RunOp::Burst(score, u) => {
                        for v in (0..30).filter(|&v| v != u) {
                            let key = rk(score, u, v);
                            prop_assert_eq!(run.insert(key), model.insert(key));
                        }
                    }
                    RunOp::Snapshot => frozen.push((run.clone(), model.clone())),
                }
                prop_assert_eq!(run.len(), model.len());
            }
            prop_assert_eq!(run.validate(), Vec::new());
            prop_assert!(run.iter().eq(model.iter().copied()));
            let want: Vec<ScoredEdge> = model.iter().take(k).map(|&key| key.into()).collect();
            prop_assert_eq!(run.top_k(k), want);
            // Bulk-built, grown by inserts from the front (which splits
            // pages), and maintained: three page layouts, one content.
            let sorted: Vec<RankKey> = model.iter().copied().collect();
            let bulk = CowRun::from_sorted(&sorted);
            let mut grown = CowRun::default();
            for &key in sorted.iter().rev() {
                grown.insert(key);
            }
            prop_assert_eq!(grown.validate(), Vec::new());
            prop_assert_eq!(&grown, &bulk);
            prop_assert_eq!(&run, &bulk);
            // Writing after a clone never changed the clone.
            for (snap, at) in &frozen {
                prop_assert_eq!(snap.len(), at.len());
                prop_assert!(snap.iter().eq(at.iter().copied()));
            }
        }
    }

    /// A sorted multiset of up to three sizes drawn from `sizes`.
    fn multiset(sizes: impl Strategy<Value = u32>) -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(sizes, 0..4).prop_map(|mut s| {
            s.sort_unstable();
            s
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn size_runs_match_build_across_windows(
            // Every edge starts on sizes {2, 5, 9}. Windows rewrite the
            // first 12 edges with sizes from 1..=14, so they create sizes in
            // the gaps (seeded from a successor) and retire them again
            // (reaped), while the other edges keep the seeds' runs large.
            base in proptest::collection::vec(
                multiset((0usize..3).prop_map(|i| [2, 5, 9][i])),
                800..1600,
            ),
            windows in proptest::collection::vec(
                proptest::collection::vec(
                    (0usize..12, multiset(1u32..=14)),
                    1..4,
                ),
                1..8,
            ),
        ) {
            let edge = |i: usize| Edge::new(0, i as u32 + 1);
            let items = |sizes: &[Vec<u32>]| -> Vec<(Edge, Vec<u32>)> {
                sizes.iter().enumerate().map(|(i, s)| (edge(i), s.clone())).collect()
            };
            let mut sizes = base;
            let start = items(&sizes);
            let mut runs = SizeRuns::build(start.iter().map(|(e, s)| (*e, s.as_slice())));
            for window in windows {
                let mut picked = window;
                picked.sort_by_key(|&(i, _)| i);
                picked.dedup_by_key(|&mut (i, _)| i);
                // Retract edits one key per run at or below the largest size.
                for (i, _) in &picked {
                    let old = &sizes[*i];
                    let runs_below = runs.runs.range(..=old.last().copied().unwrap_or(0)).count();
                    prop_assert_eq!(runs.retract(edge(*i), old), runs_below as u64);
                }
                let retracted = runs.clone();
                for (i, new) in &picked {
                    sizes[*i].clone_from(new);
                }
                let restored: Vec<(Edge, &[u32])> =
                    picked.iter().map(|(i, s)| (edge(*i), s.as_slice())).collect();
                let inserted = runs.restore(restored.iter().copied());
                let keys_at = |c: u32| -> u64 {
                    restored.iter().filter(|(_, s)| s.last().is_some_and(|&m| m >= c)).count() as u64
                };
                prop_assert_eq!(inserted, runs.sizes().map(keys_at).sum::<u64>());
                // Equal to a build of the final multisets: same runs, and
                // refcounts with every dead size reaped.
                let now = items(&sizes);
                let want = SizeRuns::build(now.iter().map(|(e, s)| (*e, s.as_slice())));
                prop_assert_eq!(&runs, &want);
                prop_assert!(runs.validate(now.iter().map(|(e, s)| (*e, s.as_slice()))).is_empty());
                // A fresh size was seeded with the pages of the nearest
                // larger size that survived the window; each of its own
                // inserts since copied at most one of them.
                for c in runs.sizes().filter(|c| !retracted.runs.contains_key(c)) {
                    let seed = retracted
                        .runs
                        .iter()
                        .find(|&(&s, _)| s > c && runs.refcounts.contains_key(&s));
                    if let Some((_, seed)) = seed {
                        let lost = seed.pages_unshared_with(&runs.runs[&c]) as u64;
                        prop_assert!(lost <= keys_at(c), "size {}: {} seed pages lost", c, lost);
                    }
                }
            }
        }
    }
}
