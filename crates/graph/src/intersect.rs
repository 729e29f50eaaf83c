//! Sorted-set intersection kernels.
//!
//! Every hot loop of the ESD algorithms intersects sorted adjacency lists:
//! common neighbourhoods `N(u) ∩ N(v)` (Definition 1), the candidate sets of
//! the generic k-clique lister, and the exact ego-network BFS of the online
//! search. Two strategies are provided and a fixed dispatcher picks between
//! them:
//!
//! * [`intersect_merge`] — linear two-pointer merge, best when the lists have
//!   comparable lengths. It is the reference implementation.
//! * [`intersect_gallop`] — galloping (exponential) search of the longer list
//!   for each element of the shorter, `O(s·log(l/s))`, best for very skewed
//!   length ratios (a low-degree vertex against a hub).
//!
//! [`intersect_into`] / [`intersection_size`] dispatch on the two list
//! lengths alone: gallop once `long / short` reaches [`GALLOP_RATIO`], merge
//! otherwise. Both entry points run the same kernel bodies through a sink
//! closure, so materialising and counting cannot drift apart. Each dispatch
//! bumps one of the `intersect.merge` / `intersect.gallop` telemetry
//! counters (the single owning call site is the dispatcher), so a counter
//! delta tells you exactly which kernels a workload exercised — see
//! `docs/kernels.md` for how to read one.
//!
//! Under the `strict-invariants` feature every gallop dispatch re-runs
//! [`intersect_merge`] on the same inputs and asserts identical output, so
//! any workload run with the feature armed *proves* kernel agreement on the
//! exact slices it intersected.

use crate::VertexId;

/// Length ratio `long / short` at which galloping beats the linear merge.
/// Measured on pseudorandom lists with a 64-element short side; the 16–64
/// band is within noise, and 16 ships.
pub const GALLOP_RATIO: usize = 16;

/// The dispatch threshold, as a value.
///
/// The dispatcher is fixed: [`kernel_config`] always returns the default,
/// which carries [`GALLOP_RATIO`]. The type remains so callers that check
/// they run the shipped dispatch keep compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Dispatch to [`intersect_gallop`] when `long.len() / short.len()`
    /// reaches this ratio.
    pub gallop_ratio: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            gallop_ratio: GALLOP_RATIO,
        }
    }
}

/// The dispatch threshold in use — always [`KernelConfig::default`].
#[must_use]
pub fn kernel_config() -> KernelConfig {
    KernelConfig::default()
}

/// Which kernel the dispatcher selected for a pair of lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Linear two-pointer merge.
    Merge,
    /// Exponential + binary search of the longer list.
    Gallop,
}

/// The kernel the dispatcher picks for these inputs. Pure — no counters
/// move. Both slices must be non-empty (the dispatcher answers trivially
/// before choosing otherwise).
#[must_use]
pub fn choose_kernel(a: &[VertexId], b: &[VertexId]) -> Kernel {
    debug_assert!(!a.is_empty() && !b.is_empty());
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() / short.len() >= GALLOP_RATIO {
        Kernel::Gallop
    } else {
        Kernel::Merge
    }
}

/// Two-pointer merge of two sorted slices, feeding each common element to
/// `sink` in ascending order.
#[inline]
fn merge_with(a: &[VertexId], b: &[VertexId], mut sink: impl FnMut(VertexId)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sink(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping search of `long` for each element of `short`, feeding each
/// common element to `sink` in ascending order.
#[inline]
fn gallop_with(short: &[VertexId], long: &[VertexId], mut sink: impl FnMut(VertexId)) {
    debug_assert!(short.len() <= long.len());
    let mut lo = 0usize;
    for &x in short {
        // Exponential probe from the current frontier.
        let mut step = 1usize;
        let mut hi = lo;
        while hi < long.len() && long[hi] < x {
            lo = hi + 1;
            hi = lo + step;
            step <<= 1;
        }
        // `long[hi]` (if in range) is >= x, so include it in the window.
        let hi = (hi + 1).min(long.len());
        match long[lo..hi].binary_search(&x) {
            Ok(pos) => {
                sink(x);
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
        if lo >= long.len() {
            break;
        }
    }
}

/// Two-pointer merge intersection of two sorted slices.
pub fn intersect_merge(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    merge_with(a, b, |x| out.push(x));
}

/// Galloping intersection: for each element of the shorter slice, locate it
/// in the (much) longer slice by exponential + binary search.
pub fn intersect_gallop(short: &[VertexId], long: &[VertexId], out: &mut Vec<VertexId>) {
    gallop_with(short, long, |x| out.push(x));
}

/// Re-runs gallop and the reference merge on the same inputs and asserts
/// identical output — the `strict-invariants` proof that every gallop
/// dispatch is result-identical to [`intersect_merge`].
#[cfg(feature = "strict-invariants")]
fn verify_gallop_against_merge(short: &[VertexId], long: &[VertexId]) {
    let (mut got, mut expect) = (Vec::new(), Vec::new());
    intersect_gallop(short, long, &mut got);
    intersect_merge(short, long, &mut expect);
    assert_eq!(got, expect, "gallop kernel disagrees with merge");
}

/// The one dispatcher behind [`intersect_into`] and [`intersection_size`],
/// and the one owning call site of the `intersect.*` counters: every
/// non-trivial intersection records its kernel here, so the two counters
/// sum to the number of dispatches performed.
#[inline]
fn dispatch(a: &[VertexId], b: &[VertexId], sink: impl FnMut(VertexId)) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return;
    }
    match choose_kernel(short, long) {
        Kernel::Merge => {
            esd_telemetry::add(esd_telemetry::Metric::IntersectMerge, 1);
            merge_with(short, long, sink);
        }
        Kernel::Gallop => {
            esd_telemetry::add(esd_telemetry::Metric::IntersectGallop, 1);
            #[cfg(feature = "strict-invariants")]
            verify_gallop_against_merge(short, long);
            gallop_with(short, long, sink);
        }
    }
}

/// Intersects two sorted slices, dispatching per [`choose_kernel`] and
/// recording the chosen kernel in the `intersect.*` telemetry counters.
pub fn intersect_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    dispatch(a, b, |x| out.push(x));
}

/// Allocating convenience wrapper around [`intersect_into`].
#[must_use]
pub fn intersect_adaptive(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_into(a, b, &mut out);
    out
}

/// `|a ∩ b|` without materialising the intersection. Dispatches and counts
/// exactly like [`intersect_into`].
#[must_use]
pub fn intersection_size(a: &[VertexId], b: &[VertexId]) -> usize {
    let mut count = 0;
    dispatch(a, b, |_| count += 1);
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn merge_basic() {
        let mut out = Vec::new();
        intersect_merge(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], &mut out);
        assert_eq!(out, vec![3, 7]);
    }

    #[test]
    fn gallop_basic() {
        let long: Vec<u32> = (0..1000).map(|x| x * 3).collect();
        let mut out = Vec::new();
        intersect_gallop(&[3, 4, 9, 2997, 2998], &long, &mut out);
        assert_eq!(out, vec![3, 9, 2997]);
    }

    #[test]
    fn kernels_handle_max_ids() {
        let a = vec![0, 63, 64, 127, u32::MAX - 1, u32::MAX];
        let b = vec![63, 100, 127, 128, u32::MAX];
        let mut out = Vec::new();
        intersect_merge(&a, &b, &mut out);
        assert_eq!(out, vec![63, 127, u32::MAX]);
        out.clear();
        intersect_gallop(&b, &a, &mut out);
        assert_eq!(out, vec![63, 127, u32::MAX]);
        assert_eq!(intersection_size(&a, &b), 3);
    }

    #[test]
    fn empty_inputs() {
        assert!(intersect_adaptive(&[], &[1, 2, 3]).is_empty());
        assert!(intersect_adaptive(&[1, 2, 3], &[]).is_empty());
        assert_eq!(intersection_size(&[], &[]), 0);
        let mut out = Vec::new();
        intersect_gallop(&[], &[1], &mut out);
        intersect_merge(&[1], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn disjoint_and_identical() {
        assert!(intersect_adaptive(&[1, 3], &[2, 4]).is_empty());
        assert_eq!(intersect_adaptive(&[5, 6, 7], &[5, 6, 7]), vec![5, 6, 7]);
    }

    #[test]
    fn dispatcher_picks_each_kernel_under_forced_thresholds() {
        // Skewed lengths → gallop.
        let long: Vec<u32> = (0..4096).collect();
        assert_eq!(choose_kernel(&[5, 9], &long), Kernel::Gallop);
        // Balanced lists → merge, however dense or sparse.
        let dense: Vec<u32> = (0..256).collect();
        assert_eq!(choose_kernel(&dense, &dense), Kernel::Merge);
        let sparse: Vec<u32> = (0..256).map(|i| i * 1000).collect();
        assert_eq!(choose_kernel(&sparse, &sparse), Kernel::Merge);
        // The boundary: `long / short == GALLOP_RATIO` gallops, one less
        // merges, in either argument order.
        let short: Vec<u32> = (0..4).collect();
        let at: Vec<u32> = (0..(4 * GALLOP_RATIO) as u32).collect();
        let below: Vec<u32> = (0..(4 * (GALLOP_RATIO - 1)) as u32).collect();
        assert_eq!(choose_kernel(&short, &at), Kernel::Gallop);
        assert_eq!(choose_kernel(&at, &short), Kernel::Gallop);
        assert_eq!(choose_kernel(&short, &below), Kernel::Merge);
        assert_eq!(choose_kernel(&below, &short), Kernel::Merge);
        // The config shim reports the one shipped threshold.
        assert_eq!(kernel_config(), KernelConfig::default());
        assert_eq!(kernel_config().gallop_ratio, GALLOP_RATIO);
    }

    fn sorted_set() -> impl Strategy<Value = Vec<u32>> {
        prop::collection::btree_set(0u32..500, 0..120).prop_map(|s| s.into_iter().collect())
    }

    proptest! {
        #[test]
        fn all_kernels_match_btreeset(a in sorted_set(), b in sorted_set()) {
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();
            let expect: Vec<u32> = sa.intersection(&sb).copied().collect();

            let mut merge = Vec::new();
            intersect_merge(&a, &b, &mut merge);
            prop_assert_eq!(&merge, &expect);

            let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
            let mut gallop = Vec::new();
            intersect_gallop(short, long, &mut gallop);
            prop_assert_eq!(&gallop, &expect);

            prop_assert_eq!(&intersect_adaptive(&a, &b), &expect);
            prop_assert_eq!(intersection_size(&a, &b), expect.len());
        }
    }
}
