//! Differential suite for the intersection kernels: gallop, the fixed
//! dispatcher and the counting entry point must agree exactly with
//! `intersect_merge`, which is the reference the `strict-invariants` build
//! also verifies every gallop dispatch against inline. The clique tests pin
//! the downstream consumer: the `WordTiles`-based 4-clique enumerator must
//! count exactly what the generic k-clique lister counts on generator
//! graphs across densities.

use esd_graph::cliques::{count_four_cliques, list_k_cliques};
use esd_graph::intersect::{
    choose_kernel, intersect_adaptive, intersect_gallop, intersect_into, intersect_merge,
    intersection_size, Kernel, WordTiles, GALLOP_RATIO,
};
use esd_graph::{generators, VertexId};
use proptest::prelude::*;

fn merge(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let mut out = Vec::new();
    intersect_merge(a, b, &mut out);
    out
}

/// Asserts that gallop, the dispatcher and the counting entry point, in
/// both argument orders, agree with the merge reference on `(a, b)`.
fn assert_all_kernels_agree(a: &[VertexId], b: &[VertexId]) {
    let expected = merge(a, b);
    for (x, y) in [(a, b), (b, a)] {
        assert_eq!(merge(x, y), expected, "merge is not symmetric");
        let mut got = Vec::new();
        intersect_into(x, y, &mut got);
        assert_eq!(got, expected, "adaptive dispatch disagrees with merge");
        assert_eq!(
            intersection_size(x, y),
            expected.len(),
            "intersection_size disagrees with merge"
        );
        assert_eq!(intersect_adaptive(x, y), expected);
    }
    // Gallop's contract requires the shorter list first.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut got = Vec::new();
    intersect_gallop(short, long, &mut got);
    assert_eq!(got, expected, "gallop disagrees with merge");
}

#[test]
fn adversarial_cases() {
    let empty: &[VertexId] = &[];
    let one = &[7u32][..];
    let identical: Vec<VertexId> = (0..200).map(|x| x * 3).collect();
    let disjoint_a: Vec<VertexId> = (0..200).map(|x| x * 2).collect();
    let disjoint_b: Vec<VertexId> = (0..200).map(|x| x * 2 + 1).collect();
    // A high-degree hub packed densely into few ids against a sparse list
    // spread over a wide range — the gallop jumps have to land exactly.
    let dense: Vec<VertexId> = (0..512).collect();
    let sparse: Vec<VertexId> = (0..512).map(|x| x * 67).collect();
    let near_max: Vec<VertexId> = (0..64).map(|x| u32::MAX - 63 + x).collect();

    let cases: &[(&[VertexId], &[VertexId])] = &[
        (empty, empty),
        (empty, one),
        (one, one),
        (one, &identical),
        (&identical, &identical),
        (&disjoint_a, &disjoint_b),
        (&dense, &sparse),
        (&dense, &near_max),
        (&near_max, &near_max),
    ];
    for &(a, b) in cases {
        assert_all_kernels_agree(a, b);
    }
}

#[test]
fn agreement_holds_on_both_dispatch_arms() {
    // One balanced pair (merge) and one pair skewed exactly to the gallop
    // ratio (gallop): the result must not depend on which kernel computed
    // it (choose_kernel is pure, so we can check which one fires without
    // touching the telemetry registry).
    let a: Vec<VertexId> = (0..300).map(|x| x * 5).collect();
    let b: Vec<VertexId> = (0..900).map(|x| x * 2).collect();
    let hub: Vec<VertexId> = (0..(300 * GALLOP_RATIO) as u32).collect();
    for (x, y, kernel) in [(&a, &b, Kernel::Merge), (&a, &hub, Kernel::Gallop)] {
        assert_eq!(choose_kernel(x, y), kernel);
        assert_eq!(choose_kernel(y, x), kernel);
        assert_all_kernels_agree(x, y);
    }
}

proptest! {
    /// Narrow dense ranges: long runs of consecutive ids, so most probes
    /// hit and the merge and gallop frontiers advance in lockstep.
    #[test]
    fn kernels_agree_on_dense_ranges(
        mut a in proptest::collection::btree_set(0u32..256, 0..128),
        mut b in proptest::collection::btree_set(0u32..256, 0..128),
    ) {
        let a: Vec<VertexId> = std::mem::take(&mut a).into_iter().collect();
        let b: Vec<VertexId> = std::mem::take(&mut b).into_iter().collect();
        assert_all_kernels_agree(&a, &b);
    }

    /// Wide sparse ranges up to `u32::MAX`: ids at the top of the range
    /// must compare and emit without overflow.
    #[test]
    fn kernels_agree_on_sparse_ranges(
        mut a in proptest::collection::btree_set(0u32..=u32::MAX, 0..64),
        mut b in proptest::collection::btree_set(0u32..=u32::MAX, 0..64),
    ) {
        let a: Vec<VertexId> = std::mem::take(&mut a).into_iter().collect();
        let b: Vec<VertexId> = std::mem::take(&mut b).into_iter().collect();
        assert_all_kernels_agree(&a, &b);
    }

    /// `WordTiles` streaming must behave exactly like membership in the
    /// built set, in input order.
    #[test]
    fn word_tiles_stream_matches_membership(
        mut base in proptest::collection::btree_set(0u32..2048, 0..256),
        probe in proptest::collection::vec(0u32..2048, 0..256),
    ) {
        let base: Vec<VertexId> = std::mem::take(&mut base).into_iter().collect();
        let mut sorted_probe = probe.clone();
        sorted_probe.sort_unstable();
        sorted_probe.dedup();
        let mut tiles = WordTiles::new();
        tiles.build(&base);
        let mut streamed = Vec::new();
        tiles.intersect_sorted(&sorted_probe, |x| streamed.push(x));
        let expected: Vec<VertexId> = sorted_probe
            .iter()
            .copied()
            .filter(|&x| base.binary_search(&x).is_ok())
            .collect();
        prop_assert_eq!(streamed, expected);
        for &x in &probe {
            prop_assert_eq!(tiles.contains(x), base.binary_search(&x).is_ok());
        }
    }
}

/// The 4-clique enumerator (WordTiles tiling) against the generic k-clique
/// lister (adaptive intersections) — two independent code paths whose
/// counts must match on every graph.
fn assert_clique_counts_agree(g: &esd_graph::Graph) {
    let mut generic = 0u64;
    list_k_cliques(g, 4, |_| generic += 1);
    assert_eq!(count_four_cliques(g), generic);
}

#[test]
fn clique_counts_agree_across_densities() {
    for (n, p) in [(60, 0.05), (60, 0.15), (40, 0.35), (24, 0.6), (16, 0.9)] {
        for seed in 0..3 {
            assert_clique_counts_agree(&generators::erdos_renyi(n, p, seed));
        }
    }
    // Clique-overlap graphs are the worst case for the tiling: large fully
    // dense common neighbourhoods.
    for seed in 0..3 {
        assert_clique_counts_agree(&generators::clique_overlap(80, 8, 12, seed));
    }
    // Skewed degrees exercise the gallop arm inside the enumerator.
    assert_clique_counts_agree(&generators::barabasi_albert(120, 4, 7));
}
