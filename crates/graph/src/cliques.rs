//! Clique enumeration.
//!
//! The improved index construction (Algorithm 3) is powered by Observation 1
//! of the paper: `{u, v, w1, w2}` is a 4-clique iff `(w1, w2)` is an edge of
//! the ego-network `G_{N(uv)}`. [`for_each_four_clique`] lists each 4-clique
//! of the graph exactly once on a DAG orientation in `O(α²m)`
//! (Chiba–Nishizeki), together with the edge ids of its six edges. A
//! generic recursive k-clique lister ([`list_k_cliques`]) is provided as
//! well; it is the reference the 4-clique kernel is tested against.

use crate::{EdgeId, Graph, OrientedGraph, VertexId};
use std::ops::Range;

/// Lists every 4-clique whose first arc `u → v` lies in `arcs` exactly once
/// as `f([e_uv, e_uw1, e_uw2, e_vw1, e_vw2, e_w1w2], u, v, w1, w2)`, where
/// `u → v`, `u → w1`, `u → w2`, `v → w1`, `v → w2` and `w1 → w2` are arcs of
/// the DAG and each `e_xy` is the id of the undirected edge `{x, y}`.
///
/// `arcs` is a range of arc positions in CSR order (the out-arcs of vertex
/// 0, then of vertex 1, …), so `0..dag.num_edges()` is a whole pass and
/// consecutive ranges split one pass between workers — a cut may fall
/// inside a vertex's out-arcs.
///
/// This is [`crate::triangles::for_each_triangle`] one level deeper, with
/// two vertex-indexed mark arrays. For each `u`, the out-arcs of `u` are
/// marked with their edge ids. For each arc `u → v`, the walk of `N⁺(v)`
/// collects `C = N⁺(u) ∩ N⁺(v)` as `(w, e_uw, e_vw)` triples, and each
/// member of `C` is marked with its position in `C`. Then for each
/// `w1 ∈ C` the walk of `N⁺(w1)` finds every `w2 ∈ C` with one probe,
/// and the two marks name all six edges. The walks make
/// `Σ_{u→v} d⁺(v) + Σ_{w1∈C} d⁺(w1)` probes and no intersection.
/// Cliques are emitted grouped by `u` ascending, then `v` in `N⁺(u)`
/// order, then `w1` ascending, then `w2` ascending.
///
/// The `cliques.enumerated` counter is recorded here and nowhere else, so
/// every consumer shares one definition of it.
pub fn for_each_four_clique(
    dag: &OrientedGraph,
    arcs: Range<usize>,
    mut f: impl FnMut([EdgeId; 6], VertexId, VertexId, VertexId, VertexId),
) {
    assert!(arcs.end <= dag.num_edges(), "arc range out of bounds");
    if arcs.is_empty() {
        return;
    }
    const UNMARKED: u32 = u32::MAX;
    // `edge_to_u[w]` = `e_uw` for `w ∈ N⁺(u)`; `in_common[w]` = the
    // position of `w` in `common`.
    let mut edge_to_u = vec![UNMARKED; dag.num_vertices()];
    let mut in_common = vec![UNMARKED; dag.num_vertices()];
    let mut common: Vec<(VertexId, EdgeId, EdgeId)> = Vec::new();
    let mut emitted = 0u64;
    let offsets = dag.arc_offsets();
    // The tail of the first arc, then each later vertex in turn.
    let mut u = (offsets.partition_point(|&o| o <= arcs.start) - 1) as VertexId;
    let mut arc = arcs.start;
    while arc < arcs.end {
        let (start, end) = (offsets[u as usize], offsets[u as usize + 1].min(arcs.end));
        let (out_u, ids_u) = (dag.out_neighbors(u), dag.out_edge_ids(u));
        // This vertex's arcs inside the range, as local positions.
        let (first, last) = (arc - start, end - start);
        arc = end;
        for (&w, &e_uw) in out_u.iter().zip(ids_u) {
            edge_to_u[w as usize] = e_uw;
        }
        for (&v, &e_uv) in out_u[first..last].iter().zip(&ids_u[first..last]) {
            common.clear();
            for (&w, &e_vw) in dag.out_neighbors(v).iter().zip(dag.out_edge_ids(v)) {
                let e_uw = edge_to_u[w as usize];
                if e_uw != UNMARKED {
                    in_common[w as usize] = common.len() as u32;
                    common.push((w, e_uw, e_vw));
                }
            }
            for &(w1, e_uw1, e_vw1) in &common {
                let out_w1 = dag.out_neighbors(w1).iter();
                for (&w2, &e_w1w2) in out_w1.zip(dag.out_edge_ids(w1)) {
                    let at = in_common[w2 as usize];
                    if at != UNMARKED {
                        let (_, e_uw2, e_vw2) = common[at as usize];
                        emitted += 1;
                        f([e_uv, e_uw1, e_uw2, e_vw1, e_vw2, e_w1w2], u, v, w1, w2);
                    }
                }
            }
            for &(w, _, _) in &common {
                in_common[w as usize] = UNMARKED;
            }
        }
        for &w in out_u {
            edge_to_u[w as usize] = UNMARKED;
        }
        u += 1;
    }
    esd_telemetry::add(esd_telemetry::Metric::CliquesEnumerated, emitted);
}

/// Counts all 4-cliques of `g`.
pub fn count_four_cliques(g: &Graph) -> u64 {
    let dag = OrientedGraph::by_degree(g);
    let mut count = 0u64;
    for_each_four_clique(&dag, 0..dag.num_edges(), |_, _, _, _, _| count += 1);
    count
}

/// Lists each k-clique of `g` exactly once (vertices passed in DAG order).
///
/// Generic Chiba–Nishizeki-style recursion on the degree-ordered DAG; runs in
/// `O(k · m · α^(k-2))`. `k` must be at least 1; a `k` above the vertex
/// count lists nothing and allocates nothing.
pub fn list_k_cliques(g: &Graph, k: usize, mut f: impl FnMut(&[VertexId])) {
    assert!(k >= 1, "clique size must be positive");
    if k > g.num_vertices() {
        return;
    }
    if k == 1 {
        for v in g.vertices() {
            f(&[v]);
        }
        return;
    }
    let dag = OrientedGraph::by_degree(g);
    let mut prefix = Vec::with_capacity(k);
    // Candidate sets per recursion level, reused across the whole run.
    let mut levels: Vec<Vec<VertexId>> = vec![Vec::new(); k];
    for u in 0..dag.num_vertices() as VertexId {
        prefix.push(u);
        levels[1].clear();
        levels[1].extend_from_slice(dag.out_neighbors(u));
        recurse(&dag, k, 1, &mut prefix, &mut levels, &mut f);
        prefix.pop();
    }

    fn recurse(
        dag: &OrientedGraph,
        k: usize,
        depth: usize,
        prefix: &mut Vec<VertexId>,
        levels: &mut [Vec<VertexId>],
        f: &mut impl FnMut(&[VertexId]),
    ) {
        if depth + 1 == k {
            #[allow(
                clippy::needless_range_loop,
                reason = "indexing (not iterating) keeps `levels` free for \
                          the `prefix` mutation inside the loop"
            )]
            for i in 0..levels[depth].len() {
                let w = levels[depth][i];
                prefix.push(w);
                f(prefix);
                prefix.pop();
            }
            return;
        }
        let candidates = std::mem::take(&mut levels[depth]);
        for &w in &candidates {
            let (_, rest) = levels.split_at_mut(depth + 1);
            let next = &mut rest[0];
            next.clear();
            crate::intersect::intersect_into(&candidates, dag.out_neighbors(w), next);
            if next.len() + depth + 1 >= k {
                prefix.push(w);
                recurse(dag, k, depth + 1, prefix, levels, f);
                prefix.pop();
            }
        }
        levels[depth] = candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn brute_force_k_cliques(g: &Graph, k: usize) -> BTreeSet<Vec<VertexId>> {
        let n = g.num_vertices();
        let mut found = BTreeSet::new();
        let mut combo: Vec<usize> = (0..k).collect();
        if k > n {
            return found;
        }
        loop {
            let verts: Vec<VertexId> = combo.iter().map(|&i| i as VertexId).collect();
            let is_clique = verts
                .iter()
                .enumerate()
                .all(|(i, &a)| verts[i + 1..].iter().all(|&b| g.has_edge(a, b)));
            if is_clique {
                found.insert(verts);
            }
            // Next combination.
            let mut i = k;
            loop {
                if i == 0 {
                    return found;
                }
                i -= 1;
                if combo[i] != i + n - k {
                    break;
                }
                if i == 0 {
                    return found;
                }
            }
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
        }
    }

    #[test]
    fn k5_has_five_four_cliques() {
        let g = generators::complete(5);
        assert_eq!(count_four_cliques(&g), 5);
    }

    #[test]
    fn k6_counts() {
        let g = generators::complete(6);
        assert_eq!(count_four_cliques(&g), 15); // C(6,4)
        let mut fives = 0;
        list_k_cliques(&g, 5, |_| fives += 1);
        assert_eq!(fives, 6); // C(6,5)
        let mut sixes = 0;
        list_k_cliques(&g, 6, |_| sixes += 1);
        assert_eq!(sixes, 1);
    }

    /// Every 4-clique of one pass, as sorted vertex quadruples, after
    /// checking that each of the six ids names the right edge.
    fn checked_pass(g: &Graph, dag: &OrientedGraph, arcs: Range<usize>) -> Vec<[VertexId; 4]> {
        let mut listed = Vec::new();
        for_each_four_clique(dag, arcs, |ids, u, v, w1, w2| {
            let pairs = [(u, v), (u, w1), (u, w2), (v, w1), (v, w2), (w1, w2)];
            for (id, (a, b)) in ids.into_iter().zip(pairs) {
                assert_eq!(g.edge(id), crate::Edge::new(a, b));
            }
            let mut verts = [u, v, w1, w2];
            verts.sort_unstable();
            listed.push(verts);
        });
        listed
    }

    #[test]
    fn kernel_names_each_clique_edge_once() {
        for g in [
            generators::erdos_renyi(40, 0.25, 17),
            generators::clique_overlap(80, 40, 6, 3),
        ] {
            let brute = brute_force_k_cliques(&g, 4);
            assert!(!brute.is_empty());
            for dag in [
                OrientedGraph::by_degree(&g),
                OrientedGraph::by_degeneracy(&g),
            ] {
                let listed = checked_pass(&g, &dag, 0..dag.num_edges());
                let unique: BTreeSet<Vec<VertexId>> = listed.iter().map(|c| c.to_vec()).collect();
                assert_eq!(unique.len(), listed.len(), "a 4-clique emitted twice");
                assert_eq!(unique, brute);
            }
        }
    }

    #[test]
    fn no_four_cliques_in_sparse_graphs() {
        let star = generators::star(20);
        assert_eq!(count_four_cliques(&star), 0);
        let cycle = generators::cycle(10);
        assert_eq!(count_four_cliques(&cycle), 0);
    }

    #[test]
    fn k_clique_k1_and_k2() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut vs = Vec::new();
        list_k_cliques(&g, 1, |c| vs.push(c.to_vec()));
        assert_eq!(vs.len(), 3);
        let mut es = 0;
        list_k_cliques(&g, 2, |c| {
            assert!(g.has_edge(c[0], c[1]));
            es += 1;
        });
        assert_eq!(es, 2);
    }

    #[test]
    fn k_clique_size_above_n_lists_nothing() {
        let g = generators::complete(6);
        for k in [7, 1 << 40, usize::MAX] {
            let mut listed = 0;
            list_k_cliques(&g, k, |_| listed += 1);
            assert_eq!(listed, 0, "k = {k}");
        }
    }

    proptest! {
        /// Any split of `0..m` into consecutive arc ranges, cuts inside a
        /// vertex's out-arcs included, emits exactly the cliques of one
        /// whole pass, in the same order.
        #[test]
        fn consecutive_arc_ranges_make_one_pass(
            seed in 0u64..40,
            groups in 1usize..30,
            cuts in prop::collection::vec(0.0f64..1.0, 0..8),
        ) {
            let g = generators::clique_overlap(40, groups, 6, seed);
            let dag = OrientedGraph::by_degree(&g);
            let m = dag.num_edges();
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| (c * m as f64) as usize).collect();
            bounds.extend([0, m]);
            bounds.sort_unstable();
            let whole = checked_pass(&g, &dag, 0..m);
            let mut split = Vec::new();
            for w in bounds.windows(2) {
                split.extend(checked_pass(&g, &dag, w[0]..w[1]));
            }
            prop_assert_eq!(&split, &whole);
            // One arc per range cuts inside every vertex's out-arcs.
            let one_by_one: Vec<_> = (0..m).flat_map(|a| checked_pass(&g, &dag, a..a + 1)).collect();
            prop_assert_eq!(&one_by_one, &whole);
        }

        #[test]
        fn k_cliques_match_brute_force(seed in 0u64..30, n in 4usize..16, p in 0.2f64..0.8, k in 3usize..6) {
            let g = generators::erdos_renyi(n, p, seed);
            let mut listed = Vec::new();
            list_k_cliques(&g, k, |c| {
                let mut v = c.to_vec();
                v.sort_unstable();
                listed.push(v);
            });
            let as_set: BTreeSet<Vec<VertexId>> = listed.iter().cloned().collect();
            prop_assert_eq!(as_set.len(), listed.len(), "duplicate clique emitted");
            prop_assert_eq!(as_set, brute_force_k_cliques(&g, k));
        }
    }
}
