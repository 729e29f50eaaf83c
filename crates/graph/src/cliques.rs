//! Clique enumeration.
//!
//! The improved index construction (Algorithm 3) is powered by Observation 1
//! of the paper: `{u, v, w1, w2}` is a 4-clique iff `(w1, w2)` is an edge of
//! the ego-network `G_{N(uv)}`. [`FourCliqueEnumerator`] lists each 4-clique
//! of the graph exactly once on a degree-ordered DAG in `O(α²m)`
//! (Chiba–Nishizeki). A generic recursive k-clique lister
//! ([`list_k_cliques`]) is provided as well; the 4-clique path is a
//! specialised, allocation-free version of it.

use crate::intersect::WordTiles;
use crate::{Graph, OrientedGraph, VertexId};

/// Reusable state for 4-clique enumeration over one oriented graph.
///
/// The enumerator visits each 4-clique `{u, v, w1, w2}` exactly once with
/// `u ≺ v ≺ w1' , w2'` in DAG order; within the callback, `u → v` is a
/// directed edge and `w1, w2` are common out-neighbours of both with
/// `w1 → w2` directed. The membership test "is `w2` a common out-neighbour"
/// walks a [`WordTiles`] tiling of the common neighbourhood — a compact
/// sorted array of `(word, 64-bit mask)` tiles rebuilt per edge — against
/// each sorted `N⁺(w1)` CSR slice, so every probe is a sequential scan of
/// two small contiguous arrays rather than a random access into a
/// size-`n` stamp array (the previous layout, whose cache misses dominated
/// on large graphs). Allocations are reused across edges.
#[derive(Debug)]
pub struct FourCliqueEnumerator {
    tiles: WordTiles,
    common: Vec<VertexId>,
}

impl FourCliqueEnumerator {
    /// Creates scratch state for graphs with up to `n` vertices (`n` sizes
    /// the tile capacity: a common neighbourhood can span at most
    /// `n / 64 + 1` words).
    pub fn new(n: usize) -> Self {
        Self {
            tiles: WordTiles::with_capacity(n / 64 + 1),
            common: Vec::new(),
        }
    }

    /// Enumerates the 4-cliques hanging off the single directed edge
    /// `(u, v)`: all pairs `w1, w2 ∈ N⁺(u) ∩ N⁺(v)` with `w1 → w2`.
    ///
    /// This per-edge granularity is what both the sequential builder and the
    /// edge-parallel builder (PESDIndex+) iterate over.
    #[inline]
    pub fn for_edge(
        &mut self,
        dag: &OrientedGraph,
        u: VertexId,
        v: VertexId,
        mut f: impl FnMut(VertexId, VertexId),
    ) {
        self.common.clear();
        crate::intersect::intersect_into(
            dag.out_neighbors(u),
            dag.out_neighbors(v),
            &mut self.common,
        );
        if self.common.len() < 2 {
            return;
        }
        self.tiles.build(&self.common);
        // The clique counter is owned by this loop — and only this loop — so
        // every caller (sequential build, parallel workers, plain counting)
        // shares one definition. Counted locally, recorded in one add.
        //
        // Emission order matters: pairs grouped by `w1` (in `common` order)
        // with `w2` ascending within each group — the sequential builder
        // caches per-`w1` state on exactly that grouping.
        let mut emitted = 0u64;
        for &w1 in &self.common {
            self.tiles.intersect_sorted(dag.out_neighbors(w1), |w2| {
                emitted += 1;
                f(w1, w2);
            });
        }
        esd_telemetry::add(esd_telemetry::Metric::CliquesEnumerated, emitted);
    }

    /// Enumerates every 4-clique of the graph exactly once as
    /// `(u, v, w1, w2)`.
    pub fn enumerate(
        &mut self,
        dag: &OrientedGraph,
        mut f: impl FnMut(VertexId, VertexId, VertexId, VertexId),
    ) {
        for u in 0..dag.num_vertices() as VertexId {
            // The borrow checker dislikes `self.for_edge` capturing `f` while
            // iterating `dag`; out-neighbour slices are copied per edge head.
            let out_u: &[VertexId] = dag.out_neighbors(u);
            for idx in 0..out_u.len() {
                let v = dag.out_neighbors(u)[idx];
                self.for_edge(dag, u, v, |w1, w2| f(u, v, w1, w2));
            }
        }
    }
}

/// Counts all 4-cliques of `g`.
pub fn count_four_cliques(g: &Graph) -> u64 {
    let dag = OrientedGraph::by_degree(g);
    let mut enumerator = FourCliqueEnumerator::new(g.num_vertices());
    let mut count = 0u64;
    enumerator.enumerate(&dag, |_, _, _, _| count += 1);
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

    #[test]
    fn four_cliques_are_actual_cliques_and_unique() {
        let g = generators::erdos_renyi(40, 0.25, 17);
        let dag = OrientedGraph::by_degree(&g);
        let mut seen = BTreeSet::new();
        let mut e = FourCliqueEnumerator::new(g.num_vertices());
        e.enumerate(&dag, |u, v, w1, w2| {
            let mut verts = [u, v, w1, w2];
            for i in 0..4 {
                for j in i + 1..4 {
                    assert!(g.has_edge(verts[i], verts[j]), "not a clique");
                }
            }
            verts.sort_unstable();
            assert!(seen.insert(verts), "4-clique emitted twice: {verts:?}");
        });
        let brute = brute_force_k_cliques(&g, 4);
        assert_eq!(seen.len(), brute.len());
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
