//! Oriented triangle listing: one kernel and the three views built on it.
//!
//! [`for_each_triangle`] lists every triangle of a DAG orientation exactly
//! once, together with the edge ids of its three edges. Triangle counting
//! and listing, the per-edge support `|N(u) ∩ N(v)|` (the OnlineBFS+ bound
//! and the truss decomposition's input) and the index build's common
//! neighbourhoods (`esd-core`'s `index::build`) are all passes of this one
//! kernel.

use crate::{EdgeId, Graph, OrientedGraph, VertexId};

/// Lists every triangle of `dag` exactly once as
/// `f(e_uv, e_uw, e_vw, u, v, w)`, where `u → v`, `u → w` and `v → w` are
/// arcs of the DAG and each `e_xy` is the id of the undirected edge
/// `{x, y}`.
///
/// For each `u`, the out-arcs of `u` are marked with their edge ids in a
/// vertex-indexed array; then for each `v ∈ N⁺(u)` the walk of `N⁺(v)` finds
/// every `w` that closes a triangle with one array probe, and the mark
/// already names `e_uw`. The walks make `Σ_{u→v} d⁺(v)` probes: at most
/// `m·√(2m)` on the degree ordering, where no vertex has more than `√(2m)`
/// neighbours of degree at least its own, and `δm` on a degeneracy
/// ordering. Triangles are emitted grouped by `u` ascending, then `v` in
/// `N⁺(u)` order, then `w` ascending.
pub fn for_each_triangle(
    dag: &OrientedGraph,
    mut f: impl FnMut(EdgeId, EdgeId, EdgeId, VertexId, VertexId, VertexId),
) {
    const UNMARKED: EdgeId = EdgeId::MAX;
    let mut mark = vec![UNMARKED; dag.num_vertices()];
    for u in 0..dag.num_vertices() as VertexId {
        let (out_u, ids_u) = (dag.out_neighbors(u), dag.out_edge_ids(u));
        for (&w, &e_uw) in out_u.iter().zip(ids_u) {
            mark[w as usize] = e_uw;
        }
        for (&v, &e_uv) in out_u.iter().zip(ids_u) {
            for (&w, &e_vw) in dag.out_neighbors(v).iter().zip(dag.out_edge_ids(v)) {
                let e_uw = mark[w as usize];
                if e_uw != UNMARKED {
                    f(e_uv, e_uw, e_vw, u, v, w);
                }
            }
        }
        for &w in out_u {
            mark[w as usize] = UNMARKED;
        }
    }
}

/// Counts triangles using the degree-ordered DAG.
pub fn count_triangles(g: &Graph) -> u64 {
    let mut count = 0u64;
    for_each_triangle(&OrientedGraph::by_degree(g), |_, _, _, _, _, _| count += 1);
    count
}

/// Lists each triangle `{a, b, c}` exactly once (vertices in arbitrary order
/// within the callback).
pub fn list_triangles(g: &Graph, mut f: impl FnMut(VertexId, VertexId, VertexId)) {
    for_each_triangle(&OrientedGraph::by_degree(g), |_, _, _, u, v, w| f(u, v, w));
}

/// Per-edge triangle counts (the *support* of each edge); index = edge id.
/// This equals `|N(u) ∩ N(v)|` for each edge `(u, v)` — the quantity the
/// common-neighbour upper bound divides by τ.
pub fn edge_support(g: &Graph) -> Vec<u32> {
    edge_support_oriented(g.num_edges(), &OrientedGraph::by_degree(g))
}

/// [`edge_support`] on an already-oriented DAG of a graph with `m` edges.
pub fn edge_support_oriented(m: usize, dag: &OrientedGraph) -> Vec<u32> {
    let mut support = vec![0u32; m];
    for_each_triangle(dag, |e_uv, e_uw, e_vw, _, _, _| {
        support[e_uv as usize] += 1;
        support[e_uw as usize] += 1;
        support[e_vw as usize] += 1;
    });
    support
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    fn brute_force_triangles(g: &Graph) -> u64 {
        let mut count = 0;
        for e in g.edges() {
            count += g.common_neighbor_count(e.u, e.v) as u64;
        }
        count / 3
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = generators::complete(4);
        assert_eq!(count_triangles(&g), 4);
    }

    #[test]
    fn triangle_free_graph() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(count_triangles(&g), 0);
        let mut any = false;
        list_triangles(&g, |_, _, _| any = true);
        assert!(!any);
    }

    #[test]
    fn listing_matches_counting() {
        let g = generators::erdos_renyi(80, 0.1, 42);
        let mut listed = 0u64;
        list_triangles(&g, |a, b, c| {
            assert!(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c));
            listed += 1;
        });
        assert_eq!(listed, count_triangles(&g));
        assert_eq!(listed, brute_force_triangles(&g));
    }

    #[test]
    fn edge_support_equals_common_neighbors() {
        let g = generators::erdos_renyi(50, 0.15, 9);
        let support = edge_support(&g);
        for (id, e) in g.edges().iter().enumerate() {
            assert_eq!(support[id] as usize, g.common_neighbor_count(e.u, e.v));
        }
    }

    #[test]
    fn kernel_names_each_triangle_edge() {
        let g = generators::clique_overlap(80, 60, 5, 3);
        let dag = OrientedGraph::by_degree(&g);
        let mut listed = 0u64;
        for_each_triangle(&dag, |e_uv, e_uw, e_vw, u, v, w| {
            assert_eq!(g.edge(e_uv), crate::Edge::new(u, v));
            assert_eq!(g.edge(e_uw), crate::Edge::new(u, w));
            assert_eq!(g.edge(e_vw), crate::Edge::new(v, w));
            listed += 1;
        });
        assert!(listed > 0);
        assert_eq!(listed, brute_force_triangles(&g));
    }

    proptest! {
        #[test]
        fn count_matches_brute_force(seed in 0u64..50, n in 5usize..40, p in 0.0f64..0.4) {
            let g = generators::erdos_renyi(n, p, seed);
            prop_assert_eq!(count_triangles(&g), brute_force_triangles(&g));
        }
    }
}
