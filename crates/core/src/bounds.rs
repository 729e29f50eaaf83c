//! Upper bounds on edge structural diversity (§III of the paper).

use esd_graph::{Graph, VertexId};

/// Which upper-bounding rule the dequeue-twice search seeds its priority
/// queue with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpperBound {
    /// `min(d(u), d(v))` — free given the degrees. The paper's `OnlineBFS`
    /// variant (§III uses the raw minimum degree, not divided by τ).
    MinDegree,
    /// `⌊|N(u) ∩ N(v)| / τ⌋` — tighter, but the search first lists every
    /// triangle once ([`esd_graph::triangles::edge_support`], `O(αm)` per
    /// search) to learn all `|N(u) ∩ N(v)|`. The paper's `OnlineBFS+`
    /// variant.
    CommonNeighbor,
}

/// The min-degree upper bound of §III: the ego-network has at most
/// `min(d(u), d(v))` vertices, so no more than that many components of any
/// size fit. (The paper deliberately does *not* divide by τ here; the
/// division is what makes the common-neighbour bound tighter.)
#[inline]
pub fn min_degree_bound(g: &Graph, u: VertexId, v: VertexId, tau: u32) -> u32 {
    debug_assert!(tau >= 1);
    let _ = tau;
    g.degree(u).min(g.degree(v)) as u32
}

/// The common-neighbour upper bound: `⌊|N(u) ∩ N(v)| / τ⌋`. Tighter than
/// [`min_degree_bound`] since `|N(u) ∩ N(v)| ≤ min(d(u), d(v))`. One
/// adjacency intersection for a single edge; the online search takes the
/// bound of every edge from one triangle listing instead.
#[inline]
pub fn common_neighbor_bound(g: &Graph, u: VertexId, v: VertexId, tau: u32) -> u32 {
    debug_assert!(tau >= 1);
    (g.common_neighbor_count(u, v) as u32) / tau
}

/// Computes the selected bound for one edge.
#[inline]
pub fn bound(g: &Graph, u: VertexId, v: VertexId, tau: u32, which: UpperBound) -> u32 {
    match which {
        UpperBound::MinDegree => min_degree_bound(g, u, v, tau),
        UpperBound::CommonNeighbor => common_neighbor_bound(g, u, v, tau),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use crate::score::edge_score;
    use esd_graph::generators;

    #[test]
    fn bounds_dominate_scores_on_fig1() {
        let (g, _) = fig1();
        for tau in 1..=6 {
            for e in g.edges() {
                let s = edge_score(&g, e.u, e.v, tau);
                let cn = common_neighbor_bound(&g, e.u, e.v, tau);
                let md = min_degree_bound(&g, e.u, e.v, tau);
                assert!(s <= cn, "cn bound violated at {e} τ={tau}");
                assert!(cn <= md, "cn must be tighter at {e} τ={tau}");
            }
        }
    }

    #[test]
    fn bounds_dominate_scores_on_random_graphs() {
        for seed in 0..4 {
            let g = generators::erdos_renyi(50, 0.2, seed);
            for tau in [1, 2, 3] {
                for e in g.edges() {
                    let s = edge_score(&g, e.u, e.v, tau);
                    assert!(s <= common_neighbor_bound(&g, e.u, e.v, tau));
                }
            }
        }
    }

    #[test]
    fn exact_values_on_known_edges() {
        let (g, n) = fig1();
        // (f,g): min(d(f), d(g)) = min(5,6) = 5; |N(fg)| = 4.
        assert_eq!(min_degree_bound(&g, n["f"], n["g"], 1), 5);
        assert_eq!(min_degree_bound(&g, n["f"], n["g"], 3), 5, "τ-independent");
        assert_eq!(common_neighbor_bound(&g, n["f"], n["g"], 1), 4);
        assert_eq!(common_neighbor_bound(&g, n["f"], n["g"], 2), 2);
        assert_eq!(common_neighbor_bound(&g, n["f"], n["g"], 5), 0);
    }

    #[test]
    fn dispatcher_matches_direct_calls() {
        let (g, _) = fig1();
        for e in g.edges().iter().take(10) {
            assert_eq!(
                bound(&g, e.u, e.v, 2, UpperBound::MinDegree),
                min_degree_bound(&g, e.u, e.v, 2)
            );
            assert_eq!(
                bound(&g, e.u, e.v, 2, UpperBound::CommonNeighbor),
                common_neighbor_bound(&g, e.u, e.v, 2)
            );
        }
    }
}
