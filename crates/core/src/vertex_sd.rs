//! Top-k *vertex* structural diversity (the predecessor problem, §VII).
//!
//! Huang et al. (VLDB J. 2015) and Chang et al. (ICDE 2017) studied the
//! vertex version: `score_τ(v)` is the number of size-≥τ components of the
//! subgraph induced by `N(v)`. The paper's edge problem generalises their
//! techniques; this module provides the vertex version for comparison and
//! for the case-study narratives (a vertex's contexts vs an edge's).

use esd_graph::{traversal::InducedScratch, Graph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A vertex with its structural diversity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoredVertex {
    /// The vertex.
    pub vertex: VertexId,
    /// Number of size-≥τ components of `G_{N(v)}`.
    pub score: u32,
}

/// Exact vertex structural diversity: components of the subgraph induced by
/// `N(v)` with size ≥ τ.
pub fn vertex_score(g: &Graph, v: VertexId, tau: u32) -> u32 {
    vertex_score_in(&mut InducedScratch::new(), g, v, tau)
}

/// [`vertex_score`] on a caller-held scratch.
fn vertex_score_in(scratch: &mut InducedScratch, g: &Graph, v: VertexId, tau: u32) -> u32 {
    crate::score::score_from_sizes(scratch.component_sizes(g, g.neighbors(v)), tau)
}

/// Top-k vertices by structural diversity using the same dequeue-twice
/// framework as the edge search, with the `⌊d(v)/τ⌋` upper bound. Returns
/// at most `k` vertices with positive score, ranked
/// `(score desc, vertex asc)`.
pub fn vertex_topk(g: &Graph, k: usize, tau: u32) -> Vec<ScoredVertex> {
    assert!(tau >= 1, "component size threshold must be at least 1");
    let mut queue: BinaryHeap<(u32, Reverse<VertexId>, bool)> = g
        .vertices()
        .filter_map(|v| {
            let ub = g.degree(v) as u32 / tau;
            (ub > 0).then_some((ub, Reverse(v), false))
        })
        .collect();
    let mut out = Vec::new();
    let mut scratch = InducedScratch::new();
    while out.len() < k {
        let Some((priority, Reverse(v), exact)) = queue.pop() else {
            break;
        };
        if exact {
            out.push(ScoredVertex {
                vertex: v,
                score: priority,
            });
            continue;
        }
        let s = vertex_score_in(&mut scratch, g, v, tau);
        if s > 0 {
            queue.push((s, Reverse(v), true));
        }
    }
    out
}

/// Batch-exact top-k vertices: scores every vertex with one triangle
/// enumeration + union–find pass (the vertex analogue of
/// [`crate::score::batch_topk`]) and selects the best `k`. Wins over
/// [`vertex_topk`]'s dequeue-twice pruning when the `⌊d(v)/τ⌋` bounds are
/// loose.
pub fn vertex_topk_batch(g: &Graph, k: usize, tau: u32) -> Vec<ScoredVertex> {
    assert!(tau >= 1, "component size threshold must be at least 1");
    let index = VertexSdIndex::build(g);
    index.query(k, tau)
}

/// An ESDIndex-style structure for the *vertex* problem — an extension the
/// paper's technique enables but does not spell out: vertex ego-network
/// edges are exactly the graph's **triangles** (one order lower than the
/// 4-cliques of the edge problem), so the same
/// enumerate-once + union–find construction applies with the graph's own
/// CSR offsets as the forest arena.
///
/// Queries are `O(k + log)` over contiguous rank-ordered lists, mirroring
/// [`crate::index::EsdIndex`].
#[derive(Debug, Clone, Default)]
pub struct VertexSdIndex {
    /// Distinct component sizes, ascending.
    sizes: Vec<u32>,
    /// `list_offsets[i]..list_offsets[i+1]` bounds list `i` in `entries`.
    list_offsets: Vec<usize>,
    /// Rank-ordered `(score desc, vertex asc)` lists, back to back.
    entries: Vec<ScoredVertex>,
}

impl VertexSdIndex {
    /// Builds the index by triangle enumeration + union–find in
    /// `O(αm·γ(n) + Σδ_v log n)`.
    pub fn build(g: &Graph) -> Self {
        let n = g.num_vertices();
        // Group v = N(v), laid out exactly as the graph's CSR.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for v in 0..n as VertexId {
            offsets.push(offsets.last().unwrap() + g.degree(v));
        }
        let mut arena = esd_dsu::ArenaDsu::new(offsets);
        let slot = |of: VertexId, x: VertexId| -> usize {
            g.neighbors(of).binary_search(&x).expect("neighbour")
        };
        esd_graph::triangles::list_triangles(g, |a, b, c| {
            arena.union(a as usize, slot(a, b), slot(a, c));
            arena.union(b as usize, slot(b, a), slot(b, c));
            arena.union(c as usize, slot(c, a), slot(c, b));
        });

        // Distinct sizes and per-vertex sorted multisets.
        let mut per_vertex: Vec<Vec<u32>> = Vec::with_capacity(n);
        let mut max_size = 0u32;
        for v in 0..n {
            let mut sizes = Vec::new();
            arena.for_each_root(v, |_, s| sizes.push(s));
            sizes.sort_unstable();
            max_size = max_size.max(sizes.last().copied().unwrap_or(0));
            per_vertex.push(sizes);
        }
        let mut present = vec![false; max_size as usize + 1];
        for sizes in &per_vertex {
            for &s in sizes {
                present[s as usize] = true;
            }
        }
        let csizes: Vec<u32> = (1..=max_size).filter(|&c| present[c as usize]).collect();

        // Fill the lists: one sorted vector per c.
        let mut lists: Vec<Vec<ScoredVertex>> = vec![Vec::new(); csizes.len()];
        for (v, sizes) in per_vertex.iter().enumerate() {
            let Some(&cmax) = sizes.last() else { continue };
            for (i, &c) in csizes.iter().enumerate() {
                if c > cmax {
                    break;
                }
                let score = (sizes.len() - sizes.partition_point(|&s| s < c)) as u32;
                lists[i].push(ScoredVertex {
                    vertex: v as VertexId,
                    score,
                });
            }
        }
        let mut list_offsets = Vec::with_capacity(csizes.len() + 1);
        list_offsets.push(0usize);
        let mut entries = Vec::new();
        for mut list in lists {
            list.sort_by(|a, b| b.score.cmp(&a.score).then(a.vertex.cmp(&b.vertex)));
            entries.extend(list);
            list_offsets.push(entries.len());
        }
        Self {
            sizes: csizes,
            list_offsets,
            entries,
        }
    }

    /// Distinct component sizes, ascending.
    pub fn component_sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Top-`k` vertices at threshold `tau`; identical contract to
    /// [`vertex_topk`].
    pub fn query(&self, k: usize, tau: u32) -> Vec<ScoredVertex> {
        assert!(tau >= 1, "component size threshold must be at least 1");
        let i = self.sizes.partition_point(|&c| c < tau);
        if i == self.sizes.len() {
            return Vec::new();
        }
        let list = &self.entries[self.list_offsets[i]..self.list_offsets[i + 1]];
        list[..k.min(list.len())].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use esd_graph::generators;

    fn naive(g: &Graph, k: usize, tau: u32) -> Vec<ScoredVertex> {
        let mut all: Vec<ScoredVertex> = g
            .vertices()
            .map(|v| ScoredVertex {
                vertex: v,
                score: vertex_score(g, v, tau),
            })
            .filter(|s| s.score > 0)
            .collect();
        all.sort_by(|a, b| b.score.cmp(&a.score).then(a.vertex.cmp(&b.vertex)));
        all.truncate(k);
        all
    }

    #[test]
    fn star_center_score() {
        let g = generators::star(6);
        // N(center) = 5 isolated leaves.
        assert_eq!(vertex_score(&g, 0, 1), 5);
        assert_eq!(vertex_score(&g, 0, 2), 0);
        assert_eq!(vertex_score(&g, 3, 1), 1, "leaf sees only the centre");
    }

    #[test]
    fn matches_naive_on_fig1() {
        let (g, _) = fig1();
        for tau in 1..=4 {
            for k in [1, 5, 20] {
                assert_eq!(vertex_topk(&g, k, tau), naive(&g, k, tau), "k={k} τ={tau}");
            }
        }
    }

    #[test]
    fn matches_naive_on_random() {
        for seed in 0..4 {
            let g = generators::erdos_renyi(60, 0.1, seed);
            assert_eq!(vertex_topk(&g, 10, 2), naive(&g, 10, 2));
        }
    }

    #[test]
    fn empty_result_cases() {
        let g = generators::complete(4);
        // N(v) of K4 is a triangle: one component of size 3.
        assert_eq!(vertex_topk(&g, 2, 4), vec![]);
        assert_eq!(vertex_topk(&g, 0, 1), vec![]);
    }

    #[test]
    fn index_matches_online_on_fig1() {
        let (g, _) = fig1();
        let index = VertexSdIndex::build(&g);
        for tau in 1..=6 {
            for k in [1, 4, 16, 100] {
                assert_eq!(
                    index.query(k, tau),
                    vertex_topk(&g, k, tau),
                    "k={k} τ={tau}"
                );
            }
        }
    }

    #[test]
    fn index_matches_online_on_random_models() {
        for seed in 0..3 {
            for g in [
                generators::erdos_renyi(50, 0.12, seed),
                generators::clique_overlap(50, 40, 5, seed),
                generators::barabasi_albert(60, 3, seed),
            ] {
                let index = VertexSdIndex::build(&g);
                for tau in [1, 2, 3] {
                    assert_eq!(
                        index.query(12, tau),
                        vertex_topk(&g, 12, tau),
                        "seed={seed} τ={tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn index_sizes_cover_star() {
        // Star centre: n-1 singleton components; leaves: one singleton.
        let g = generators::star(7);
        let index = VertexSdIndex::build(&g);
        assert_eq!(index.component_sizes(), &[1]);
        let top = index.query(1, 1)[0];
        assert_eq!((top.vertex, top.score), (0, 6));
    }

    #[test]
    fn batch_matches_online() {
        let (g, _) = fig1();
        for tau in [1, 2, 3] {
            assert_eq!(vertex_topk_batch(&g, 8, tau), vertex_topk(&g, 8, tau));
        }
    }

    #[test]
    fn index_on_empty_graph() {
        let g = Graph::from_edges(4, &[]);
        let index = VertexSdIndex::build(&g);
        assert!(index.component_sizes().is_empty());
        assert!(index.query(3, 1).is_empty());
    }
}
