//! Sequential index construction: Algorithm 2 (BFS) and Algorithm 3
//! (4-clique enumeration + union–find).

use super::EdgeComponents;
use crate::cow::RankKey;
use crate::score::score_from_sizes;
use esd_dsu::ArenaDsu;
use esd_graph::{cliques, triangles, Edge, EdgeId, Graph, OrientedGraph, VertexId};
use std::ops::Range;

/// Work counters of the 4-clique construction, surfaced by the experiments
/// harness to validate the `O(α²m)` enumeration bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// 4-cliques enumerated (each exactly once).
    pub four_cliques: u64,
    /// Union operations performed (six per 4-clique).
    pub union_ops: u64,
    /// `Σ |N(uv)|` — the `O(αm)` total neighbourhood size.
    pub total_neighborhood: usize,
}

/// Everything the 4-clique pass produces; the dynamic maintenance bootstrap
/// consumes the neighbourhoods and the forest, the static build only the
/// component sizes.
#[derive(Debug)]
pub(crate) struct FourCliqueArtifacts {
    /// Per-edge sorted component sizes.
    pub components: EdgeComponents,
    /// Per-edge common neighbourhood offsets (`m + 1` entries).
    pub nbr_offsets: Vec<usize>,
    /// Flat sorted common neighbourhoods.
    pub nbrs: Vec<VertexId>,
    /// The union–find forest over all neighbourhoods (group = edge id).
    pub arena: ArenaDsu,
    /// Work counters.
    pub stats: BuildStats,
}

/// Algorithm 2, lines 1–3: component sizes of every edge ego-network by BFS.
pub(crate) fn components_by_bfs(g: &Graph) -> EdgeComponents {
    let _span = esd_telemetry::span(esd_telemetry::Stage::BuildBfs);
    let m = g.num_edges();
    let mut offsets = Vec::with_capacity(m + 1);
    offsets.push(0);
    let mut sizes = Vec::new();
    let mut scratch = crate::score::ScoreScratch::new();
    for e in g.edges() {
        sizes.extend_from_slice(scratch.component_sizes(g, e.u, e.v));
        offsets.push(sizes.len());
    }
    EdgeComponents { offsets, sizes }
}

/// Phase 1 of Algorithm 3: materialise every common neighbourhood
/// `N(uv) = N(u) ∩ N(v)` into one flat arena (total size `O(αm)`), sorted
/// per edge, with `m + 1` offsets.
///
/// Two passes of the triangle kernel over `dag`
/// ([`esd_graph::triangles::for_each_triangle`]): the first counts `|N(uv)|`
/// and turns the counts into exact offsets, the second scatters each
/// triangle's third vertex into the lists of its three edges. Each list is
/// then sorted.
pub(crate) fn neighborhoods(g: &Graph, dag: &OrientedGraph) -> (Vec<usize>, Vec<VertexId>) {
    let m = g.num_edges();
    let mut offsets = Vec::with_capacity(m + 1);
    offsets.push(0usize);
    for s in triangles::edge_support_oriented(m, dag) {
        offsets.push(offsets.last().unwrap() + s as usize);
    }
    let mut cursor = offsets.clone();
    let mut nbrs = vec![0 as VertexId; offsets[m]];
    triangles::for_each_triangle(dag, |e_uv, e_uw, e_vw, u, v, w| {
        for (e, x) in [(e_uv, w), (e_uw, v), (e_vw, u)] {
            nbrs[cursor[e as usize]] = x;
            cursor[e as usize] += 1;
        }
    });
    for e in 0..m {
        nbrs[offsets[e]..offsets[e + 1]].sort_unstable();
    }
    (offsets, nbrs)
}

/// Phase 1 of Algorithm 3 — every common neighbourhood — with the degree
/// orientation the enumeration walks.
pub(crate) struct Neighborhoods {
    dag: OrientedGraph,
    /// Per-edge offsets into `nbrs` (`m + 1` entries).
    pub(crate) offsets: Vec<usize>,
    /// Flat sorted common neighbourhoods.
    pub(crate) nbrs: Vec<VertexId>,
}

impl Neighborhoods {
    pub(crate) fn of(g: &Graph) -> Self {
        let _span = esd_telemetry::span(esd_telemetry::Stage::BuildNeighborhoods);
        let dag = OrientedGraph::by_degree(g);
        let (offsets, nbrs) = neighborhoods(g, &dag);
        esd_telemetry::add(esd_telemetry::Metric::BuildNbrTotal, nbrs.len() as u64);
        Self { dag, offsets, nbrs }
    }

    /// The offsets alone, dropping the orientation and the members.
    pub(crate) fn into_offsets(self) -> Vec<usize> {
        self.offsets
    }

    /// Algorithm 3 lines 8–15: enumerates every 4-clique once and hands
    /// `f` the ego-network edge each of its six edges gains (Observation
    /// 1), as `(e, x, y)` with `x` and `y` the local slots of the two
    /// endpoints in `N(e)`. Returns the number of 4-cliques.
    pub(crate) fn for_each_ego_edge(&self, mut f: impl FnMut(usize, usize, usize)) -> u64 {
        let _span = esd_telemetry::span(esd_telemetry::Stage::BuildEnumerate);
        let mut four_cliques = 0;
        cliques::for_each_four_clique(&self.dag, 0..self.dag.num_edges(), |ids, u, v, w1, w2| {
            for (e, x, y) in ego_edges(ids, u, v, w1, w2) {
                let slot = |x| slot_of(&self.offsets, &self.nbrs, e, x);
                f(e as usize, slot(x), slot(y));
            }
            four_cliques += 1;
        });
        four_cliques
    }
}

/// Algorithm 3, lines 1–22: builds per-edge disjoint-set forests by
/// enumerating every 4-clique once and extracts the component sizes.
pub(crate) fn components_by_four_cliques(g: &Graph) -> FourCliqueArtifacts {
    four_clique_pass(g, |_, _| {})
}

/// [`components_by_four_cliques`] that also hands every ego-network edge
/// it unions to `sink`, as the two global slots `offsets[e] + x` and
/// `offsets[e] + y`. The index builds pass an empty sink.
pub(crate) fn four_clique_pass(
    g: &Graph,
    mut sink: impl FnMut(usize, usize),
) -> FourCliqueArtifacts {
    let hoods = Neighborhoods::of(g);
    let mut arena = ArenaDsu::new(hoods.offsets.clone());
    let four_cliques = hoods.for_each_ego_edge(|e, x, y| {
        arena.union(e, x, y);
        sink(hoods.offsets[e] + x, hoods.offsets[e] + y);
    });
    let stats = BuildStats {
        four_cliques,
        union_ops: 6 * four_cliques,
        total_neighborhood: hoods.nbrs.len(),
    };
    esd_telemetry::add(esd_telemetry::Metric::BuildUnionOps, stats.union_ops);
    let Neighborhoods {
        dag,
        offsets: nbr_offsets,
        nbrs,
    } = hoods;
    drop(dag);
    let components = {
        let _span = esd_telemetry::span(esd_telemetry::Stage::BuildExtract);
        components_from_arena(&arena, g.num_edges())
    };
    FourCliqueArtifacts {
        components,
        nbr_offsets,
        nbrs,
        arena,
        stats,
    }
}

/// Observation 1 (Algorithm 3 lines 10–15): each edge of the 4-clique
/// `{u, v, w1, w2}` gains the ego-network edge between the clique's other
/// two vertices. Takes the six edge ids in
/// [`cliques::for_each_four_clique`]'s order and returns one
/// `(edge, x, y)` union per clique edge.
pub(crate) fn ego_edges(
    ids: [EdgeId; 6],
    u: VertexId,
    v: VertexId,
    w1: VertexId,
    w2: VertexId,
) -> [(EdgeId, VertexId, VertexId); 6] {
    let [e_uv, e_uw1, e_uw2, e_vw1, e_vw2, e_w1w2] = ids;
    [
        (e_uv, w1, w2),
        (e_uw1, v, w2),
        (e_uw2, v, w1),
        (e_vw1, u, w2),
        (e_vw2, u, w1),
        (e_w1w2, u, v),
    ]
}

/// The local slot of vertex `x` inside edge `e`'s sorted common
/// neighbourhood: a binary search of `N(e)`, in place of the paper's hash
/// map `M_uv[w]`.
pub(crate) fn slot_of(nbr_offsets: &[usize], nbrs: &[VertexId], e: EdgeId, x: VertexId) -> usize {
    let range = &nbrs[nbr_offsets[e as usize]..nbr_offsets[e as usize + 1]];
    range
        .binary_search(&x)
        .expect("vertex in common neighbourhood")
}

/// Algorithm 3 lines 16–22: reads the sorted component-size multiset of each
/// edge out of the union–find forest.
pub(crate) fn components_from_arena(arena: &ArenaDsu, m: usize) -> EdgeComponents {
    let mut offsets = Vec::with_capacity(m + 1);
    offsets.push(0);
    let mut sizes = Vec::new();
    for e in 0..m {
        let start = sizes.len();
        arena.for_each_root(e, |_, size| sizes.push(size));
        sizes[start..].sort_unstable();
        offsets.push(sizes.len());
    }
    EdgeComponents { offsets, sizes }
}

/// The distinct size set `C = ∪ C_uv`, ascending.
pub(crate) fn distinct_sizes(comps: &EdgeComponents) -> Vec<u32> {
    let max = comps.sizes.iter().copied().max().unwrap_or(0) as usize;
    let mut present = vec![false; max + 1];
    for &s in &comps.sizes {
        present[s as usize] = true;
    }
    (1..=max as u32).filter(|&c| present[c as usize]).collect()
}

/// Algorithm 2 lines 6–15: the lists `H(c)` for `c ∈ csizes[c_range]`,
/// each a rank-sorted buffer holding every item — an edge and its sorted
/// size multiset — with a size `≥ c`, scored at threshold `c`.
///
/// A count pass sizes each buffer exactly: `H(c)` holds every item whose
/// largest size is `≥ c`. Disjoint `c_range`s fill independently, which is
/// how the parallel builder splits the work. Every builder assembles its
/// lists here: the static index concatenates the buffers and
/// [`SizeRuns::build`](crate::cow::SizeRuns::build) pages them into runs.
pub(crate) fn fill_lists<'a>(
    items: impl Iterator<Item = (Edge, &'a [u32])> + Clone,
    csizes: &[u32],
    c_range: Range<usize>,
) -> Vec<Vec<RankKey>> {
    let csizes = &csizes[c_range];
    // How many of the lists an item's largest size reaches.
    let reach = |sizes: &[u32]| {
        sizes
            .last()
            .map_or(0, |&cmax| csizes.partition_point(|&c| c <= cmax))
    };
    let mut reaching = vec![0usize; csizes.len() + 1];
    for (_, sizes) in items.clone() {
        reaching[reach(sizes)] += 1;
    }
    let mut held = 0;
    let mut lists: Vec<Vec<RankKey>> = reaching[1..]
        .iter()
        .rev()
        .map(|&n| {
            held += n;
            Vec::with_capacity(held)
        })
        .collect();
    lists.reverse();
    for (edge, sizes) in items {
        let n = reach(sizes);
        for (list, &c) in lists[..n].iter_mut().zip(csizes) {
            list.push(RankKey {
                score: score_from_sizes(sizes, c),
                edge,
            });
        }
    }
    for list in &mut lists {
        list.sort_unstable();
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use esd_graph::generators;

    #[test]
    fn bfs_and_four_clique_components_agree() {
        for seed in 0..5 {
            let g = generators::erdos_renyi(40, 0.25, seed);
            let bfs = components_by_bfs(&g);
            let fc = components_by_four_cliques(&g).components;
            assert_eq!(bfs.offsets, fc.offsets);
            assert_eq!(bfs.sizes, fc.sizes);
        }
    }

    #[test]
    fn fig1_component_multisets() {
        let (g, n) = fig1();
        let comps = components_by_four_cliques(&g).components;
        let eid = |a: &str, b: &str| {
            let e = Edge::new(n[a], n[b]);
            g.edges().iter().position(|&x| x == e).unwrap()
        };
        assert_eq!(comps.sizes_of(eid("f", "g")), &[2, 2]);
        assert_eq!(comps.sizes_of(eid("j", "k")), &[2, 4]);
        assert_eq!(comps.sizes_of(eid("u", "p")), &[5]);
        assert_eq!(comps.sizes_of(eid("d", "e")), &[1, 2]);
        assert_eq!(distinct_sizes(&comps), vec![1, 2, 4, 5]);
    }

    #[test]
    fn four_clique_count_matches_enumerator() {
        let g = generators::clique_overlap(60, 40, 6, 1);
        let artifacts = components_by_four_cliques(&g);
        assert_eq!(
            artifacts.stats.four_cliques,
            esd_graph::cliques::count_four_cliques(&g)
        );
        assert_eq!(artifacts.stats.union_ops, artifacts.stats.four_cliques * 6);
    }

    #[test]
    fn neighborhood_total_is_sum_of_common_neighbors() {
        let g = generators::erdos_renyi(50, 0.2, 3);
        let (offsets, nbrs) = neighborhoods(&g, &OrientedGraph::by_degree(&g));
        let expect: usize = g
            .edges()
            .iter()
            .map(|e| g.common_neighbor_count(e.u, e.v))
            .sum();
        assert_eq!(nbrs.len(), expect);
        assert_eq!(*offsets.last().unwrap(), expect);
    }

    /// Reference support and neighbourhoods: one adjacency intersection
    /// per edge.
    fn per_edge_reference(g: &Graph) -> (Vec<u32>, Vec<usize>, Vec<VertexId>) {
        let (mut support, mut offsets, mut nbrs) = (Vec::new(), vec![0], Vec::new());
        for e in g.edges() {
            let (nu, nv) = (g.neighbors(e.u), g.neighbors(e.v));
            support.push(esd_graph::intersect::intersection_size(nu, nv) as u32);
            esd_graph::intersect::intersect_into(nu, nv, &mut nbrs);
            offsets.push(nbrs.len());
        }
        (support, offsets, nbrs)
    }

    fn assert_kernel_matches_reference(g: &Graph) {
        let (support, offsets, nbrs) = per_edge_reference(g);
        assert_eq!(triangles::edge_support(g), support);
        for dag in [OrientedGraph::by_degree(g), OrientedGraph::by_degeneracy(g)] {
            assert_eq!(neighborhoods(g, &dag), (offsets.clone(), nbrs.clone()));
        }
    }

    #[test]
    fn triangle_kernel_matches_per_edge_reference_on_surrogates() {
        for spec in esd_datasets::specs() {
            let g = esd_datasets::load(spec.name, esd_datasets::Scale::Tiny);
            assert_kernel_matches_reference(&g);
        }
    }

    proptest::proptest! {
        #[test]
        fn triangle_kernel_matches_per_edge_reference(
            seed in 0u64..40,
            n in 2usize..60,
            p in 0.0f64..0.5,
            groups in 1usize..40,
        ) {
            assert_kernel_matches_reference(&generators::erdos_renyi(n, p, seed));
            assert_kernel_matches_reference(&generators::clique_overlap(n, groups, 6, seed));
        }
    }

    #[test]
    fn distinct_sizes_empty() {
        let comps = EdgeComponents {
            offsets: vec![0, 0],
            sizes: vec![],
        };
        assert!(distinct_sizes(&comps).is_empty());
    }
}
