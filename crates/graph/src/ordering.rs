//! Vertex orderings and DAG orientation.
//!
//! The improved index construction (Algorithm 3) enumerates 4-cliques on the
//! DAG obtained by orienting each edge from the lower-ranked to the
//! higher-ranked endpoint under the paper's *degree ordering* `≺`
//! (increasing degree, ties by id — §II). A *degeneracy ordering* is also
//! provided: it yields the graph's degeneracy `δ` (Table I) and an
//! alternative orientation with out-degrees bounded by `δ`.

use crate::{EdgeId, Graph, VertexId};

/// The paper's total order `≺` on vertices: `u ≺ v` iff
/// `d(u) < d(v)`, or `d(u) == d(v)` and `u < v`.
#[derive(Debug, Clone)]
pub struct DegreeOrder {
    /// `rank[v]` = position of `v` in the order (0 = smallest).
    rank: Vec<u32>,
}

impl DegreeOrder {
    /// Computes the degree ordering of `g`.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut verts: Vec<VertexId> = (0..n as VertexId).collect();
        verts.sort_unstable_by_key(|&v| (g.degree(v), v));
        let mut rank = vec![0u32; n];
        for (pos, &v) in verts.iter().enumerate() {
            rank[v as usize] = pos as u32;
        }
        Self { rank }
    }

    /// Rank of `v` (0-based, smaller = earlier in `≺`).
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.rank[v as usize]
    }

    /// True iff `u ≺ v`.
    #[inline]
    pub fn precedes(&self, u: VertexId, v: VertexId) -> bool {
        self.rank[u as usize] < self.rank[v as usize]
    }
}

/// A degeneracy ordering computed by iteratively peeling minimum-degree
/// vertices (the standard bucket-queue core decomposition).
#[derive(Debug, Clone)]
pub struct DegeneracyOrder {
    /// Peeling order: `order[i]` is the `i`-th removed vertex.
    pub order: Vec<VertexId>,
    /// `rank[v]` = position of `v` in `order`.
    pub rank: Vec<u32>,
    /// Core number of each vertex.
    pub core: Vec<u32>,
    /// The graph degeneracy `δ = max core number`.
    pub degeneracy: u32,
}

impl DegeneracyOrder {
    /// Computes the degeneracy ordering of `g` in `O(n + m)`.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut deg: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
        let max_deg = deg.iter().copied().max().unwrap_or(0);

        // Bucket queue: vertices grouped by current degree.
        let mut bucket_start = vec![0usize; max_deg + 2];
        for &d in &deg {
            bucket_start[d + 1] += 1;
        }
        for i in 1..bucket_start.len() {
            bucket_start[i] += bucket_start[i - 1];
        }
        let mut pos = vec![0usize; n];
        let mut vert = vec![0 as VertexId; n];
        {
            let mut cursor = bucket_start.clone();
            for v in 0..n as VertexId {
                let d = deg[v as usize];
                pos[v as usize] = cursor[d];
                vert[cursor[d]] = v;
                cursor[d] += 1;
            }
        }
        // bucket_start[d] = first index in `vert` of a vertex with degree >= d.
        let mut core = vec![0u32; n];
        let mut degeneracy = 0u32;
        let mut current = 0u32;
        for i in 0..n {
            let v = vert[i];
            current = current.max(deg[v as usize] as u32);
            core[v as usize] = current;
            degeneracy = degeneracy.max(current);
            for &w in g.neighbors(v) {
                if pos[w as usize] > i {
                    let dw = deg[w as usize];
                    // Swap w to the front of its bucket, then shrink the bucket.
                    let bucket_front = bucket_start[dw].max(i + 1);
                    let front_vertex = vert[bucket_front];
                    let pw = pos[w as usize];
                    vert.swap(bucket_front, pw);
                    pos[w as usize] = bucket_front;
                    pos[front_vertex as usize] = pw;
                    bucket_start[dw] = bucket_front + 1;
                    deg[w as usize] -= 1;
                }
            }
        }
        let mut rank = vec![0u32; n];
        for (i, &v) in vert.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        Self {
            order: vert,
            rank,
            core,
            degeneracy,
        }
    }
}

/// A DAG orientation of an undirected graph: each edge points from the
/// lower-ranked to the higher-ranked endpoint of a total vertex order.
///
/// Out-neighbour lists are sorted by vertex id. Every arc also carries the
/// [`EdgeId`] of its undirected edge ([`Self::out_edge_ids`], parallel to
/// [`Self::out_neighbors`]), so the triangle and 4-clique kernels
/// ([`crate::triangles::for_each_triangle`],
/// [`crate::cliques::for_each_four_clique`]) name the edges they find
/// without an `edge_id` lookup.
#[derive(Debug, Clone)]
pub struct OrientedGraph {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    edge_ids: Vec<EdgeId>,
}

impl OrientedGraph {
    /// Orients `g` by the paper's degree ordering `≺` (§II).
    pub fn by_degree(g: &Graph) -> Self {
        let _span = esd_telemetry::span(esd_telemetry::Stage::GraphOrient);
        let order = DegreeOrder::new(g);
        Self::by_rank(g, |v| order.rank(v))
    }

    /// Orients `g` by a degeneracy ordering; out-degrees are then bounded by
    /// the degeneracy `δ`.
    pub fn by_degeneracy(g: &Graph) -> Self {
        let _span = esd_telemetry::span(esd_telemetry::Stage::GraphOrient);
        let order = DegeneracyOrder::new(g);
        let rank = order.rank;
        Self::by_rank(g, move |v| rank[v as usize])
    }

    /// Orients each edge from lower to higher `rank`.
    pub fn by_rank(g: &Graph, rank: impl Fn(VertexId) -> u32) -> Self {
        let n = g.num_vertices();
        let mut out_deg = vec![0usize; n];
        for e in g.edges() {
            let src = if rank(e.u) < rank(e.v) { e.u } else { e.v };
            out_deg[src as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &out_deg {
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut cursor = offsets.clone();
        let mut arcs = vec![(0 as VertexId, 0 as EdgeId); g.num_edges()];
        for (id, e) in g.edges().iter().enumerate() {
            let (src, dst) = if rank(e.u) < rank(e.v) {
                (e.u, e.v)
            } else {
                (e.v, e.u)
            };
            arcs[cursor[src as usize]] = (dst, id as EdgeId);
            cursor[src as usize] += 1;
        }
        for u in 0..n {
            arcs[offsets[u]..offsets[u + 1]].sort_unstable();
        }
        let (targets, edge_ids) = arcs.into_iter().unzip();
        Self {
            offsets,
            targets,
            edge_ids,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (equals the undirected edge count).
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Sorted out-neighbour list `N⁺(u)`.
    #[inline]
    pub fn out_neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Edge ids of `u`'s out-arcs: entry `i` is the id of the edge
    /// `(u, out_neighbors(u)[i])`.
    #[inline]
    pub fn out_edge_ids(&self, u: VertexId) -> &[EdgeId] {
        &self.edge_ids[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Out-degree `d⁺(u)`.
    #[inline]
    pub fn out_degree(&self, u: VertexId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// The CSR offsets (`n + 1` entries): `u`'s out-arcs sit at positions
    /// `offsets[u]..offsets[u + 1]`, so all arcs are `0..num_edges()`.
    pub(crate) fn arc_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Maximum out-degree (bounded by `2α - 1` for the degree ordering and by
    /// `δ` for the degeneracy ordering).
    pub fn max_out_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|u| self.out_degree(u))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Edge};
    use proptest::prelude::*;

    #[test]
    fn degree_order_matches_paper_rule() {
        // Degrees: 0 -> 1, 1 -> 2, 2 -> 3, 3 -> 2.
        let g = Graph::from_edges(4, &[(0, 2), (1, 2), (1, 3), (2, 3)]);
        let ord = DegreeOrder::new(&g);
        assert!(ord.precedes(0, 1));
        assert!(ord.precedes(1, 3), "equal degree broken by id");
        assert!(ord.precedes(3, 2));
        assert!(!ord.precedes(2, 0));
    }

    #[test]
    fn orientation_is_acyclic_and_complete() {
        let g = generators::erdos_renyi(60, 0.12, 7);
        let dag = OrientedGraph::by_degree(&g);
        assert_eq!(dag.num_edges(), g.num_edges());
        let ord = DegreeOrder::new(&g);
        let mut seen = 0;
        for u in g.vertices() {
            for &v in dag.out_neighbors(u) {
                assert!(ord.precedes(u, v), "edge must follow the order");
                assert!(g.has_edge(u, v));
                seen += 1;
            }
        }
        assert_eq!(seen, g.num_edges());
    }

    #[test]
    fn degeneracy_of_clique_and_tree() {
        let k5 = generators::complete(5);
        assert_eq!(DegeneracyOrder::new(&k5).degeneracy, 4);
        let path = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(DegeneracyOrder::new(&path).degeneracy, 1);
        let empty = Graph::from_edges(3, &[]);
        assert_eq!(DegeneracyOrder::new(&empty).degeneracy, 0);
    }

    #[test]
    fn degeneracy_ordering_invariant() {
        // Every vertex has at most `core(v)` neighbours later in the order,
        // and out-degrees under the orientation are <= degeneracy.
        let g = generators::barabasi_albert(300, 4, 11);
        let ord = DegeneracyOrder::new(&g);
        for v in g.vertices() {
            let later = g
                .neighbors(v)
                .iter()
                .filter(|&&w| ord.rank[w as usize] > ord.rank[v as usize])
                .count();
            assert!(later as u32 <= ord.core[v as usize]);
        }
        let dag = OrientedGraph::by_degeneracy(&g);
        assert!(dag.max_out_degree() as u32 <= ord.degeneracy);
    }

    #[test]
    fn core_numbers_on_known_graph() {
        // Triangle + pendant: triangle vertices core 2, pendant core 1.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let ord = DegeneracyOrder::new(&g);
        assert_eq!(ord.core, vec![2, 2, 2, 1]);
        assert_eq!(ord.degeneracy, 2);
    }

    proptest! {
        #[test]
        fn arcs_carry_their_edge_ids(seed in 0u64..60, n in 2usize..50, p in 0.0f64..0.5) {
            let g = generators::erdos_renyi(n, p, seed);
            for dag in [OrientedGraph::by_degree(&g), OrientedGraph::by_degeneracy(&g)] {
                let mut seen = vec![false; g.num_edges()];
                for u in g.vertices() {
                    let (targets, ids) = (dag.out_neighbors(u), dag.out_edge_ids(u));
                    prop_assert_eq!(targets.len(), ids.len());
                    for (&v, &id) in targets.iter().zip(ids) {
                        prop_assert_eq!(g.edge(id), Edge::new(u, v));
                        prop_assert!(!seen[id as usize], "edge {} oriented twice", id);
                        seen[id as usize] = true;
                    }
                }
                prop_assert!(seen.iter().all(|&s| s), "every edge oriented");
            }
        }
    }
}
