//! The ESDIndex (§IV): near-optimal top-k edge structural diversity queries.
//!
//! For every distinct component size `c ∈ C` occurring in any edge
//! ego-network, the index keeps a list `H(c)` of all edges having at least
//! one component of size ≥ c, ranked by their structural diversity at
//! threshold `c`. A query `(k, τ)` binary-searches `C` for the smallest
//! `c* ≥ τ` and reads the top `k` of `H(c*)`. Total space is `O(αm)`
//! (Theorem 3).
//!
//! The paper keeps each `H(c)` in a self-balancing BST so that Algorithms
//! 4–5 can update it. Nothing updates a built [`EsdIndex`], so it lays every
//! list out as one contiguous rank-ordered slice instead: a query costs
//! `O(log |C| + k)` (one binary search and a slice copy, against Theorem
//! 5's `O(k log m + log n)`), a rank lookup `O(log |C| + log m)`, and an
//! entry 12 bytes. The layout is also what [`persist`] writes to disk. The
//! maintained index ([`crate::maintain`]) keeps its lists in paged
//! [`CowRun`](crate::cow::CowRun)s instead.
//!
//! Three constructions are provided:
//! * [`EsdIndex::build_basic`] — Algorithm 2: BFS over every edge
//!   ego-network, `O((d_max + log m)·αm)`.
//! * [`EsdIndex::build_fast`] — Algorithm 3 (the paper's `ESDIndex+`):
//!   4-clique enumeration + union–find, `O((αγ(n) + log m)·αm)`.
//! * [`EsdIndex::build_parallel`] — §IV-E (the paper's `PESDIndex+`):
//!   edge-parallel 4-clique enumeration with sharded DSU application.

pub(crate) mod build;
pub mod delta;
mod parallel;
pub mod persist;

pub use build::BuildStats;
pub use delta::{EdgeSetError, EdgeSetSnapshot};

/// Assembles an [`EsdIndex`] from precomputed per-edge component sizes
/// (Algorithm 2 lines 5–15). Exposed so callers timing or customising the
/// component phase can reuse the list-fill phase.
pub fn assemble_index(g: &Graph, comps: &EdgeComponents) -> EsdIndex {
    EsdIndex::from_components(g, comps)
}
pub use parallel::ParallelBuildReport;
pub use persist::PersistError;

use crate::cow::RankKey;
use crate::ScoredEdge;
use esd_graph::{Edge, Graph};

/// Per-edge sorted component-size multisets — the `C_uv` of every edge,
/// stored flat. The common intermediate from which the index is assembled;
/// also useful standalone (e.g. for scoring every edge at several τ without
/// building the full index). Produced by [`EdgeComponents::by_bfs`]
/// (Algorithm 2's per-edge BFS) or [`EdgeComponents::by_four_cliques`]
/// (Algorithm 3's enumerate-once pass) — both yield identical data.
#[derive(Debug, Clone, Default)]
pub struct EdgeComponents {
    /// `offsets[e]..offsets[e+1]` is edge `e`'s slice; length `m + 1`.
    pub(crate) offsets: Vec<usize>,
    /// Flat ascending-sorted size lists.
    pub(crate) sizes: Vec<u32>,
}

impl EdgeComponents {
    /// Component sizes of every edge ego-network by per-edge BFS
    /// (Algorithm 2 lines 1–3).
    pub fn by_bfs(g: &Graph) -> Self {
        let comps = build::components_by_bfs(g);
        #[cfg(any(test, feature = "strict-invariants"))]
        crate::audit::assert_clean("EdgeComponents (by_bfs)", &comps.validate());
        comps
    }

    /// Component sizes of every edge ego-network by 4-clique enumeration +
    /// union–find (Algorithm 3 lines 1–22).
    pub fn by_four_cliques(g: &Graph) -> Self {
        let comps = build::components_by_four_cliques(g).components;
        #[cfg(any(test, feature = "strict-invariants"))]
        crate::audit::assert_clean("EdgeComponents (by_four_cliques)", &comps.validate());
        comps
    }

    /// Edge `e`'s sorted component sizes (the paper's `C_uv`).
    #[inline]
    pub fn sizes_of(&self, e: usize) -> &[u32] {
        &self.sizes[self.offsets[e]..self.offsets[e + 1]]
    }

    /// The edge's structural diversity at threshold `tau`.
    pub fn score_of(&self, e: usize, tau: u32) -> u32 {
        crate::score::score_from_sizes(self.sizes_of(e), tau)
    }

    /// Number of edges covered.
    pub fn num_edges(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Each edge of `edges` (indexed by edge id) with its sorted sizes —
    /// the items [`build::fill_lists`] ranks.
    pub(crate) fn items<'a>(
        &'a self,
        edges: &'a [Edge],
    ) -> impl Iterator<Item = (Edge, &'a [u32])> + Clone + 'a {
        edges
            .iter()
            .enumerate()
            .map(|(eid, &edge)| (edge, self.sizes_of(eid)))
    }
}

/// The ESDIndex: one ranked list per distinct component size, every list a
/// contiguous rank-ordered slice of one entry array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EsdIndex {
    /// `C`, ascending.
    pub(crate) sizes: Vec<u32>,
    /// `list_offsets[i]..list_offsets[i+1]` bounds `H(sizes[i])` in
    /// `entries`; length `|C| + 1`.
    pub(crate) list_offsets: Vec<usize>,
    /// All lists back to back, each in rank order (score desc, edge asc).
    pub(crate) entries: Vec<ScoredEdge>,
}

impl Default for EsdIndex {
    fn default() -> Self {
        Self::from_lists(Vec::new(), Vec::new())
    }
}

impl EsdIndex {
    /// Builds the index by per-edge BFS (Algorithm 2, the paper's
    /// `ESDIndex` baseline builder).
    pub fn build_basic(g: &Graph) -> Self {
        Self::from_components(g, &build::components_by_bfs(g))
    }

    /// Builds the index by 4-clique enumeration and union–find
    /// (Algorithm 3, the paper's `ESDIndex+` builder).
    pub fn build_fast(g: &Graph) -> Self {
        Self::from_components(g, &build::components_by_four_cliques(g).components)
    }

    /// [`EsdIndex::build_fast`] plus the 4-clique work counters, for the
    /// experiments harness.
    pub fn build_fast_with_stats(g: &Graph) -> (Self, BuildStats) {
        let artifacts = build::components_by_four_cliques(g);
        (
            Self::from_components(g, &artifacts.components),
            artifacts.stats,
        )
    }

    /// Builds the index with `threads` worker threads (the paper's
    /// `PESDIndex+`, §IV-E). Produces an index equal to
    /// [`EsdIndex::build_fast`]'s for every thread count.
    pub fn build_parallel(g: &Graph, threads: usize) -> Self {
        parallel::build_parallel(g, threads).0
    }

    /// [`EsdIndex::build_parallel`] plus the per-worker/per-shard work
    /// balance report (printed by the Fig 7/10 experiments).
    pub fn build_parallel_with_report(g: &Graph, threads: usize) -> (Self, ParallelBuildReport) {
        parallel::build_parallel(g, threads)
    }

    /// Assembles lists from per-edge component sizes (Algorithm 2 lines
    /// 5–15, shared by every builder).
    pub(crate) fn from_components(g: &Graph, comps: &EdgeComponents) -> Self {
        let _span = esd_telemetry::span(esd_telemetry::Stage::BuildFill);
        let sizes = build::distinct_sizes(comps);
        let lists = build::fill_lists(comps.items(g.edges()), &sizes, 0..sizes.len());
        Self::from_lists(sizes, lists)
    }

    /// Concatenates the rank-sorted list buffers of `sizes`, in order.
    pub(crate) fn from_lists(sizes: Vec<u32>, lists: Vec<Vec<RankKey>>) -> Self {
        debug_assert_eq!(sizes.len(), lists.len());
        let mut list_offsets = Vec::with_capacity(sizes.len() + 1);
        list_offsets.push(0);
        let mut entries = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        for list in lists {
            entries.extend(list.into_iter().map(ScoredEdge::from));
            list_offsets.push(entries.len());
        }
        let index = Self {
            sizes,
            list_offsets,
            entries,
        };
        #[cfg(any(test, feature = "strict-invariants"))]
        crate::audit::assert_clean("EsdIndex (post-build)", &index.validate());
        index
    }

    /// The distinct component sizes `C`, ascending.
    pub fn component_sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Number of lists `|C|`.
    pub fn num_lists(&self) -> usize {
        self.sizes.len()
    }

    /// `H(sizes[i])`. The offsets must be sound (see `validate`).
    pub(crate) fn list_at(&self, i: usize) -> &[ScoredEdge] {
        &self.entries[self.list_offsets[i]..self.list_offsets[i + 1]]
    }

    /// The list answering threshold `tau`: `H(c*)` for the smallest
    /// `c* ∈ C` with `c* ≥ τ` (Theorem 4), or nothing past the largest size.
    fn answering(&self, tau: u32) -> &[ScoredEdge] {
        let i = self.sizes.partition_point(|&c| c < tau);
        if i == self.sizes.len() {
            return &[];
        }
        self.list_at(i)
    }

    /// The full list `H(c)` in rank order, if `c ∈ C`.
    pub fn list(&self, c: u32) -> Option<&[ScoredEdge]> {
        let i = self.sizes.binary_search(&c).ok()?;
        Some(self.list_at(i))
    }

    /// Entry count of `H(c)`, if `c ∈ C`.
    pub fn list_len(&self, c: u32) -> Option<usize> {
        self.list(c).map(<[ScoredEdge]>::len)
    }

    /// Total number of `(edge, list)` entries — the `O(αm)` quantity of
    /// Theorem 3.
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }

    /// Approximate heap footprint in bytes (Fig 6(a)).
    pub fn byte_size(&self) -> usize {
        self.sizes.capacity() * std::mem::size_of::<u32>()
            + self.list_offsets.capacity() * std::mem::size_of::<usize>()
            + self.entries.capacity() * std::mem::size_of::<ScoredEdge>()
    }

    /// The query processing algorithm (§IV-B): top-`k` edges with the
    /// highest structural diversity at threshold `tau`, in
    /// `O(log |C| + k)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use esd_core::index::EsdIndex;
    /// use esd_core::fixtures::fig1;
    ///
    /// let (g, _) = fig1();
    /// let index = EsdIndex::build_fast(&g);
    /// let top = index.query(3, 2);
    /// assert!(top.iter().all(|s| s.score == 2));
    /// ```
    pub fn query(&self, k: usize, tau: u32) -> Vec<ScoredEdge> {
        self.query_slice(k, tau).to_vec()
    }

    /// [`EsdIndex::query`] without the copy: the answer is a prefix of
    /// the list answering `tau`.
    pub fn query_slice(&self, k: usize, tau: u32) -> &[ScoredEdge] {
        assert!(tau >= 1, "component size threshold must be at least 1");
        let _span = esd_telemetry::span(esd_telemetry::Stage::QueryTopk);
        let list = self.answering(tau);
        &list[..k.min(list.len())]
    }

    /// The rank of `edge` within the list answering threshold `tau`
    /// (0 = best), if the edge has a component of size ≥ τ — a binary
    /// search in rank order. Requires the edge's exact score at τ,
    /// available from [`crate::score::edge_score`].
    pub fn rank_of(&self, edge: Edge, score: u32, tau: u32) -> Option<usize> {
        let probe = ScoredEdge { edge, score };
        self.answering(tau)
            .binary_search_by(|s| s.ranking_cmp(&probe))
            .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use crate::score::naive_topk;
    use esd_graph::generators;

    #[test]
    fn fig1_index_structure_matches_example4() {
        let (g, _) = fig1();
        for index in [EsdIndex::build_basic(&g), EsdIndex::build_fast(&g)] {
            assert_eq!(index.component_sizes(), &[1, 2, 4, 5]);
            assert_eq!(index.list_len(1), Some(40), "H(1) contains all edges");
            assert_eq!(
                index.list_len(2),
                Some(33),
                "40 minus the 7 max-size-1 edges"
            );
            assert_eq!(index.list_len(4), Some(15), "the K6 edges");
            assert_eq!(index.list_len(5), Some(3));
            assert_eq!(index.list_len(3), None, "3 ∉ C");
        }
    }

    #[test]
    fn basic_and_fast_build_identical_indexes() {
        for seed in 0..4 {
            let g = generators::erdos_renyi(50, 0.2, seed);
            assert_eq!(EsdIndex::build_basic(&g), EsdIndex::build_fast(&g));
        }
    }

    #[test]
    fn query_matches_naive_all_parameters() {
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        for tau in 1..=7 {
            for k in [1, 3, 10, 100] {
                assert_eq!(index.query(k, tau), naive_topk(&g, k, tau), "k={k} τ={tau}");
            }
        }
    }

    #[test]
    fn query_routing_between_sizes() {
        // Fig 1: C = {1,2,4,5}. τ = 3 must route to H(4) (Theorem 4 case 2).
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        assert_eq!(index.query(100, 3), index.query(100, 4));
        assert!(index.query(5, 6).is_empty(), "τ beyond max C");
    }

    #[test]
    fn query_on_random_graphs_matches_naive() {
        for seed in 0..5 {
            let g = generators::clique_overlap(80, 60, 5, seed);
            let index = EsdIndex::build_fast(&g);
            for tau in [1, 2, 3, 4] {
                assert_eq!(index.query(12, tau), naive_topk(&g, 12, tau));
            }
        }
    }

    #[test]
    fn empty_graph_index() {
        let g = Graph::from_edges(0, &[]);
        let index = EsdIndex::build_fast(&g);
        assert_eq!(index.num_lists(), 0);
        assert!(index.query(5, 1).is_empty());
    }

    #[test]
    fn triangle_free_graph_has_no_lists() {
        let g = generators::star(10);
        let index = EsdIndex::build_fast(&g);
        assert_eq!(index.num_lists(), 0, "all ego-networks are empty");
    }

    #[test]
    fn rank_of_top_edge_is_zero() {
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        let top = index.query(1, 5)[0];
        assert_eq!(index.rank_of(top.edge, top.score, 5), Some(0));
    }

    #[test]
    fn rank_of_is_the_position_in_the_answering_list() {
        let g = generators::clique_overlap(80, 70, 5, 3);
        let index = EsdIndex::build_fast(&g);
        for tau in 1..=*index.component_sizes().last().unwrap() + 1 {
            let list = index.query(usize::MAX, tau);
            for (rank, s) in list.iter().enumerate() {
                assert_eq!(index.rank_of(s.edge, s.score, tau), Some(rank), "τ={tau}");
                assert_eq!(index.rank_of(s.edge, s.score + 1, tau), None);
            }
        }
    }

    #[test]
    fn list_and_query_slice() {
        let (g, n) = fig1();
        let index = EsdIndex::build_fast(&g);
        assert_eq!(index.list(5).unwrap().len(), 3);
        assert!(index.list(3).is_none());
        assert_eq!(index.rank_of(Edge::new(n["a"], n["b"]), 1, 2), None);
        for tau in 1..=7 {
            for k in [0, 1, 3, 20, 100] {
                assert_eq!(index.query_slice(k, tau), &index.query(k, tau)[..]);
            }
        }
        let empty = EsdIndex::build_fast(&Graph::from_edges(3, &[]));
        assert_eq!(empty, EsdIndex::default());
        assert!(empty.query_slice(5, 1).is_empty());
    }

    #[test]
    fn total_entries_bounded_by_sum_min_degree() {
        let g = generators::clique_overlap(100, 80, 6, 2);
        let index = EsdIndex::build_fast(&g);
        let bound = esd_graph::metrics::sum_min_degree(&g);
        assert!(index.total_entries() as u64 <= bound, "Theorem 3 bound");
    }
}
