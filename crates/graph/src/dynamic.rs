//! A mutable adjacency-list graph for the dynamic maintenance algorithms.
//!
//! The lists live in fixed pages of [`ADJ_PAGE`] consecutive vertices, each
//! page `Arc`-shared. A clone copies page pointers; an edge update copies
//! the pages of its two endpoints, and only while another clone still
//! shares them. Publishing a served snapshot therefore costs
//! `n / ADJ_PAGE` pointer copies, and the next write pays for the one or
//! two pages it touches instead of for the whole adjacency.

use crate::{Edge, Graph, VertexId};
use std::sync::Arc;

/// Vertices per adjacency page; a power of two. Smaller pages make a
/// publish clone and its drop cost more pointers, larger ones make each
/// write copy more lists. 64 gave the lowest clone + drop + maintenance
/// time of 16, 32, 64, 128 and 256 on one shard of LiveJournal Small
/// (DESIGN.md §10).
pub const ADJ_PAGE: usize = 64;

const _: () = assert!(ADJ_PAGE.is_power_of_two());

/// `log2(ADJ_PAGE)`: vertex `v` sits on page `v >> ADJ_SHIFT`.
const ADJ_SHIFT: u32 = ADJ_PAGE.trailing_zeros();

type AdjPage = Arc<Vec<Vec<VertexId>>>;

/// An undirected simple graph with sorted adjacency vectors supporting
/// `O(d)` edge insertion and deletion — the substrate of the index
/// maintenance algorithms (§V of the paper). Clones share every
/// [`ADJ_PAGE`]-vertex page that neither side has written since.
///
/// # Examples
///
/// ```
/// use esd_graph::DynamicGraph;
///
/// let mut g = DynamicGraph::new(3);
/// assert!(g.insert_edge(0, 1));
/// assert!(!g.insert_edge(1, 0), "already present");
/// let published = g.clone(); // copies one page pointer
/// assert!(g.remove_edge(0, 1)); // copies the one page holding 0 and 1
/// assert!(!g.remove_edge(0, 1), "already gone");
/// assert!(published.has_edge(0, 1));
/// assert_eq!(g.pages_unshared_with(&published), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    /// Every page but the last holds exactly [`ADJ_PAGE`] lists, so the
    /// pages alone give the vertex count.
    pub(crate) pages: Vec<AdjPage>,
    pub(crate) m: usize,
}

impl DynamicGraph {
    /// An edgeless graph on `n` vertices. Every full page starts as the
    /// same shared page of empty lists.
    pub fn new(n: usize) -> Self {
        let full: AdjPage = Arc::new(vec![Vec::new(); ADJ_PAGE]);
        let mut pages: Vec<AdjPage> = (0..n / ADJ_PAGE).map(|_| Arc::clone(&full)).collect();
        let partial = n % ADJ_PAGE;
        if partial > 0 {
            pages.push(Arc::new(vec![Vec::new(); partial]));
        }
        Self { pages, m: 0 }
    }

    /// Copies a static graph into mutable form.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_vertices();
        let pages = (0..n)
            .step_by(ADJ_PAGE)
            .map(|start| {
                let end = (start + ADJ_PAGE).min(n);
                Arc::new(
                    (start..end)
                        .map(|v| g.neighbors(v as VertexId).to_vec())
                        .collect(),
                )
            })
            .collect();
        Self {
            pages,
            m: g.num_edges(),
        }
    }

    /// Freezes into an immutable CSR [`Graph`].
    pub fn to_graph(&self) -> Graph {
        let mut b = crate::GraphBuilder::with_capacity(self.num_vertices(), self.m);
        for e in self.canonical_edges() {
            b.add_edge(e.u, e.v);
        }
        b.build()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.pages
            .last()
            .map_or(0, |last| (self.pages.len() - 1) * ADJ_PAGE + last.len())
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.neighbors(u).len()
    }

    /// Sorted neighbour list of `u`.
    ///
    /// # Panics
    /// If `u` is not a vertex.
    #[inline]
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        let u = u as usize;
        &self.pages[u >> ADJ_SHIFT][u & (ADJ_PAGE - 1)]
    }

    /// `u`'s list for writing: copies its page first if another clone
    /// shares it.
    pub(crate) fn list_mut(&mut self, u: VertexId) -> &mut Vec<VertexId> {
        let u = u as usize;
        &mut Arc::make_mut(&mut self.pages[u >> ADJ_SHIFT])[u & (ADJ_PAGE - 1)]
    }

    /// Every list, in vertex order.
    pub(crate) fn lists(&self) -> impl Iterator<Item = &Vec<VertexId>> {
        self.pages.iter().flat_map(|page| page.iter())
    }

    /// `O(log d)` adjacency test.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Ensures the vertex set covers `v`: fills the last page, then
    /// appends new ones.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        let want = v as usize + 1;
        let n = self.num_vertices();
        if want <= n {
            return;
        }
        if let Some(last) = self.pages.last_mut().filter(|p| p.len() < ADJ_PAGE) {
            let fill = ADJ_PAGE.min(last.len() + want - n);
            Arc::make_mut(last).resize(fill, Vec::new());
        }
        let covered = self.pages.len() * ADJ_PAGE;
        for start in (covered..want).step_by(ADJ_PAGE) {
            let len = ADJ_PAGE.min(want - start);
            self.pages.push(Arc::new(vec![Vec::new(); len]));
        }
    }

    /// Inserts `(u, v)`; returns `false` if already present or a self-loop.
    /// Copies nothing when the edge is already present.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        self.ensure_vertex(u.max(v));
        match self.neighbors(u).binary_search(&v) {
            Ok(_) => false,
            Err(pos_u) => {
                self.list_mut(u).insert(pos_u, v);
                let pos_v = self
                    .neighbors(v)
                    .binary_search(&u)
                    .expect_err("symmetric list out of sync");
                self.list_mut(v).insert(pos_v, u);
                self.m += 1;
                true
            }
        }
    }

    /// Removes `(u, v)`; returns `false` if absent. Copies nothing when the
    /// edge is absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let n = self.num_vertices();
        if u == v || u as usize >= n || v as usize >= n {
            return false;
        }
        match self.neighbors(u).binary_search(&v) {
            Err(_) => false,
            Ok(pos_u) => {
                self.list_mut(u).remove(pos_u);
                let pos_v = self
                    .neighbors(v)
                    .binary_search(&u)
                    .expect("symmetric list out of sync");
                self.list_mut(v).remove(pos_v);
                self.m -= 1;
                true
            }
        }
    }

    /// Sorted common neighbourhood `N(u) ∩ N(v)`.
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
        crate::intersect::intersect_adaptive(self.neighbors(u), self.neighbors(v))
    }

    /// All edges in canonical order.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.m);
        out.extend(self.canonical_edges());
        out
    }

    /// Every edge `(u, v)` with `u < v`, in canonical order.
    fn canonical_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..).zip(self.lists()).flat_map(|(u, nbrs)| {
            let start = nbrs.partition_point(|&v| v <= u);
            nbrs[start..].iter().map(move |&v| Edge { u, v })
        })
    }

    /// How many of this graph's pages `other` does not hold at the same
    /// position — the pages the writes since the two were cloned apart
    /// have copied, plus any this graph grew beyond `other`'s.
    pub fn pages_unshared_with(&self, other: &Self) -> usize {
        self.pages
            .iter()
            .enumerate()
            .filter(|&(i, page)| !other.pages.get(i).is_some_and(|o| Arc::ptr_eq(page, o)))
            .count()
    }
}

/// Logical equality: the same vertex count and the same lists, however the
/// pages came to be shared. Shared pages compare by pointer.
impl PartialEq for DynamicGraph {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m
            && self.pages.len() == other.pages.len()
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Eq for DynamicGraph {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_static() {
        let g = generators::erdos_renyi(40, 0.2, 5);
        let d = DynamicGraph::from_graph(&g);
        assert_eq!(d.to_graph(), g);
    }

    #[test]
    fn insert_remove_keeps_sorted_symmetric() {
        let mut g = DynamicGraph::new(5);
        g.insert_edge(3, 1);
        g.insert_edge(3, 0);
        g.insert_edge(3, 4);
        assert_eq!(g.neighbors(3), &[0, 1, 4]);
        assert!(g.has_edge(1, 3));
        g.remove_edge(1, 3);
        assert_eq!(g.neighbors(3), &[0, 4]);
        assert!(!g.has_edge(3, 1));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = DynamicGraph::new(2);
        assert!(!g.insert_edge(1, 1));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn grows_on_demand() {
        let mut g = DynamicGraph::new(0);
        g.insert_edge(7, 2);
        assert_eq!(g.num_vertices(), 8);
        assert!(g.has_edge(2, 7));
    }

    #[test]
    fn remove_out_of_range_is_noop() {
        let mut g = DynamicGraph::new(2);
        assert!(!g.remove_edge(0, 9));
    }

    #[test]
    fn growth_fills_the_last_page_then_appends() {
        let mut g = DynamicGraph::new(ADJ_PAGE + 3);
        assert_eq!(g.pages.len(), 2);
        let before = g.clone();
        g.ensure_vertex((ADJ_PAGE + 5) as VertexId);
        assert_eq!(g.num_vertices(), ADJ_PAGE + 6);
        assert_eq!(g.pages_unshared_with(&before), 1, "the last page grew");
        g.ensure_vertex((3 * ADJ_PAGE + 1) as VertexId);
        assert_eq!(g.num_vertices(), 3 * ADJ_PAGE + 2);
        assert_eq!(g.pages.len(), 4);
        assert_eq!(g.validate(), Vec::new());
        g.ensure_vertex(0);
        assert_eq!(g.num_vertices(), 3 * ADJ_PAGE + 2, "never shrinks");
    }

    #[test]
    fn a_clone_shares_every_page_until_a_write() {
        let g = generators::erdos_renyi(5 * ADJ_PAGE, 0.02, 9);
        let mut live = DynamicGraph::from_graph(&g);
        let published = live.clone();
        assert_eq!(live.pages_unshared_with(&published), 0);
        let e = g.edges()[0];
        assert!(!live.insert_edge(e.u, e.v), "duplicate insert");
        assert_eq!(
            live.pages_unshared_with(&published),
            0,
            "a no-op copies nothing"
        );
        assert!(live.remove_edge(e.u, e.v));
        let touched = if e.u as usize / ADJ_PAGE == e.v as usize / ADJ_PAGE {
            1
        } else {
            2
        };
        assert_eq!(live.pages_unshared_with(&published), touched);
        assert_eq!(published.to_graph(), g, "the published clone is untouched");
        assert_ne!(live, published);
        assert!(live.insert_edge(e.u, e.v));
        assert_eq!(live, published, "equality is logical, not by page");
    }

    /// One step of the paging proptest.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(VertexId, VertexId),
        Remove(VertexId, VertexId),
        Ensure(VertexId),
    }

    /// Inserts, removes and growth steps in the ratio 4 : 3 : 1.
    fn op() -> impl Strategy<Value = Op> {
        let v = 0..(3 * ADJ_PAGE as VertexId);
        (0u8..8, v.clone(), v).prop_map(|(kind, a, b)| match kind {
            0..=3 => Op::Insert(a, b),
            4..=6 => Op::Remove(a, b),
            _ => Op::Ensure(a + b / 3),
        })
    }

    proptest! {
        /// Random insert/remove/`ensure_vertex` sequences against a
        /// `Vec<BTreeSet>` model. Before every step the graph is cloned:
        /// the clone must keep the old content, and a write on existing
        /// vertices must unshare at most its endpoints' two pages (none
        /// when it changes nothing).
        #[test]
        fn paged_adjacency_matches_btreeset_model(
            n in 0usize..(2 * ADJ_PAGE),
            ops in prop::collection::vec(op(), 0..150),
        ) {
            let mut g = DynamicGraph::new(n);
            let mut model: Vec<std::collections::BTreeSet<VertexId>> = vec![Default::default(); n];
            for op in ops {
                let before = g.clone();
                let old_model = model.clone();
                let in_range = |a: VertexId, b: VertexId| (a.max(b) as usize) < model.len();
                let (changed, bounded) = match op {
                    Op::Insert(a, b) => {
                        let bounded = in_range(a, b);
                        if a != b && a.max(b) as usize >= model.len() {
                            model.resize(a.max(b) as usize + 1, Default::default());
                        }
                        let expect = a != b && model[a as usize].insert(b);
                        if expect {
                            model[b as usize].insert(a);
                        }
                        prop_assert_eq!(g.insert_edge(a, b), expect);
                        (expect, bounded)
                    }
                    Op::Remove(a, b) => {
                        let expect = a != b
                            && in_range(a, b)
                            && model[a as usize].remove(&b);
                        if expect {
                            model[b as usize].remove(&a);
                        }
                        prop_assert_eq!(g.remove_edge(a, b), expect);
                        (expect, true)
                    }
                    Op::Ensure(v) => {
                        if v as usize >= model.len() {
                            model.resize(v as usize + 1, Default::default());
                        }
                        g.ensure_vertex(v);
                        (false, false)
                    }
                };
                if bounded {
                    let unshared = g.pages_unshared_with(&before);
                    prop_assert!(unshared <= 2, "{op:?} unshared {unshared} pages");
                    prop_assert_eq!(unshared == 0, !changed, "{:?}", op);
                }
                prop_assert_eq!(g.num_vertices(), model.len());
                for (v, set) in model.iter().enumerate() {
                    prop_assert!(g.neighbors(v as VertexId).iter().eq(set.iter()));
                }
                prop_assert_eq!(
                    g.num_edges(),
                    model.iter().map(std::collections::BTreeSet::len).sum::<usize>() / 2
                );
                prop_assert_eq!(before.num_vertices(), old_model.len());
                for (v, set) in old_model.iter().enumerate() {
                    prop_assert!(before.neighbors(v as VertexId).iter().eq(set.iter()));
                }
                prop_assert_eq!(g.validate(), Vec::new());
            }
        }

        #[test]
        fn random_ops_match_btreeset_model(ops in prop::collection::vec((any::<bool>(), 0u32..12, 0u32..12), 0..120)) {
            let mut g = DynamicGraph::new(12);
            let mut model = std::collections::BTreeSet::new();
            for (insert, a, b) in ops {
                if a == b { continue; }
                let key = (a.min(b), a.max(b));
                if insert {
                    prop_assert_eq!(g.insert_edge(a, b), model.insert(key));
                } else {
                    prop_assert_eq!(g.remove_edge(a, b), model.remove(&key));
                }
                prop_assert_eq!(g.num_edges(), model.len());
            }
            let edges: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
            let expect: Vec<(u32, u32)> = model.into_iter().collect();
            prop_assert_eq!(edges, expect);
        }
    }
}
