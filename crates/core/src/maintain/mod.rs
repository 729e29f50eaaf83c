//! Dynamic index maintenance (§V): edge insertion (Algorithm 4) and
//! deletion (Algorithm 5).
//!
//! A [`MaintainedIndex`] keeps, alongside the `H(c)` lists, the per-edge
//! disjoint-set forests `M_uv` over each common neighbourhood and the global
//! component-size refcounts. Observations 2–3 of the paper localise an
//! update: only the edges of `Ĝ_{N(uv)}` — the inserted/deleted edge itself,
//! the triangle edges `(u,w)`, `(v,w)` for `w ∈ N(uv)`, and the ego-network
//! edges `(w1,w2)` — can change their structural diversity.
//!
//! Insertion follows Algorithm 4 verbatim: new singletons plus one `Union`
//! per member edge of each new 4-clique. Deletion follows the spirit of
//! Algorithm 5's `Update`: union–find cannot split, so each affected edge's
//! forest is rebuilt from its post-deletion ego-network (the same
//! `O((αγ(n) + log m)·m_uv)` locality as Theorem 9).
//!
//! The `H(c)` lists and their size refcounts are a [`SizeRuns`]: each
//! update retracts the affected edges under their old component sizes and
//! restores them under their new ones. A size new to an update gets a list
//! seeded from its successor's — a documented deviation from the paper's
//! Example 7, explained on [`SizeRuns`].

use crate::cow::{CowMap, SizeRuns};
use crate::index::build;
use crate::ScoredEdge;
use esd_graph::{DynamicGraph, Edge, Graph, VertexId};
use std::collections::{HashMap, HashSet};

pub mod batch;
mod compat;

pub use batch::{BatchStats, MutationBatch, UpdateDisposition};
#[doc(hidden)]
pub use compat::{PipelineOutcome, PipelineReport};

/// Which slice of the edge space a [`MaintainedIndex`] maintains score
/// state for. The graph replica is always complete — adjacency must be
/// global for ego-network connectivity to be computed correctly — but
/// forests, `H(c)` lists, and refcounts exist only for *owned* edges:
/// those whose canonical key hashes to this slice's shard.
///
/// [`EdgeOwnership::ALL`] (the single-engine default) owns everything and
/// is behaviourally identical to the pre-ownership index. Partitioned
/// ownership is what lets a sharded deployment split the expensive
/// per-edge forest maintenance `1/S` per shard while every shard applies
/// the full mutation stream to its cheap adjacency replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeOwnership {
    /// This slice's position in `0..shards`.
    pub shard: u32,
    /// Total number of slices; `1` means sole ownership.
    pub shards: u32,
}

impl EdgeOwnership {
    /// Sole ownership: every edge is owned (the single-engine default).
    pub const ALL: Self = Self {
        shard: 0,
        shards: 1,
    };

    /// Ownership of slice `shard` of `shards`.
    ///
    /// # Panics
    /// If `shards == 0` or `shard >= shards`.
    #[must_use]
    pub fn of(shard: u32, shards: u32) -> Self {
        assert!(shards >= 1, "shard count must be at least 1");
        assert!(shard < shards, "shard {shard} out of range 0..{shards}");
        Self { shard, shards }
    }

    /// The owning shard of a canonical edge key under `shards`-way
    /// partitioning — a fixed splitmix64 finalizer, so the mapping is
    /// stable across runs, platforms, and toolchain versions (per-shard
    /// durability directories depend on it staying put).
    #[must_use]
    pub fn shard_of_key(key: u64, shards: u32) -> u32 {
        if shards <= 1 {
            return 0;
        }
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        #[allow(
            clippy::cast_possible_truncation,
            reason = "z % shards < shards <= u32::MAX"
        )]
        {
            (z % u64::from(shards)) as u32
        }
    }

    /// Whether this slice owns the edge with canonical key `key`.
    #[must_use]
    pub fn owns_key(self, key: u64) -> bool {
        self.shards <= 1 || Self::shard_of_key(key, self.shards) == self.shard
    }
}

/// A per-edge disjoint-set forest over the common neighbourhood, keyed by
/// vertex id — the paper's `M_uv` with its `root` and `count` fields.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeDsu {
    /// `vertex -> (parent vertex, component size)`; the size is only
    /// meaningful at roots.
    pub(crate) nodes: HashMap<VertexId, (VertexId, u32)>,
}

impl EdgeDsu {
    fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn contains(&self, w: VertexId) -> bool {
        self.nodes.contains_key(&w)
    }

    /// Adds `w` as its own singleton component.
    fn insert_singleton(&mut self, w: VertexId) {
        let prev = self.nodes.insert(w, (w, 1));
        debug_assert!(prev.is_none(), "vertex {w} already tracked");
    }

    /// Root of `w`'s component, with path halving.
    fn find(&mut self, w: VertexId) -> VertexId {
        let mut w = w;
        loop {
            let p = self.nodes[&w].0;
            if p == w {
                return w;
            }
            let gp = self.nodes[&p].0;
            self.nodes.get_mut(&w).expect("tracked vertex").0 = gp;
            w = gp;
        }
    }

    /// Merges the components of `a` and `b` (both must be tracked).
    fn union(&mut self, a: VertexId, b: VertexId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (ca, cb) = (self.nodes[&ra].1, self.nodes[&rb].1);
        let (big, small) = if ca >= cb { (ra, rb) } else { (rb, ra) };
        self.nodes.get_mut(&small).expect("root").0 = big;
        self.nodes.get_mut(&big).expect("root").1 = ca + cb;
    }

    /// Sorted multiset of component sizes (the edge's `C_uv`).
    pub(crate) fn component_sizes(&self) -> Vec<u32> {
        let mut sizes: Vec<u32> = self
            .nodes
            .iter()
            .filter(|(w, (p, _))| *p == **w)
            .map(|(_, (_, c))| *c)
            .collect();
        sizes.sort_unstable();
        sizes
    }
}

/// One element of an update batch for [`MaintainedIndex::apply_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Insert the edge `(u, v)`.
    Insert(VertexId, VertexId),
    /// Remove the edge `(u, v)`.
    Remove(VertexId, VertexId),
}

impl GraphUpdate {
    /// The update's endpoint pair, in the order given at construction.
    #[must_use]
    pub fn endpoints(self) -> (VertexId, VertexId) {
        match self {
            GraphUpdate::Insert(u, v) | GraphUpdate::Remove(u, v) => (u, v),
        }
    }

    /// Whether this is an insertion.
    #[must_use]
    pub fn is_insert(self) -> bool {
        matches!(self, GraphUpdate::Insert(..))
    }

    /// Applies the update to `g` alone, by [`MaintainedIndex::apply_batch`]'s
    /// rules: a self-loop is rejected, an insert first grows the vertex
    /// range to both endpoints, and a duplicate insert or a missing removal
    /// changes nothing. Returns whether the edge set changed.
    pub fn apply_to(self, g: &mut DynamicGraph) -> bool {
        match self {
            GraphUpdate::Insert(u, v) if u != v => {
                g.ensure_vertex(u.max(v));
                g.insert_edge(u, v)
            }
            GraphUpdate::Insert(..) => false,
            GraphUpdate::Remove(u, v) => g.remove_edge(u, v),
        }
    }
}

/// Page count of [`MaintainedIndex`]'s forest map. Only the writer reads
/// the forests, so pages can be small — about a dozen forests each at
/// LiveJournal Small scale — and no reader pays for the many page hops.
const FOREST_PAGES: usize = 4096;

/// An ESDIndex that stays consistent under edge insertions and deletions.
///
/// Cloning is cheap: the forests live in a copy-on-write [`CowMap`] and
/// the `H(c)` lists in a [`SizeRuns`], so a clone shares their pages and a
/// later update copies only the pages its blast radius touches.
///
/// # Examples
///
/// ```
/// use esd_core::maintain::MaintainedIndex;
/// use esd_core::fixtures::fig1;
///
/// let (g, names) = fig1();
/// let mut index = MaintainedIndex::new(&g);
/// let before = index.query(3, 2);
/// assert_eq!(before.len(), 3);
///
/// // Example 7: deleting (u, k) creates a size-3 component for (j, k).
/// index.remove_edge(names["u"], names["k"]);
/// assert!(index.component_sizes().contains(&3));
/// ```
#[derive(Debug, Clone)]
pub struct MaintainedIndex {
    pub(crate) g: DynamicGraph,
    /// `M_uv` per edge (absent when the common neighbourhood is empty),
    /// paged so a published clone shares every page a window leaves alone.
    pub(crate) forests: CowMap<EdgeDsu>,
    /// `H(c)` per size `c ∈ C` over the owned edges' `C_uv`, with the
    /// size refcounts; paged so a published clone shares every page a
    /// window leaves alone.
    pub(crate) lists: SizeRuns,
    /// The slice of the edge space this index maintains score state for.
    pub(crate) ownership: EdgeOwnership,
}

impl MaintainedIndex {
    /// Bootstraps the dynamic state from a static graph using the 4-clique
    /// construction (Algorithm 3), then converts the flat forest into
    /// per-edge structures.
    pub fn new(g: &Graph) -> Self {
        Self::new_owned(g, EdgeOwnership::ALL)
    }

    /// Like [`MaintainedIndex::new`], but maintains forests, lists, and
    /// refcounts only for the edges owned under `ownership`; the adjacency
    /// replica is always the complete graph. With [`EdgeOwnership::ALL`]
    /// this is exactly `new`. Sharded deployments give each engine the
    /// same graph with a distinct slice, so the engines' lists partition
    /// the global lists edge-for-edge.
    ///
    /// A fleet that also needs the family suite builds one
    /// [`Construction`](crate::construct::Construction) and slices both
    /// from it instead.
    pub fn new_owned(g: &Graph, ownership: EdgeOwnership) -> Self {
        let pass = build::components_by_four_cliques(g);
        Self::from_pass(DynamicGraph::from_graph(g), g.edges(), &pass, ownership)
    }

    /// The index of the edges `ownership` owns, from a 4-clique pass over
    /// `g`, whose edges by id are `edges`: each owned edge's forest is read
    /// off the pass's arena and its component sizes go into the lists.
    pub(crate) fn from_pass(
        g: DynamicGraph,
        edges: &[Edge],
        pass: &build::FourCliqueArtifacts,
        ownership: EdgeOwnership,
    ) -> Self {
        let owned_forests = edges.iter().enumerate().filter_map(|(eid, e)| {
            if !ownership.owns_key(e.key()) {
                return None;
            }
            let range = &pass.nbrs[pass.nbr_offsets[eid]..pass.nbr_offsets[eid + 1]];
            if range.is_empty() {
                return None;
            }
            let mut dsu = EdgeDsu::default();
            dsu.nodes.reserve(range.len());
            for (i, &w) in range.iter().enumerate() {
                let root_slot = pass.arena.root(eid, i);
                let root_vertex = range[root_slot];
                let count = pass.arena.root_size(eid, root_slot);
                dsu.nodes.insert(w, (root_vertex, count));
            }
            Some((e.key(), dsu))
        });
        let forests = CowMap::from_entries(FOREST_PAGES, owned_forests);

        let lists = SizeRuns::build(
            pass.components
                .items(edges)
                .filter(|(e, _)| ownership.owns_key(e.key())),
        );

        let index = Self {
            g,
            forests,
            lists,
            ownership,
        };
        index.strict_audit();
        index
    }

    /// The slice of the edge space this index maintains score state for.
    #[must_use]
    pub fn ownership(&self) -> EdgeOwnership {
        self.ownership
    }

    /// How many forest pages differ from `other`'s: after `other` was
    /// cloned from this index (or this from `other`), the pages the
    /// updates since then have copied. Each updated forest dirties at most
    /// one page, so this is bounded by the updates' blast radius.
    #[must_use]
    pub fn forest_pages_unshared_with(&self, other: &Self) -> usize {
        self.forests.pages_unshared_with(&other.forests)
    }

    /// How many distinct `H(c)` pages `other` holds nowhere: after the two
    /// were cloned apart, the pages the updates since then have copied or
    /// created. A key edit copies the one page it lands on (two when the
    /// page splits), and a list seeded from its successor shares the
    /// successor's pages.
    #[must_use]
    pub fn list_pages_unshared_with(&self, other: &Self) -> usize {
        self.lists.pages_unshared_with(&other.lists)
    }

    /// The current graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.g
    }

    /// The current distinct component sizes `C`, ascending.
    pub fn component_sizes(&self) -> Vec<u32> {
        self.lists.sizes().collect()
    }

    /// Entry count of `H(c)`, if `c ∈ C`.
    pub fn list_len(&self, c: u32) -> Option<usize> {
        self.lists.run_len(c)
    }

    /// Top-`k` edges at threshold `tau` (same contract as
    /// [`crate::index::EsdIndex::query`]).
    pub fn query(&self, k: usize, tau: u32) -> Vec<ScoredEdge> {
        assert!(tau >= 1, "component size threshold must be at least 1");
        let _span = esd_telemetry::span(esd_telemetry::Stage::QueryTopk);
        self.lists.top_k(k, tau)
    }

    /// Inserts `(u, v)` and repairs the index (Algorithm 4) — a one-update
    /// batch. Returns `false` if the edge already exists or is a self-loop.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let _span = esd_telemetry::span(esd_telemetry::Stage::MaintainInsert);
        self.apply_updates(&[GraphUpdate::Insert(u, v)])
            .stats
            .applied
            == 1
    }

    /// The graph + forest mutations of Algorithm 4 (no list bookkeeping).
    /// Returns the unions performed on owned forests.
    fn mutate_insert(&mut self, u: VertexId, v: VertexId, nuv: &[VertexId]) -> u64 {
        self.g.insert_edge(u, v);

        // Algorithm 4 lines 3–9: fresh singletons. Forests are created or
        // grown only for owned edges — non-owned edges belong to another
        // shard's index, which applies the same mutation to its own slice.
        let mut m_uv = EdgeDsu::default();
        for &w in nuv {
            m_uv.insert_singleton(w);
            // v joins N(uw) and u joins N(vw).
            let uw = Edge::new(u, w).key();
            if self.ownership.owns_key(uw) {
                self.forests.get_or_insert_default(uw).insert_singleton(v);
            }
            let vw = Edge::new(v, w).key();
            if self.ownership.owns_key(vw) {
                self.forests.get_or_insert_default(vw).insert_singleton(u);
            }
        }
        if !m_uv.is_empty() && self.ownership.owns_key(Edge::new(u, v).key()) {
            self.forests.insert(Edge::new(u, v).key(), m_uv);
        }

        // Algorithm 4 lines 10–19: one union per member edge of each new
        // 4-clique {u, v, w1, w2}.
        let mut unions = 0;
        for (w1, w2) in ego_edges(&self.g, nuv) {
            unions += self.union_in(Edge::new(u, v), w1, w2)
                + self.union_in(Edge::new(w1, w2), u, v)
                + self.union_in(Edge::new(u, w1), v, w2)
                + self.union_in(Edge::new(v, w1), u, w2)
                + self.union_in(Edge::new(u, w2), v, w1)
                + self.union_in(Edge::new(v, w2), u, w1);
        }
        unions
    }

    /// Deletes `(u, v)` and repairs the index (Algorithm 5) — a one-update
    /// batch. Returns `false` if the edge is absent.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let _span = esd_telemetry::span(esd_telemetry::Stage::MaintainRemove);
        self.apply_updates(&[GraphUpdate::Remove(u, v)])
            .stats
            .applied
            == 1
    }

    /// The graph + forest mutations of Algorithm 5 (no list bookkeeping).
    /// Returns the unions performed on owned forests.
    fn mutate_remove(&mut self, u: VertexId, v: VertexId, affected: &[u64]) -> u64 {
        self.g.remove_edge(u, v);
        self.forests.remove(Edge::new(u, v).key());

        // Union–find cannot split: rebuild every affected forest from its
        // post-deletion ego-network (Algorithm 5's Update, applied per edge).
        affected
            .iter()
            .map(|&key| Edge::from_key(key))
            .filter(|&e| e != Edge::new(u, v))
            .map(|e| self.rebuild_forest(e))
            .sum()
    }

    /// Applies a batch of updates and returns how each one was handled:
    /// `applied`, `noop` (duplicate insert / missing removal — the graph
    /// already satisfies the request), or `rejected` (structurally invalid:
    /// a self-loop). The [`apply_window`](Self::apply_window) roll-up.
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> BatchStats {
        self.apply_window(updates).stats
    }

    /// Applies one update window, the one write path every caller shares:
    /// each update in order by Algorithm 4 or 5 against the evolving graph,
    /// then one commit of the `H(c)` lists for the whole window. Equivalent
    /// to applying the updates one by one. The commit moves only the
    /// radius edges whose sorted component sizes the window changed, so
    /// updates with overlapping radii (`Ĝ_{N(uv)}` regions) share the list
    /// bookkeeping, which dominates the per-update cost.
    pub fn apply_window(&mut self, updates: &[GraphUpdate]) -> WindowOutcome {
        let _span = esd_telemetry::span(esd_telemetry::Stage::MaintainBatch);
        self.apply_updates(updates)
    }

    /// [`apply_window`](Self::apply_window) without its span, so each entry
    /// point records its own.
    fn apply_updates(&mut self, updates: &[GraphUpdate]) -> WindowOutcome {
        let mut dispositions = Vec::with_capacity(updates.len());
        let mut radius: Vec<u64> = Vec::new();
        // Each radius edge's sorted sizes before the window, taken when an
        // update first touches it: `before[i]` belongs to `radius[i]`.
        let mut before: Vec<Vec<u32>> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut union_ops = 0;
        for &update in updates {
            let disposition = self.classify(update);
            dispositions.push(disposition);
            if disposition != UpdateDisposition::Applied {
                continue;
            }
            let (u, v) = update.endpoints();
            let nuv = self.g.common_neighbors(u, v);
            let affected = affected_edges(&self.g, u, v, &nuv);
            let start = radius.len();
            if start == 0 {
                // One update's keys are distinct; the set only dedups a
                // later update's keys against earlier ones.
                radius.extend_from_slice(&affected);
            } else {
                if seen.is_empty() {
                    seen.extend(radius.iter().copied());
                }
                radius.extend(affected.iter().filter(|&&key| seen.insert(key)));
            }
            before.extend(radius[start..].iter().map(|&key| self.sizes_of(key)));
            union_ops += match update {
                GraphUpdate::Insert(..) => self.mutate_insert(u, v, &nuv),
                GraphUpdate::Remove(..) => self.mutate_remove(u, v, &affected),
            };
        }
        self.commit(&radius, &before);
        esd_telemetry::add(esd_telemetry::Metric::MaintainAffected, radius.len() as u64);
        esd_telemetry::add(esd_telemetry::Metric::MaintainUnionOps, union_ops);
        self.strict_audit();
        WindowOutcome {
            stats: BatchStats::from_dispositions(&dispositions),
            dispositions,
            radius,
            union_ops,
        }
    }

    /// Classifies `update` against the current graph, growing the vertex set
    /// for in-range inserts exactly as the apply would — so even a no-op
    /// insert of `(u, v)` leaves vertices `u` and `v` allocated.
    fn classify(&mut self, update: GraphUpdate) -> UpdateDisposition {
        match update {
            GraphUpdate::Insert(u, v) => {
                if u == v {
                    return UpdateDisposition::Rejected;
                }
                self.g.ensure_vertex(u.max(v));
                if self.g.has_edge(u, v) {
                    UpdateDisposition::Noop
                } else {
                    UpdateDisposition::Applied
                }
            }
            GraphUpdate::Remove(u, v) => {
                if u == v {
                    UpdateDisposition::Rejected
                } else if u as usize >= self.g.num_vertices()
                    || v as usize >= self.g.num_vertices()
                    || !self.g.has_edge(u, v)
                {
                    UpdateDisposition::Noop
                } else {
                    UpdateDisposition::Applied
                }
            }
        }
    }

    /// Removes a vertex by deleting all its incident edges (the paper notes
    /// vertex updates reduce to edge updates, §V). Returns the number of
    /// edges removed. The id itself remains valid (degree 0).
    pub fn remove_vertex(&mut self, v: VertexId) -> usize {
        if v as usize >= self.g.num_vertices() {
            return 0;
        }
        let updates: Vec<GraphUpdate> = self
            .g
            .neighbors(v)
            .iter()
            .map(|&w| GraphUpdate::Remove(v, w))
            .collect();
        self.apply_batch(&updates).applied
    }

    /// Adds a vertex with the given neighbour set as a batch of insertions.
    /// Returns the number of edges actually added.
    pub fn add_vertex(&mut self, v: VertexId, neighbors: &[VertexId]) -> usize {
        let updates: Vec<GraphUpdate> = neighbors
            .iter()
            .map(|&w| GraphUpdate::Insert(v, w))
            .collect();
        self.apply_batch(&updates).applied
    }

    /// Edge `key`'s sorted component sizes: empty when it has no forest
    /// (absent, non-owned, or with an empty common neighbourhood).
    fn sizes_of(&self, key: u64) -> Vec<u32> {
        self.forests
            .get(key)
            .map_or_else(Vec::new, EdgeDsu::component_sizes)
    }

    /// The window's list commit: every radius edge whose sorted sizes
    /// differ from `before` is retracted under its old sizes
    /// ([`SizeRuns::retract`]) and restored under its new ones
    /// ([`SizeRuns::restore`]). An edge whose sizes came back unchanged
    /// keeps its keys, since they would be rewritten to themselves.
    fn commit(&mut self, radius: &[u64], before: &[Vec<u32>]) {
        let mut changed: Vec<(Edge, Vec<u32>)> = Vec::new();
        let mut removed = 0;
        for (&key, old) in radius.iter().zip(before) {
            let new = self.sizes_of(key);
            if new != *old {
                let edge = Edge::from_key(key);
                removed += self.lists.retract(edge, old);
                changed.push((edge, new));
            }
        }
        let inserted = self.lists.restore(
            changed
                .iter()
                .map(|(edge, sizes)| (*edge, sizes.as_slice())),
        );
        esd_telemetry::add(esd_telemetry::Metric::TreapRemoves, removed);
        esd_telemetry::add(esd_telemetry::Metric::TreapInserts, inserted);
    }

    /// One `Union` in edge `e`'s forest (Algorithm 4's `M_xy.Union`).
    /// No-op for non-owned edges, whose forests live on another shard.
    /// Returns the unions performed: 1, or 0 for a non-owned edge.
    fn union_in(&mut self, e: Edge, a: VertexId, b: VertexId) -> u64 {
        if !self.ownership.owns_key(e.key()) {
            return 0;
        }
        let forest = self
            .forests
            .get_mut(e.key())
            .expect("forest exists for every 4-clique member edge");
        debug_assert!(forest.contains(a) && forest.contains(b));
        forest.union(a, b);
        1
    }

    /// Recomputes edge `e`'s forest from its current ego-network: none is
    /// stored when its common neighbourhood is empty. No-op for non-owned
    /// edges, whose forests live on another shard. Returns the unions
    /// performed.
    fn rebuild_forest(&mut self, e: Edge) -> u64 {
        let key = e.key();
        if !self.ownership.owns_key(key) {
            return 0;
        }
        let g = &self.g;
        debug_assert!(g.has_edge(e.u, e.v), "rebuilding the forest of absent {e}");
        let members = g.common_neighbors(e.u, e.v);
        if members.is_empty() {
            self.forests.remove(key);
            return 0;
        }
        let mut dsu = EdgeDsu::default();
        for &w in &members {
            dsu.insert_singleton(w);
        }
        let ego = ego_edges(g, &members);
        for &(w1, w2) in &ego {
            dsu.union(w1, w2);
        }
        self.forests.insert(key, dsu);
        ego.len() as u64
    }

    /// Exhaustive consistency check; used by the differential tests and
    /// debug assertions. Panics on divergence with a full violation report.
    ///
    /// Thin wrapper over [`MaintainedIndex::validate_deep`], which recomputes
    /// every forest's ego-network partition from scratch — equivalent in
    /// strength to the full rebuild comparison it replaced, but reporting
    /// *every* violated invariant with its location rather than stopping at
    /// the first `assert_eq!`.
    pub fn check_consistency(&self) {
        crate::audit::assert_clean("MaintainedIndex", &self.validate_deep());
    }

    /// Structural audit at every maintenance boundary when the
    /// `strict-invariants` feature (or `cfg(test)`) is active; free
    /// otherwise. Uses the shallow [`MaintainedIndex::validate`] — the deep
    /// partition check stays opt-in via [`MaintainedIndex::check_consistency`].
    #[cfg(any(test, feature = "strict-invariants"))]
    fn strict_audit(&self) {
        crate::audit::assert_clean("MaintainedIndex (post-update)", &self.validate());
    }

    /// No-op without `strict-invariants`.
    #[cfg(not(any(test, feature = "strict-invariants")))]
    #[inline(always)]
    fn strict_audit(&self) {}
}

/// What one window through [`MaintainedIndex::apply_window`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowOutcome {
    /// Applied/noop/rejected totals: the roll-up of `dispositions`.
    pub stats: BatchStats,
    /// One disposition per input update, in input order.
    pub dispositions: Vec<UpdateDisposition>,
    /// The window's radius: every edge key in an applied update's
    /// `Ĝ_{N(uv)}`, once each, in first-touch order. Keys another shard
    /// owns are included; this index keeps no state for them.
    pub radius: Vec<u64>,
    /// Union operations performed on this index's forests.
    pub union_ops: u64,
}

/// The edge set of `Ĝ_{N(uv)}` (Observations 2–3) for the update `(u, v)`,
/// as canonical edge keys: `(u, v)` itself, `(u, w)` and `(v, w)` for every
/// `w` in `members`, and every edge of `g` between two members. With
/// `members = N(u) ∩ N(v)` this is the update's blast radius: every edge
/// whose ego network `G[N(ab)]` the update can change. It is the one
/// radius every write path uses — the component maintenance and
/// [`FamilySuite::apply_window`](crate::FamilySuite::apply_window). One
/// update's keys are distinct; `members` must be sorted.
pub(crate) fn affected_edges(
    g: &DynamicGraph,
    u: VertexId,
    v: VertexId,
    members: &[VertexId],
) -> Vec<u64> {
    let mut keys = Vec::with_capacity(2 * members.len() + 1);
    keys.push(Edge::new(u, v).key());
    for &w in members {
        keys.push(Edge::new(u, w).key());
        keys.push(Edge::new(v, w).key());
    }
    for (w1, w2) in ego_edges(g, members) {
        keys.push(Edge::new(w1, w2).key());
    }
    keys
}

/// Edges of the subgraph induced by `members` (each unordered pair once),
/// i.e. the ego-network edges used by Algorithms 4–5.
pub(crate) fn ego_edges(g: &DynamicGraph, members: &[VertexId]) -> Vec<(VertexId, VertexId)> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    for &w1 in members {
        buf.clear();
        esd_graph::intersect::intersect_into(g.neighbors(w1), members, &mut buf);
        for &w2 in &buf {
            if w2 > w1 {
                out.push((w1, w2));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use esd_graph::generators;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn bootstrap_matches_static_index() {
        let (g, _) = fig1();
        let maintained = MaintainedIndex::new(&g);
        maintained.check_consistency();
        assert_eq!(maintained.component_sizes(), vec![1, 2, 4, 5]);
        assert_eq!(maintained.list_len(4), Some(15));
    }

    #[test]
    fn example6_insertion_of_cd() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        assert!(index.insert_edge(n["c"], n["d"]));
        index.check_consistency();
        // (d,e)'s ego-network becomes one component {b, c, f, g}.
        let sizes = index
            .forests
            .get(Edge::new(n["d"], n["e"]).key())
            .unwrap()
            .component_sizes();
        assert_eq!(sizes, vec![4]);
    }

    #[test]
    fn example7_deletion_of_uk_creates_h3() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        assert!(index.remove_edge(n["u"], n["k"]));
        index.check_consistency();
        assert!(index.component_sizes().contains(&3), "H(3) must appear");
        // (j,k)'s components are now {h,i} and {v,p,q}.
        let sizes = index
            .forests
            .get(Edge::new(n["j"], n["k"]).key())
            .unwrap()
            .component_sizes();
        assert_eq!(sizes, vec![2, 3]);
        // And H(3) answers τ=3 queries including edges with size-4+ comps.
        let q3 = index.query(100, 3);
        let q4 = index.query(100, 4);
        assert!(
            q3.len() > q4.len(),
            "H(3) ⊋ H(4): got {} vs {}",
            q3.len(),
            q4.len()
        );
    }

    #[test]
    fn insert_then_remove_roundtrips() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let before = index.query(40, 1);
        index.insert_edge(n["c"], n["d"]);
        index.remove_edge(n["c"], n["d"]);
        index.check_consistency();
        assert_eq!(index.query(40, 1), before);
    }

    #[test]
    fn rejects_duplicates_and_missing() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        assert!(!index.insert_edge(n["f"], n["g"]), "already present");
        assert!(!index.remove_edge(n["a"], n["w"]), "absent");
        assert!(!index.insert_edge(3, 3), "self-loop");
        index.check_consistency();
    }

    #[test]
    fn insert_into_empty_graph_region() {
        let g = Graph::from_edges(4, &[]);
        let mut index = MaintainedIndex::new(&g);
        assert!(index.insert_edge(0, 1));
        assert!(index.insert_edge(7, 2), "grows vertex set");
        index.check_consistency();
        assert!(index.query(5, 1).is_empty(), "no triangles yet");
    }

    #[test]
    fn insertion_creating_new_largest_size() {
        // Fig 1 has max component size 5 (for (u,p),(u,q),(p,q)). Adding a
        // new vertex adjacent to the whole K6 ∪ {w} pushes their largest
        // components past every existing C entry — the new list has no
        // successor to seed from.
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let z = 16u32;
        for name in ["j", "k", "u", "v", "p", "q", "w"] {
            index.insert_edge(z, n[name]);
        }
        index.check_consistency();
        let max = *index.component_sizes().last().unwrap();
        assert!(
            max > 5,
            "a larger component must exist, got C = {:?}",
            index.component_sizes()
        );
    }

    #[test]
    fn deletion_creating_multiple_new_sizes() {
        // Deleting (j,k) splits several ego-networks at once; whatever new
        // sizes appear, consistency must hold.
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        index.remove_edge(n["j"], n["k"]);
        index.check_consistency();
        index.remove_edge(n["u"], n["v"]);
        index.check_consistency();
    }

    #[test]
    fn maintain_on_extreme_topologies() {
        // Star: no triangles at all; complete bipartite: triangle-free but
        // with huge common neighbourhoods; both must survive update storms.
        let star = generators::star(20);
        let mut index = MaintainedIndex::new(&star);
        index.insert_edge(1, 2); // creates a triangle with the hub
        index.check_consistency();
        assert_eq!(index.component_sizes(), vec![1]);
        index.remove_edge(0, 3);
        index.check_consistency();

        let mut b = esd_graph::GraphBuilder::new(8);
        for u in 0..4u32 {
            for v in 4..8u32 {
                b.add_edge(u, v);
            }
        }
        let bipartite = b.build();
        let mut index = MaintainedIndex::new(&bipartite);
        assert!(index.component_sizes().is_empty(), "K4,4 is triangle-free");
        index.insert_edge(0, 1); // now many 4-cliques exist
        index.check_consistency();
        assert!(!index.component_sizes().is_empty());
        index.remove_edge(0, 1);
        index.check_consistency();
        assert!(index.component_sizes().is_empty());
    }

    #[test]
    fn random_update_stream_stays_consistent() {
        let mut rng = StdRng::seed_from_u64(0xE5D);
        let g = generators::erdos_renyi(30, 0.25, 5);
        let mut index = MaintainedIndex::new(&g);
        for step in 0..60 {
            let (a, b) = (rng.gen_range(0..30u32), rng.gen_range(0..30u32));
            if a == b {
                continue;
            }
            if rng.gen_bool(0.5) {
                index.insert_edge(a, b);
            } else {
                index.remove_edge(a, b);
            }
            if step % 5 == 0 {
                index.check_consistency();
            }
        }
        index.check_consistency();
    }

    #[test]
    fn apply_to_follows_apply_batch() {
        let mut rng = StdRng::seed_from_u64(0xA991);
        let g = generators::erdos_renyi(20, 0.3, 9);
        let mut index = MaintainedIndex::new(&g);
        let mut graph = DynamicGraph::from_graph(&g);
        for _ in 0..40 {
            // Self-loops, fresh vertices, duplicates and missing removals.
            let batch: Vec<GraphUpdate> = (0..6)
                .map(|_| {
                    let (a, b) = (rng.gen_range(0..26u32), rng.gen_range(0..26u32));
                    if rng.gen_bool(0.5) {
                        GraphUpdate::Insert(a, b)
                    } else {
                        GraphUpdate::Remove(a, b)
                    }
                })
                .collect();
            let stats = index.apply_batch(&batch);
            let changed = batch.iter().filter(|u| u.apply_to(&mut graph)).count();
            assert_eq!(changed, stats.applied);
            assert_eq!(&graph, index.graph());
            assert_eq!(graph.num_vertices(), index.graph().num_vertices());
        }
    }

    #[test]
    fn delete_every_edge_until_empty() {
        let g = generators::complete(7);
        let mut index = MaintainedIndex::new(&g);
        let edges: Vec<Edge> = g.edges().to_vec();
        for (i, e) in edges.iter().enumerate() {
            assert!(index.remove_edge(e.u, e.v));
            if i % 4 == 0 {
                index.check_consistency();
            }
        }
        assert!(index.component_sizes().is_empty());
        assert!(index.query(5, 1).is_empty());
    }

    #[test]
    fn batch_equals_sequential_updates() {
        let g = generators::clique_overlap(40, 35, 5, 11);
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let mut ops = Vec::new();
        for _ in 0..50 {
            let (a, b) = (rng.gen_range(0..40u32), rng.gen_range(0..40u32));
            if a == b {
                continue;
            }
            ops.push(if rng.gen_bool(0.5) {
                GraphUpdate::Insert(a, b)
            } else {
                GraphUpdate::Remove(a, b)
            });
        }
        let mut batched = MaintainedIndex::new(&g);
        let stats = batched.apply_batch(&ops);
        assert_eq!(stats.applied + stats.skipped(), ops.len());
        assert_eq!(stats.rejected, 0, "no self-loops were generated");
        let applied = stats.applied;

        let mut sequential = MaintainedIndex::new(&g);
        let mut seq_applied = 0;
        for &op in &ops {
            let ok = match op {
                GraphUpdate::Insert(a, b) => sequential.insert_edge(a, b),
                GraphUpdate::Remove(a, b) => sequential.remove_edge(a, b),
            };
            seq_applied += usize::from(ok);
        }
        assert_eq!(applied, seq_applied);
        batched.check_consistency();
        assert_eq!(batched.graph().edges(), sequential.graph().edges());
        for tau in [1, 2, 3] {
            assert_eq!(batched.query(50, tau), sequential.query(50, tau), "τ={tau}");
        }
    }

    #[test]
    fn batch_insert_then_remove_same_edge() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let before = index.query(40, 1);
        let stats = index.apply_batch(&[
            GraphUpdate::Insert(n["c"], n["d"]),
            GraphUpdate::Remove(n["c"], n["d"]),
            GraphUpdate::Remove(n["c"], n["d"]), // now missing → noop
        ]);
        assert_eq!((stats.applied, stats.noop, stats.rejected), (2, 1, 0));
        index.check_consistency();
        assert_eq!(index.query(40, 1), before);
    }

    #[test]
    fn vertex_removal_and_readdition() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let w_neighbors: Vec<u32> = g.neighbors(n["w"]).to_vec();
        // Removing w drops the size-5 components of (u,p),(u,q),(p,q).
        assert_eq!(index.remove_vertex(n["w"]), 3);
        index.check_consistency();
        assert_eq!(index.component_sizes(), vec![1, 2, 4], "5 ∉ C without w");
        // Re-adding w restores the original index exactly.
        assert_eq!(index.add_vertex(n["w"], &w_neighbors), 3);
        index.check_consistency();
        assert_eq!(index.component_sizes(), vec![1, 2, 4, 5]);
        assert_eq!(index.list_len(5), Some(3));
        // Out-of-range removal is a no-op.
        assert_eq!(index.remove_vertex(999), 0);
    }

    #[test]
    fn empty_batch_is_noop() {
        let (g, _) = fig1();
        let mut index = MaintainedIndex::new(&g);
        assert_eq!(index.apply_batch(&[]), BatchStats::default());
        index.check_consistency();
    }

    #[test]
    fn shard_of_key_is_stable() {
        // Golden values: per-shard durability directories depend on this
        // mapping never changing across runs, platforms, or toolchains.
        assert_eq!(EdgeOwnership::shard_of_key(0, 4), 3);
        assert_eq!(EdgeOwnership::shard_of_key(1, 4), 1);
        assert_eq!(EdgeOwnership::shard_of_key(2, 4), 2);
        assert_eq!(EdgeOwnership::shard_of_key(6, 4), 0);
        assert_eq!(EdgeOwnership::shard_of_key(2, 2), 0);
        assert_eq!(EdgeOwnership::shard_of_key(3, 2), 1);
        // shards == 1 owns everything without hashing.
        for key in [0u64, 1, u64::MAX] {
            assert_eq!(EdgeOwnership::shard_of_key(key, 1), 0);
            assert!(EdgeOwnership::ALL.owns_key(key));
        }
    }

    #[test]
    fn ownership_partitions_every_key_exactly_once() {
        for shards in [2u32, 3, 4, 7] {
            let slices: Vec<EdgeOwnership> =
                (0..shards).map(|s| EdgeOwnership::of(s, shards)).collect();
            for a in 0..40u32 {
                for b in a + 1..40 {
                    let key = Edge::new(a, b).key();
                    let owners = slices.iter().filter(|o| o.owns_key(key)).count();
                    assert_eq!(owners, 1, "key {key} under {shards} shards");
                }
            }
        }
    }

    /// Merges per-shard results back into a global ranking: the k-way merge
    /// a sharded service performs, in its simplest full-list form.
    fn merge_ranked(mut parts: Vec<Vec<ScoredEdge>>) -> Vec<ScoredEdge> {
        let mut all: Vec<ScoredEdge> = parts.drain(..).flatten().collect();
        all.sort_by(ScoredEdge::ranking_cmp);
        all
    }

    #[test]
    fn sharded_indexes_partition_the_full_index() {
        let g = generators::clique_overlap(40, 35, 5, 11);
        let ops = {
            let mut rng = StdRng::seed_from_u64(0x5AA5);
            let mut ops = Vec::new();
            for _ in 0..50 {
                let (a, b) = (rng.gen_range(0..40u32), rng.gen_range(0..40u32));
                if a == b {
                    continue;
                }
                ops.push(if rng.gen_bool(0.5) {
                    GraphUpdate::Insert(a, b)
                } else {
                    GraphUpdate::Remove(a, b)
                });
            }
            ops
        };
        let mut full = MaintainedIndex::new(&g);
        full.apply_batch(&ops);
        full.check_consistency();

        for shards in [2u32, 4] {
            let mut parts: Vec<MaintainedIndex> = (0..shards)
                .map(|s| MaintainedIndex::new_owned(&g, EdgeOwnership::of(s, shards)))
                .collect();
            for part in &mut parts {
                part.apply_batch(&ops);
                part.check_consistency();
                // Replicas track the full graph regardless of ownership.
                assert_eq!(part.graph().edges(), full.graph().edges());
            }
            for tau in [1u32, 2, 3, 4] {
                let want = full.query(usize::MAX, tau);
                let got = merge_ranked(parts.iter().map(|p| p.query(usize::MAX, tau)).collect());
                assert_eq!(got, want, "shards={shards} τ={tau}");
                // Each shard reports exactly the owned slice of the truth.
                for (s, part) in parts.iter().enumerate() {
                    let own = EdgeOwnership::of(s as u32, shards);
                    let expect: Vec<ScoredEdge> = want
                        .iter()
                        .copied()
                        .filter(|se| own.owns_key(se.edge.key()))
                        .collect();
                    assert_eq!(
                        part.query(usize::MAX, tau),
                        expect,
                        "shard {s}/{shards} τ={tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_reports_dispositions_radius_and_unions() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let outcome = index.apply_window(&[]);
        assert_eq!(outcome.stats, BatchStats::default());
        assert!(outcome.dispositions.is_empty() && outcome.radius.is_empty());
        assert_eq!(outcome.union_ops, 0);
        let outcome = index.apply_window(&[
            GraphUpdate::Insert(n["f"], n["g"]), // present → noop
            GraphUpdate::Insert(9, 9),           // self-loop → rejected
        ]);
        assert_eq!(
            outcome.dispositions,
            [UpdateDisposition::Noop, UpdateDisposition::Rejected]
        );
        assert!(
            outcome.radius.is_empty(),
            "an all-skipped window touches nothing"
        );
        assert_eq!(outcome.union_ops, 0);
        // Example 6: inserting (c, d) closes 4-cliques, so it unions.
        let outcome = index.apply_window(&[GraphUpdate::Insert(n["c"], n["d"])]);
        assert_eq!(outcome.dispositions, [UpdateDisposition::Applied]);
        assert_eq!(outcome.radius[0], Edge::new(n["c"], n["d"]).key());
        assert!(outcome.union_ops > 0);
        index.check_consistency();
    }

    #[test]
    fn batch_remove_then_insert_round_trips() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let before = index.query(40, 1);
        let outcome = index.apply_window(&[
            GraphUpdate::Remove(n["u"], n["k"]),
            GraphUpdate::Insert(n["u"], n["k"]),
        ]);
        assert_eq!(outcome.stats.applied, 2);
        index.check_consistency();
        assert_eq!(index.query(40, 1), before, "net no-op batch");
    }

    #[test]
    fn window_grows_the_vertex_set_mid_batch() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let mut index = MaintainedIndex::new(&g);
        let outcome = index.apply_window(&[
            GraphUpdate::Insert(7, 0),
            GraphUpdate::Insert(7, 1),
            GraphUpdate::Remove(9, 0), // out of range even after growth → noop
        ]);
        assert_eq!(
            outcome.dispositions,
            [
                UpdateDisposition::Applied,
                UpdateDisposition::Applied,
                UpdateDisposition::Noop
            ]
        );
        assert_eq!(index.graph().num_vertices(), 8);
        index.check_consistency();
        // The second insert closes the triangle {0, 1, 7}.
        assert_eq!(index.component_sizes(), vec![1]);
    }

    #[test]
    fn a_fresh_size_shares_its_successors_pages() {
        // 200 disjoint K6s: every edge's ego-network is one K4, so
        // C = {4} and H(4) spans several run pages.
        let edges: Vec<(u32, u32)> = (0..200u32)
            .flat_map(|k| {
                let base = 6 * k;
                (0..6).flat_map(move |i| (i + 1..6).map(move |j| (base + i, base + j)))
            })
            .collect();
        let g = Graph::from_edges(1200, &edges);
        let mut index = MaintainedIndex::new(&g);
        let before = index.clone();
        // Deleting one clique edge leaves its ends' other edges with a
        // triangle as ego-network: size 3 is new, and H(3) is seeded from
        // H(4) before the clique's edges move.
        assert!(index.remove_edge(600, 601));
        index.check_consistency();
        assert_eq!(index.component_sizes(), vec![3, 4]);
        let pages = index.lists.runs[&3].pages.len();
        assert!(pages >= 10, "H(3) spans {pages} pages");
        let copied = index.list_pages_unshared_with(&before);
        assert!(
            copied <= 4,
            "{copied} of {pages} pages copied: the seed must share H(4)'s pages"
        );
    }

    #[test]
    fn build_clique_from_scratch_by_insertions() {
        let g = Graph::from_edges(6, &[]);
        let mut index = MaintainedIndex::new(&g);
        for u in 0..6u32 {
            for v in u + 1..6 {
                index.insert_edge(u, v);
            }
        }
        index.check_consistency();
        // Every K6 edge's ego-network is a K4: one size-4 component.
        assert_eq!(index.component_sizes(), vec![4]);
        assert_eq!(index.list_len(4), Some(15));
    }
}
