//! Structural invariant auditing for the ESDIndex family.
//!
//! Every core structure exposes `validate()` returning a list of typed,
//! located violations instead of panicking — an empty list means every
//! invariant holds. Deeper `validate_against*` variants recompute ground
//! truth from the graph and report semantic divergence (wrong scores,
//! missing entries, a broken Theorem 3 bound), which pure structural checks
//! cannot see.
//!
//! | structure | validator | invariants |
//! |---|---|---|
//! | [`EdgeComponents`] | [`EdgeComponents::validate`] | monotone offsets, ascending positive size multisets |
//! | [`EsdIndex`] | [`EsdIndex::validate`], [`EsdIndex::validate_against`] | ascending `C`, list offsets, canonical positively-scored entries in strict rank order, no edge twice in a list, list nesting `H(c') ⊆ H(c)`, score monotonicity; vs-graph: exact contents + Theorem 3 |
//! | [`MaintainedIndex`] | [`MaintainedIndex::validate`], [`MaintainedIndex::validate_deep`] | graph soundness, forest well-formedness and coverage, the `H(c)` lists against the forests' sizes ([`SizeRuns::validate`]); deep: forests vs true ego-network partitions |
//! | [`CowRun`] | [`CowRun::validate`] | non-empty pages, strict rank order within and across pages, `len` |
//! | [`SizeRuns`] | [`SizeRuns::validate`] | refcounts equal the size multiset, run sizes equal the refcount keys, every run sound and holding exactly the keys the sizes give |
//! | [`FamilySuite`] | [`FamilySuite::validate`] | truss runs against the core sizes ([`SizeRuns::validate`]); the other runs sound and equal to the ranking a scan of the profiles derives |
//!
//! The `strict-invariants` cargo feature (always on in this crate's unit
//! tests) re-runs these validators at construction and maintenance
//! boundaries, panicking via [`assert_clean`] with the full report.

use crate::cow::{CowRun, RankKey, SizeRuns};
use crate::family::truss_item;
use crate::index::{EdgeComponents, EsdIndex};
use crate::maintain::{ego_edges, EdgeDsu, MaintainedIndex};
use crate::score::score_from_sizes;
use crate::FamilySuite;
use esd_graph::audit::GraphViolation;
use esd_graph::{Edge, Graph, VertexId};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

pub use esd_graph::audit::assert_clean;

// ---------------------------------------------------------------------------
// EdgeComponents
// ---------------------------------------------------------------------------

/// One violated invariant of an [`EdgeComponents`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ComponentsViolation {
    /// `offsets` does not start at 0.
    OffsetsStart {
        /// The first offset found.
        actual: usize,
    },
    /// `offsets[edge] > offsets[edge + 1]`.
    OffsetsNotMonotone {
        /// The edge id whose range is reversed.
        edge: usize,
    },
    /// The terminal offset does not equal the size array length.
    OffsetsTerminal {
        /// Expected terminal offset.
        expected: usize,
        /// Terminal offset found.
        actual: usize,
    },
    /// An edge's size multiset is not ascending.
    SizesNotSorted {
        /// The edge id.
        edge: usize,
        /// Position within the edge's slice where order breaks.
        position: usize,
    },
    /// A component size of 0 (components have at least one vertex).
    ZeroSize {
        /// The edge id.
        edge: usize,
        /// Position within the edge's slice.
        position: usize,
    },
}

impl std::fmt::Display for ComponentsViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OffsetsStart { actual } => write!(f, "offsets must start at 0, found {actual}"),
            Self::OffsetsNotMonotone { edge } => write!(f, "offsets decrease at edge {edge}"),
            Self::OffsetsTerminal { expected, actual } => {
                write!(f, "terminal offset {actual}, size array holds {expected}")
            }
            Self::SizesNotSorted { edge, position } => {
                write!(f, "edge {edge} sizes not ascending at position {position}")
            }
            Self::ZeroSize { edge, position } => {
                write!(
                    f,
                    "edge {edge} has a zero component size at position {position}"
                )
            }
        }
    }
}

impl EdgeComponents {
    /// Audits the flat component-size table; returns all violations found
    /// (empty = sound). `O(total sizes)`.
    pub fn validate(&self) -> Vec<ComponentsViolation> {
        let mut out = Vec::new();
        if self.offsets.first() != Some(&0) && !self.offsets.is_empty() {
            out.push(ComponentsViolation::OffsetsStart {
                actual: self.offsets.first().copied().unwrap_or(usize::MAX),
            });
        }
        for (e, w) in self.offsets.windows(2).enumerate() {
            if w[0] > w[1] {
                out.push(ComponentsViolation::OffsetsNotMonotone { edge: e });
            }
        }
        if !self.offsets.is_empty() && self.offsets.last() != Some(&self.sizes.len()) {
            out.push(ComponentsViolation::OffsetsTerminal {
                expected: self.sizes.len(),
                actual: self.offsets.last().copied().unwrap_or(usize::MAX),
            });
        }
        if !out.is_empty() {
            // Slicing below would panic on corrupt offsets.
            return out;
        }
        for e in 0..self.num_edges() {
            let sizes = self.sizes_of(e);
            for (i, &s) in sizes.iter().enumerate() {
                if s == 0 {
                    out.push(ComponentsViolation::ZeroSize {
                        edge: e,
                        position: i,
                    });
                }
                if i > 0 && sizes[i - 1] > s {
                    out.push(ComponentsViolation::SizesNotSorted {
                        edge: e,
                        position: i,
                    });
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Shared entry-diff machinery
// ---------------------------------------------------------------------------

type EntryMap = HashMap<Edge, u32>;

/// Differences between an expected and an actual `(edge -> score)` map,
/// sorted for deterministic reports.
struct EntryDiff {
    /// `(edge, expected_score)` present only in the expected map.
    missing: Vec<(Edge, u32)>,
    /// `(edge, actual_score)` present only in the actual map.
    unexpected: Vec<(Edge, u32)>,
    /// `(edge, expected_score, actual_score)` present in both, scores differ.
    wrong: Vec<(Edge, u32, u32)>,
}

fn diff_entries(expected: &EntryMap, actual: &EntryMap) -> EntryDiff {
    let mut diff = EntryDiff {
        missing: Vec::new(),
        unexpected: Vec::new(),
        wrong: Vec::new(),
    };
    for (&e, &s) in expected {
        match actual.get(&e) {
            None => diff.missing.push((e, s)),
            Some(&a) if a != s => diff.wrong.push((e, s, a)),
            Some(_) => {}
        }
    }
    for (&e, &s) in actual {
        if !expected.contains_key(&e) {
            diff.unexpected.push((e, s));
        }
    }
    diff.missing.sort_unstable();
    diff.unexpected.sort_unstable();
    diff.wrong.sort_unstable();
    diff
}

// ---------------------------------------------------------------------------
// EsdIndex
// ---------------------------------------------------------------------------

/// One violated invariant of an [`EsdIndex`], located by list threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexViolation {
    /// `C` is not strictly ascending at this position.
    SizesNotAscending {
        /// Index into `C` (compared with its predecessor).
        position: usize,
    },
    /// `C` contains 0 (no component has zero vertices).
    ZeroThreshold {
        /// Index into `C`.
        position: usize,
    },
    /// The list offsets do not bound `|C|` lists over the entry array
    /// (wrong count, not starting at 0, decreasing, or not ending at the
    /// entry count).
    ListArityMismatch {
        /// `|C|`.
        sizes: usize,
        /// Number of lists the offsets bound.
        lists: usize,
    },
    /// An entry does not rank strictly after its predecessor in the list.
    OutOfOrder {
        /// The list's threshold `c`.
        threshold: u32,
        /// The entry's position within the list.
        position: usize,
    },
    /// An entry's edge is not in canonical `u < v` orientation.
    NonCanonicalEdge {
        /// The list's threshold `c`.
        threshold: u32,
        /// The offending edge, as stored.
        edge: Edge,
    },
    /// An edge appears more than once in one list.
    DuplicateEdge {
        /// The list's threshold `c`.
        threshold: u32,
        /// The repeated edge.
        edge: Edge,
    },
    /// A stored entry carries score 0 (never indexed per the paper).
    ZeroScore {
        /// The list's threshold `c`.
        threshold: u32,
        /// The offending edge.
        edge: Edge,
    },
    /// `H(c')` holds an edge absent from the next smaller list `H(c)`.
    NotNested {
        /// The larger threshold `c'`.
        threshold: u32,
        /// The edge violating `H(c') ⊆ H(c)`.
        edge: Edge,
    },
    /// An edge's score increases with the threshold.
    ScoreNotMonotone {
        /// The larger threshold `c'`.
        threshold: u32,
        /// The edge.
        edge: Edge,
        /// Score at `c'`.
        score: u32,
        /// Smaller score found at the next smaller threshold.
        lower_score: u32,
    },
    /// `C` differs from the recomputed distinct-size set.
    DivergedSizes {
        /// Ground-truth `C`.
        expected: Vec<u32>,
        /// Stored `C`.
        actual: Vec<u32>,
    },
    /// A ground-truth entry is absent from its list.
    MissingEntry {
        /// The list's threshold.
        threshold: u32,
        /// The absent edge.
        edge: Edge,
        /// Its ground-truth score.
        score: u32,
    },
    /// A stored entry has no ground-truth counterpart.
    UnexpectedEntry {
        /// The list's threshold.
        threshold: u32,
        /// The spurious edge.
        edge: Edge,
        /// Its stored score.
        score: u32,
    },
    /// An entry's stored score differs from ground truth.
    WrongScore {
        /// The list's threshold.
        threshold: u32,
        /// The edge.
        edge: Edge,
        /// Ground-truth score.
        expected: u32,
        /// Stored score.
        actual: u32,
    },
    /// Total entries exceed the Theorem 3 space bound `Σ min(d_u, d_v)`.
    SpaceBoundExceeded {
        /// Total `(edge, list)` entries stored.
        entries: usize,
        /// The Theorem 3 bound.
        bound: u64,
    },
}

impl std::fmt::Display for IndexViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SizesNotAscending { position } => {
                write!(f, "C not strictly ascending at position {position}")
            }
            Self::ZeroThreshold { position } => write!(f, "C contains 0 at position {position}"),
            Self::ListArityMismatch { sizes, lists } => {
                write!(f, "|C| = {sizes} but {lists} lists stored")
            }
            Self::OutOfOrder { threshold, position } => {
                write!(f, "H({threshold}): rank order breaks at position {position}")
            }
            Self::NonCanonicalEdge { threshold, edge } => {
                write!(f, "H({threshold}): edge {edge} is not in u < v orientation")
            }
            Self::DuplicateEdge { threshold, edge } => {
                write!(f, "H({threshold}): {edge} is listed more than once")
            }
            Self::ZeroScore { threshold, edge } => {
                write!(f, "H({threshold}): entry {edge} has score 0")
            }
            Self::NotNested { threshold, edge } => {
                write!(f, "H({threshold}): {edge} missing from the next smaller list")
            }
            Self::ScoreNotMonotone { threshold, edge, score, lower_score } => write!(
                f,
                "H({threshold}): {edge} scores {score}, but only {lower_score} at the smaller threshold"
            ),
            Self::DivergedSizes { expected, actual } => {
                write!(f, "C diverged: expected {expected:?}, stored {actual:?}")
            }
            Self::MissingEntry { threshold, edge, score } => {
                write!(f, "H({threshold}): missing {edge} (score {score})")
            }
            Self::UnexpectedEntry { threshold, edge, score } => {
                write!(f, "H({threshold}): spurious {edge} (score {score})")
            }
            Self::WrongScore { threshold, edge, expected, actual } => {
                write!(f, "H({threshold}): {edge} scores {actual}, ground truth {expected}")
            }
            Self::SpaceBoundExceeded { entries, bound } => {
                write!(f, "{entries} entries exceed the Theorem 3 bound {bound}")
            }
        }
    }
}

impl EsdIndex {
    /// Audits the flat layout: ascending `C`, list offsets that bound `|C|`
    /// lists, canonical positively-scored entries in strict rank order, no
    /// edge twice in a list, and list nesting with score monotonicity
    /// across thresholds. Returns all violations found (empty = sound).
    ///
    /// Nesting is checked by a merge walk over edge-sorted copies of
    /// adjacent lists, so an audit costs one sort per list.
    pub fn validate(&self) -> Vec<IndexViolation> {
        let mut out = Vec::new();
        for (position, &c) in self.sizes.iter().enumerate() {
            if c == 0 {
                out.push(IndexViolation::ZeroThreshold { position });
            }
            if position > 0 && self.sizes[position - 1] >= c {
                out.push(IndexViolation::SizesNotAscending { position });
            }
        }
        let shape_ok = self.list_offsets.len() == self.sizes.len() + 1
            && self.list_offsets.first() == Some(&0)
            && self.list_offsets.windows(2).all(|w| w[0] <= w[1])
            && self.list_offsets.last() == Some(&self.entries.len());
        if !shape_ok {
            out.push(IndexViolation::ListArityMismatch {
                sizes: self.sizes.len(),
                lists: self.list_offsets.len().saturating_sub(1),
            });
            return out;
        }
        // Nesting violations go after every per-list one.
        let mut nesting = Vec::new();
        let mut lower: Vec<(Edge, u32)> = Vec::new();
        for (i, &c) in self.sizes.iter().enumerate() {
            let list = self.list_at(i);
            let mut by_edge = Vec::with_capacity(list.len());
            for (position, s) in list.iter().enumerate() {
                if s.edge.u >= s.edge.v {
                    out.push(IndexViolation::NonCanonicalEdge {
                        threshold: c,
                        edge: s.edge,
                    });
                    continue;
                }
                if s.score == 0 {
                    out.push(IndexViolation::ZeroScore {
                        threshold: c,
                        edge: s.edge,
                    });
                }
                if position > 0 && list[position - 1].ranking_cmp(s) != Ordering::Less {
                    out.push(IndexViolation::OutOfOrder {
                        threshold: c,
                        position,
                    });
                }
                by_edge.push((s.edge, s.score));
            }
            // Edge-sorted, each edge kept once with its smallest score.
            by_edge.sort_unstable();
            by_edge.dedup_by(|later, kept| {
                let dup = later.0 == kept.0;
                if dup {
                    out.push(IndexViolation::DuplicateEdge {
                        threshold: c,
                        edge: kept.0,
                    });
                }
                dup
            });
            if i > 0 {
                // `H(c) ⊆ H(c_prev)`, scores never rising with the threshold.
                let mut j = 0;
                for &(edge, score) in &by_edge {
                    while lower.get(j).is_some_and(|&(e, _)| e < edge) {
                        j += 1;
                    }
                    match lower.get(j) {
                        Some(&(e, lower_score)) if e == edge => {
                            if lower_score < score {
                                nesting.push(IndexViolation::ScoreNotMonotone {
                                    threshold: c,
                                    edge,
                                    score,
                                    lower_score,
                                });
                            }
                        }
                        _ => nesting.push(IndexViolation::NotNested { threshold: c, edge }),
                    }
                }
            }
            lower = by_edge;
        }
        out.extend(nesting);
        out
    }

    /// [`EsdIndex::validate`] plus a full semantic audit against ground
    /// truth recomputed from `g` by per-edge BFS: exact `C`, exact list
    /// contents and scores, and the Theorem 3 space bound.
    pub fn validate_against(&self, g: &Graph) -> Vec<IndexViolation> {
        let mut out = self.validate();
        let comps = crate::index::build::components_by_bfs(g);
        let expected_sizes = crate::index::build::distinct_sizes(&comps);
        if expected_sizes != self.sizes {
            out.push(IndexViolation::DivergedSizes {
                expected: expected_sizes,
                actual: self.sizes.clone(),
            });
            return out;
        }
        for (i, &c) in self.sizes.iter().enumerate() {
            let mut expected = EntryMap::new();
            for (eid, e) in g.edges().iter().enumerate() {
                let score = comps.score_of(eid, c);
                if score > 0 {
                    expected.insert(*e, score);
                }
            }
            let list = self.list_at(i);
            let actual: EntryMap = list.iter().map(|s| (s.edge, s.score)).collect();
            let diff = diff_entries(&expected, &actual);
            for (edge, score) in diff.missing {
                out.push(IndexViolation::MissingEntry {
                    threshold: c,
                    edge,
                    score,
                });
            }
            for (edge, score) in diff.unexpected {
                out.push(IndexViolation::UnexpectedEntry {
                    threshold: c,
                    edge,
                    score,
                });
            }
            for (edge, expected, actual) in diff.wrong {
                out.push(IndexViolation::WrongScore {
                    threshold: c,
                    edge,
                    expected,
                    actual,
                });
            }
        }
        let bound = esd_graph::metrics::sum_min_degree(g);
        if self.total_entries() as u64 > bound {
            out.push(IndexViolation::SpaceBoundExceeded {
                entries: self.total_entries(),
                bound,
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// MaintainedIndex
// ---------------------------------------------------------------------------

/// One violated invariant of a [`MaintainedIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MaintViolation {
    /// The underlying dynamic graph fails its own audit.
    Graph(GraphViolation),
    /// A forest is keyed by an edge absent from the graph.
    ForestForMissingEdge {
        /// The stray key.
        edge: Edge,
    },
    /// A forest with no members is stored (empty forests must be removed).
    EmptyForest {
        /// The edge owning the empty forest.
        edge: Edge,
    },
    /// An edge with a non-empty common neighbourhood has no forest.
    /// Only owned edges (per [`EdgeOwnership`](crate::maintain::EdgeOwnership))
    /// are required to be covered.
    MissingForest {
        /// The uncovered edge.
        edge: Edge,
    },
    /// A forest exists for an edge this index does not own.
    ForeignForest {
        /// The edge whose forest belongs to another ownership slice.
        edge: Edge,
    },
    /// A forest's member set differs from the edge's common neighbourhood.
    ForestMemberMismatch {
        /// The edge whose forest drifted.
        edge: Edge,
    },
    /// A parent pointer references an untracked vertex.
    ForestParentUntracked {
        /// The edge owning the forest.
        edge: Edge,
        /// The vertex with the stray pointer.
        vertex: VertexId,
        /// The untracked parent.
        parent: VertexId,
    },
    /// A parent chain does not terminate.
    ForestCycle {
        /// The edge owning the forest.
        edge: Edge,
        /// The vertex whose chain never reaches a root.
        vertex: VertexId,
    },
    /// A root's stored component size disagrees with the recomputed count.
    ForestRootSizeMismatch {
        /// The edge owning the forest.
        edge: Edge,
        /// The root vertex.
        root: VertexId,
        /// Stored size.
        stored: u32,
        /// Recomputed member count.
        actual: u32,
    },
    /// A forest's partition differs from the true ego-network connectivity
    /// (found only by [`MaintainedIndex::validate_deep`]).
    ForestPartitionDiverged {
        /// The edge whose forest merged or split the wrong components.
        edge: Edge,
    },
    /// The `H(c)` lists disagree with the forests' size multisets.
    Lists(SizeRunViolation),
}

impl std::fmt::Display for MaintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Graph(v) => write!(f, "graph: {v}"),
            Self::ForestForMissingEdge { edge } => {
                write!(f, "forest stored for non-edge {edge}")
            }
            Self::EmptyForest { edge } => write!(f, "empty forest stored for {edge}"),
            Self::MissingForest { edge } => {
                write!(f, "{edge} has common neighbours but no forest")
            }
            Self::ForeignForest { edge } => {
                write!(f, "{edge} has a forest but is owned by another shard")
            }
            Self::ForestMemberMismatch { edge } => {
                write!(f, "forest of {edge} does not cover N(uv)")
            }
            Self::ForestParentUntracked {
                edge,
                vertex,
                parent,
            } => {
                write!(f, "forest of {edge}: {vertex} points at untracked {parent}")
            }
            Self::ForestCycle { edge, vertex } => {
                write!(f, "forest of {edge}: {vertex} sits on a parent cycle")
            }
            Self::ForestRootSizeMismatch {
                edge,
                root,
                stored,
                actual,
            } => write!(
                f,
                "forest of {edge}: root {root} stores size {stored}, chains give {actual}"
            ),
            Self::ForestPartitionDiverged { edge } => {
                write!(
                    f,
                    "forest of {edge} diverges from the true ego-network partition"
                )
            }
            Self::Lists(v) => write!(f, "H(c) lists: {v}"),
        }
    }
}

/// Read-only root lookup in an [`EdgeDsu`]; `None` when the chain leaves the
/// tracked set or cycles.
fn forest_root(forest: &EdgeDsu, w: VertexId) -> Option<VertexId> {
    let mut cur = w;
    for _ in 0..=forest.nodes.len() {
        let &(p, _) = forest.nodes.get(&cur)?;
        if p == cur {
            return Some(cur);
        }
        cur = p;
    }
    None
}

impl MaintainedIndex {
    /// Audits the internal consistency of the maintained state: graph
    /// soundness, forest well-formedness and coverage, refcounts, and exact
    /// agreement between the lists and the forest-derived scores. Returns
    /// all violations found (empty = sound).
    ///
    /// This does **not** verify that each forest's partition matches the
    /// true ego-network connectivity — that requires recomputation; see
    /// [`MaintainedIndex::validate_deep`].
    pub fn validate(&self) -> Vec<MaintViolation> {
        let mut out: Vec<MaintViolation> = self
            .g
            .validate()
            .into_iter()
            .map(MaintViolation::Graph)
            .collect();
        let n = self.g.num_vertices();

        // Forest well-formedness, collecting each forest's size multiset.
        let mut edge_sizes: Vec<(Edge, Vec<u32>)> = Vec::with_capacity(self.forests.len());
        let mut forests: Vec<(u64, &EdgeDsu)> = self.forests.iter().collect();
        forests.sort_unstable_by_key(|&(key, _)| key);
        for (key, forest) in forests {
            let e = Edge::from_key(key);
            if forest.nodes.is_empty() {
                out.push(MaintViolation::EmptyForest { edge: e });
                continue;
            }
            let in_graph = (e.u as usize) < n && (e.v as usize) < n && self.g.has_edge(e.u, e.v);
            if !in_graph {
                out.push(MaintViolation::ForestForMissingEdge { edge: e });
                continue;
            }
            let members = self.g.common_neighbors(e.u, e.v);
            let mut tracked: Vec<VertexId> = forest.nodes.keys().copied().collect();
            tracked.sort_unstable();
            if tracked != members {
                out.push(MaintViolation::ForestMemberMismatch { edge: e });
            }
            let mut chains_ok = true;
            let mut vertices: Vec<VertexId> = forest.nodes.keys().copied().collect();
            vertices.sort_unstable();
            for &w in &vertices {
                let (p, _) = forest.nodes[&w];
                if !forest.nodes.contains_key(&p) {
                    out.push(MaintViolation::ForestParentUntracked {
                        edge: e,
                        vertex: w,
                        parent: p,
                    });
                    chains_ok = false;
                }
            }
            if chains_ok {
                let mut counts: HashMap<VertexId, u32> = HashMap::new();
                for &w in &vertices {
                    match forest_root(forest, w) {
                        Some(r) => *counts.entry(r).or_insert(0) += 1,
                        None => {
                            out.push(MaintViolation::ForestCycle { edge: e, vertex: w });
                            chains_ok = false;
                        }
                    }
                }
                if chains_ok {
                    for &w in &vertices {
                        let (p, stored) = forest.nodes[&w];
                        if p == w {
                            let actual = counts.get(&w).copied().unwrap_or(0);
                            if stored != actual {
                                out.push(MaintViolation::ForestRootSizeMismatch {
                                    edge: e,
                                    root: w,
                                    stored,
                                    actual,
                                });
                            }
                        }
                    }
                }
            }
            edge_sizes.push((e, forest.component_sizes()));
        }

        // Coverage: every *owned* edge with common neighbours owns a
        // forest, and no forest exists for a non-owned edge.
        for e in self.g.edges() {
            if self.ownership.owns_key(e.key())
                && !self.forests.contains_key(e.key())
                && !self.g.common_neighbors(e.u, e.v).is_empty()
            {
                out.push(MaintViolation::MissingForest { edge: e });
            }
        }
        let mut foreign: Vec<u64> = self
            .forests
            .keys()
            .filter(|&k| !self.ownership.owns_key(k))
            .collect();
        foreign.sort_unstable();
        for key in foreign {
            out.push(MaintViolation::ForeignForest {
                edge: Edge::from_key(key),
            });
        }

        // The lists and refcounts against the forests' size multisets.
        let items = edge_sizes.iter().map(|(e, sizes)| (*e, sizes.as_slice()));
        out.extend(
            self.lists
                .validate(items)
                .into_iter()
                .map(MaintViolation::Lists),
        );
        out
    }

    /// [`MaintainedIndex::validate`] plus a ground-truth connectivity check:
    /// every forest's partition is compared against a freshly computed
    /// partition of its ego-network. Together the two passes are equivalent
    /// in strength to a full from-scratch rebuild comparison.
    pub fn validate_deep(&self) -> Vec<MaintViolation> {
        let mut out = self.validate();
        let n = self.g.num_vertices();
        let mut forests: Vec<(u64, &EdgeDsu)> = self.forests.iter().collect();
        forests.sort_unstable_by_key(|&(key, _)| key);
        for (key, forest) in forests {
            let e = Edge::from_key(key);
            let in_graph = (e.u as usize) < n && (e.v as usize) < n && self.g.has_edge(e.u, e.v);
            if !in_graph {
                continue; // already reported by validate()
            }
            let members = self.g.common_neighbors(e.u, e.v);
            let mut tracked: Vec<VertexId> = forest.nodes.keys().copied().collect();
            tracked.sort_unstable();
            if tracked != members {
                continue; // already reported by validate()
            }
            let pos: HashMap<VertexId, usize> =
                members.iter().enumerate().map(|(i, &w)| (w, i)).collect();
            let mut truth = esd_dsu::SlotDsu::new(members.len());
            for (w1, w2) in ego_edges(&self.g, &members) {
                truth.union(pos[&w1], pos[&w2]);
            }
            // The two partitions must induce the same equivalence: roots map
            // 1:1 between the forest and the recomputed truth.
            let mut forest_to_truth: HashMap<VertexId, usize> = HashMap::new();
            let mut truth_to_forest: HashMap<usize, VertexId> = HashMap::new();
            let mut diverged = false;
            for &w in &members {
                let Some(fr) = forest_root(forest, w) else {
                    diverged = false; // cycle already reported by validate()
                    break;
                };
                let tr = truth.find(pos[&w]);
                if *forest_to_truth.entry(fr).or_insert(tr) != tr
                    || *truth_to_forest.entry(tr).or_insert(fr) != fr
                {
                    diverged = true;
                    break;
                }
            }
            if diverged {
                out.push(MaintViolation::ForestPartitionDiverged { edge: e });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// CowRun, SizeRuns and FamilySuite
// ---------------------------------------------------------------------------

/// One violated invariant of a [`CowRun`], located by page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunViolation {
    /// A page holds no key.
    EmptyPage {
        /// The page's position in the run.
        page: usize,
    },
    /// A key does not rank strictly after its predecessor (the previous
    /// key of its page, or the last key of the previous page).
    OutOfOrder {
        /// The page holding the key.
        page: usize,
        /// The key's offset within its page.
        offset: usize,
    },
    /// `len` disagrees with the keys the pages hold.
    LenMismatch {
        /// Cached length.
        stored: usize,
        /// Keys held by the pages.
        actual: usize,
    },
}

impl std::fmt::Display for RunViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyPage { page } => write!(f, "page {page} is empty"),
            Self::OutOfOrder { page, offset } => {
                write!(f, "rank order breaks at page {page}, offset {offset}")
            }
            Self::LenMismatch { stored, actual } => {
                write!(f, "len is {stored} but the pages hold {actual} keys")
            }
        }
    }
}

impl CowRun {
    /// Audits the run's layout: every page non-empty, keys strictly
    /// rank-ascending within and across pages, and `len` equal to the keys
    /// held. Returns all violations found (empty = sound).
    pub fn validate(&self) -> Vec<RunViolation> {
        let mut out = Vec::new();
        let mut prev: Option<RankKey> = None;
        for (page, keys) in self.pages.iter().enumerate() {
            if keys.is_empty() {
                out.push(RunViolation::EmptyPage { page });
            }
            for (offset, &key) in keys.iter().enumerate() {
                if prev.is_some_and(|p| p >= key) {
                    out.push(RunViolation::OutOfOrder { page, offset });
                }
                prev = Some(key);
            }
        }
        let actual = self.pages.iter().map(|p| p.len()).sum();
        if actual != self.len {
            out.push(RunViolation::LenMismatch {
                stored: self.len,
                actual,
            });
        }
        out
    }
}

/// One violated invariant of a [`SizeRuns`], located by size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SizeRunViolation {
    /// A run's layout is unsound.
    Run {
        /// The run's size `c`.
        size: u32,
        /// What is wrong with it.
        inner: RunViolation,
    },
    /// A refcount disagrees with the number of edges holding the size.
    RefcountMismatch {
        /// The size.
        size: u32,
        /// Stored refcount (0 when the key is missing).
        stored: usize,
        /// Edges holding the size.
        actual: usize,
    },
    /// A run exists for a size with no refcount entry.
    RunWithoutRefcount {
        /// The orphaned run's size.
        size: u32,
    },
    /// A refcounted size has no run.
    RefcountWithoutRun {
        /// The size missing its run.
        size: u32,
    },
    /// An expected key is absent from its run.
    MissingKey {
        /// The run's size.
        size: u32,
        /// The absent edge.
        edge: Edge,
        /// Its expected score.
        score: u32,
    },
    /// A run holds a key no expected item gives it, or an edge twice.
    UnexpectedKey {
        /// The run's size.
        size: u32,
        /// The spurious edge.
        edge: Edge,
        /// Its stored score.
        score: u32,
    },
    /// A key's stored score differs from the score its sizes give.
    WrongScore {
        /// The run's size.
        size: u32,
        /// The edge.
        edge: Edge,
        /// Score its sizes give.
        expected: u32,
        /// Stored score.
        actual: u32,
    },
}

impl std::fmt::Display for SizeRunViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Run { size, inner } => write!(f, "run {size}: {inner}"),
            Self::RefcountMismatch {
                size,
                stored,
                actual,
            } => write!(f, "refcount[{size}] is {stored}, the sizes give {actual}"),
            Self::RunWithoutRefcount { size } => write!(f, "run {size} has no refcount entry"),
            Self::RefcountWithoutRun { size } => write!(f, "refcounted size {size} has no run"),
            Self::MissingKey { size, edge, score } => {
                write!(f, "run {size}: missing {edge} (score {score})")
            }
            Self::UnexpectedKey { size, edge, score } => {
                write!(f, "run {size}: spurious {edge} (score {score})")
            }
            Self::WrongScore {
                size,
                edge,
                expected,
                actual,
            } => write!(
                f,
                "run {size}: {edge} scores {actual}, its sizes give {expected}"
            ),
        }
    }
}

impl SizeRuns {
    /// Audits the runs against `expected`, every `(edge, sorted sizes)`
    /// item they should hold: the refcounts equal the number of items
    /// holding each size, the run sizes equal the refcount keys, and each
    /// run is sound and holds exactly the keys the items give it. Returns
    /// all violations found (empty = sound).
    pub fn validate<'a>(
        &self,
        expected: impl Iterator<Item = (Edge, &'a [u32])> + Clone,
    ) -> Vec<SizeRunViolation> {
        let mut out = Vec::new();
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for (_, sizes) in expected.clone() {
            for run in sizes.chunk_by(|a, b| a == b) {
                *counts.entry(run[0]).or_insert(0) += 1;
            }
        }
        let sizes: std::collections::BTreeSet<u32> = counts
            .keys()
            .chain(self.refcounts.keys())
            .copied()
            .collect();
        for size in sizes {
            let stored = self.refcounts.get(&size).copied().unwrap_or(0);
            let actual = counts.get(&size).copied().unwrap_or(0);
            if stored != actual {
                out.push(SizeRunViolation::RefcountMismatch {
                    size,
                    stored,
                    actual,
                });
            }
        }
        for &size in self.runs.keys() {
            if !self.refcounts.contains_key(&size) {
                out.push(SizeRunViolation::RunWithoutRefcount { size });
            }
        }
        for &size in self.refcounts.keys() {
            if !self.runs.contains_key(&size) {
                out.push(SizeRunViolation::RefcountWithoutRun { size });
            }
        }
        for (&size, run) in &self.runs {
            out.extend(
                run.validate()
                    .into_iter()
                    .map(|inner| SizeRunViolation::Run { size, inner }),
            );
            let want: EntryMap = expected
                .clone()
                .map(|(edge, sizes)| (edge, score_from_sizes(sizes, size)))
                .filter(|&(_, score)| score > 0)
                .collect();
            let mut got = EntryMap::with_capacity(run.len());
            for key in run.iter() {
                if got.insert(key.edge, key.score).is_some() {
                    out.push(SizeRunViolation::UnexpectedKey {
                        size,
                        edge: key.edge,
                        score: key.score,
                    });
                }
            }
            let diff = diff_entries(&want, &got);
            for (edge, score) in diff.missing {
                out.push(SizeRunViolation::MissingKey { size, edge, score });
            }
            for (edge, score) in diff.unexpected {
                out.push(SizeRunViolation::UnexpectedKey { size, edge, score });
            }
            for (edge, expected, actual) in diff.wrong {
                out.push(SizeRunViolation::WrongScore {
                    size,
                    edge,
                    expected,
                    actual,
                });
            }
        }
        out
    }
}

/// Which single ranked run of a [`FamilySuite`] a violation is located in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyRun {
    /// The parameter-free run.
    ParameterFree,
    /// The ego-betweenness run.
    EgoBetweenness,
}

impl std::fmt::Display for FamilyRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParameterFree => f.write_str("parameter-free run"),
            Self::EgoBetweenness => f.write_str("ego-betweenness run"),
        }
    }
}

/// One violated invariant of a [`FamilySuite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FamilyViolation {
    /// A run's layout is unsound.
    Run {
        /// The run.
        run: FamilyRun,
        /// What is wrong with it.
        inner: RunViolation,
    },
    /// A run differs from the ranking a scan of the profiles derives.
    RankingDiverged {
        /// The run.
        run: FamilyRun,
        /// Rank of the first key that differs (or the shorter length).
        at: usize,
        /// Keys the reference ranking holds.
        expected: usize,
        /// Keys the run holds.
        actual: usize,
    },
    /// The truss runs disagree with the profiles' core-size multisets.
    Truss(SizeRunViolation),
}

impl std::fmt::Display for FamilyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Run { run, inner } => write!(f, "{run}: {inner}"),
            Self::RankingDiverged {
                run,
                at,
                expected,
                actual,
            } => write!(
                f,
                "{run} diverges from the profile scan at rank {at} \
                 ({actual} keys, scan gives {expected})"
            ),
            Self::Truss(v) => write!(f, "truss runs: {v}"),
        }
    }
}

impl FamilySuite {
    /// Audits the ranked runs against the profiles: the truss runs pass
    /// [`SizeRuns::validate`] over the core multisets, and the
    /// parameter-free and ego-betweenness runs are each sound and equal to
    /// the reference ranking a scan of every profile derives. Returns all
    /// violations found (empty = sound).
    pub fn validate(&self) -> Vec<FamilyViolation> {
        let r = &self.rankings;
        let mut out: Vec<FamilyViolation> = r
            .truss
            .validate(self.profiles.values().map(truss_item))
            .into_iter()
            .map(FamilyViolation::Truss)
            .collect();
        for (id, run) in [
            (FamilyRun::ParameterFree, &r.pf),
            (FamilyRun::EgoBetweenness, &r.betweenness),
        ] {
            out.extend(
                run.validate()
                    .into_iter()
                    .map(|inner| FamilyViolation::Run { run: id, inner }),
            );
            let expected = self.reference_ranking(id);
            let at = run
                .iter()
                .zip(&expected)
                .position(|(got, want)| got != *want)
                .or_else(|| (run.len() != expected.len()).then(|| run.len().min(expected.len())));
            if let Some(at) = at {
                out.push(FamilyViolation::RankingDiverged {
                    run: id,
                    at,
                    expected: expected.len(),
                    actual: run.len(),
                });
            }
        }
        out
    }

    /// The reference ranking of `run`: score every profile and sort the
    /// positive scores — the per-query scan the runs replaced.
    fn reference_ranking(&self, run: FamilyRun) -> Vec<RankKey> {
        let mut keys: Vec<RankKey> = self
            .profiles
            .values()
            .filter_map(|&(edge, ref prof)| {
                let score = match run {
                    FamilyRun::ParameterFree => prof.pf,
                    FamilyRun::EgoBetweenness => prof.betweenness,
                };
                (score > 0).then_some(RankKey { score, edge })
            })
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use crate::ScoredEdge;
    use esd_graph::generators;

    /// The index's lists, each in stored order.
    fn lists_of(index: &EsdIndex) -> Vec<Vec<ScoredEdge>> {
        index
            .list_offsets
            .windows(2)
            .map(|w| index.entries[w[0]..w[1]].to_vec())
            .collect()
    }

    /// An index over `sizes` holding `lists` as given — no audit, so tests
    /// can assemble corrupt ones.
    fn assemble(sizes: Vec<u32>, lists: Vec<Vec<ScoredEdge>>) -> EsdIndex {
        let mut list_offsets = vec![0];
        let mut entries = Vec::new();
        for list in lists {
            entries.extend(list);
            list_offsets.push(entries.len());
        }
        EsdIndex {
            sizes,
            list_offsets,
            entries,
        }
    }

    #[test]
    fn components_validate() {
        let (g, _) = fig1();
        let comps = EdgeComponents::by_bfs(&g);
        assert_eq!(comps.validate(), Vec::new());

        let mut bad = comps.clone();
        bad.offsets[1] = usize::MAX;
        let v = bad.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, ComponentsViolation::OffsetsNotMonotone { .. })),
            "got {v:?}"
        );

        let mut bad = comps.clone();
        bad.sizes[0] = 0;
        let v = bad.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, ComponentsViolation::ZeroSize { edge: 0, .. })),
            "got {v:?}"
        );

        // Find an edge with at least two components and swap to break order.
        let mut bad = comps.clone();
        let e = (0..bad.num_edges())
            .find(|&e| {
                let s = bad.sizes_of(e);
                s.len() >= 2 && s[0] != s[s.len() - 1]
            })
            .expect("fig1 has multi-component edges");
        let (lo, hi) = (bad.offsets[e], bad.offsets[e + 1] - 1);
        bad.sizes.swap(lo, hi);
        let v = bad.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, ComponentsViolation::SizesNotSorted { .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn index_validate_clean_and_against_graph() {
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        assert_eq!(index.validate(), Vec::new());
        assert_eq!(index.validate_against(&g), Vec::new());

        for seed in 0..3 {
            let g = generators::clique_overlap(60, 50, 5, seed);
            let index = EsdIndex::build_fast(&g);
            assert_eq!(index.validate_against(&g), Vec::new());
        }
    }

    #[test]
    fn index_detects_unsorted_sizes_and_arity() {
        let (g, _) = fig1();
        let mut index = EsdIndex::build_fast(&g);
        index.sizes.swap(0, 1);
        let v = index.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, IndexViolation::SizesNotAscending { .. })),
            "got {v:?}"
        );

        let mut index = EsdIndex::build_fast(&g);
        index.list_offsets.pop();
        let v = index.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, IndexViolation::ListArityMismatch { .. })),
            "got {v:?}"
        );

        let mut index = EsdIndex::build_fast(&g);
        index.list_offsets[1] = index.entries.len() + 7;
        let v = index.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, IndexViolation::ListArityMismatch { .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn index_detects_broken_nesting() {
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        // Remove one H(5) edge from every smaller list: H(5) ⊄ H(4).
        let mut lists = lists_of(&index);
        let victim = lists.last().unwrap()[0];
        let last = lists.len() - 1;
        for list in &mut lists[..last] {
            list.retain(|s| s.edge != victim.edge);
        }
        let v = assemble(index.sizes.clone(), lists).validate();
        assert_eq!(
            v,
            [IndexViolation::NotNested {
                threshold: *index.sizes.last().unwrap(),
                edge: victim.edge
            }]
        );
    }

    #[test]
    fn index_validate_against_detects_score_drift() {
        let (g, _) = fig1();
        let mut index = EsdIndex::build_fast(&g);
        // Bump the top entry of the last list: rank order still holds.
        let top = index.list_offsets[index.sizes.len() - 1];
        index.entries[top].score += 1;
        let victim = index.entries[top];
        // Even the structural pass notices: the bumped score now exceeds the
        // edge's score at the next smaller threshold.
        let v = index.validate();
        assert!(
            v.iter().any(|x| matches!(
                x,
                IndexViolation::ScoreNotMonotone { edge, .. } if *edge == victim.edge
            )),
            "got {v:?}"
        );
        let v = index.validate_against(&g);
        assert!(
            v.iter().any(|x| matches!(
                x,
                IndexViolation::WrongScore { edge, .. } if *edge == victim.edge
            )),
            "got {v:?}"
        );
    }

    #[test]
    fn flat_layout_detects_corruption() {
        let (g, _) = fig1();
        let index = EsdIndex::build_fast(&g);
        let c_min = index.sizes[0];

        let mut bad = index.clone();
        bad.entries.swap(0, 1); // rank order within H(min C) breaks
        let v = bad.validate();
        assert!(
            v.contains(&IndexViolation::OutOfOrder {
                threshold: c_min,
                position: 1
            }),
            "got {v:?}"
        );

        let mut bad = index.clone();
        bad.entries[0].score = 0;
        let v = bad.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, IndexViolation::ZeroScore { .. })),
            "got {v:?}"
        );

        let mut bad = index.clone();
        let e = bad.entries[0].edge;
        bad.entries[0].edge = Edge { u: e.v, v: e.u };
        let v = bad.validate();
        assert!(
            v.contains(&IndexViolation::NonCanonicalEdge {
                threshold: c_min,
                edge: Edge { u: e.v, v: e.u }
            }),
            "got {v:?}"
        );

        // The same edge twice in one list, at two scores: rank order holds.
        let mut lists = lists_of(&index);
        let first = lists[0][0];
        let twin = ScoredEdge {
            edge: first.edge,
            score: first.score + 1,
        };
        lists[0].insert(0, twin);
        let v = assemble(index.sizes.clone(), lists).validate();
        assert_eq!(
            v,
            [IndexViolation::DuplicateEdge {
                threshold: c_min,
                edge: first.edge
            }]
        );

        // Drop the last list's entries without shrinking C: contents diverge.
        let mut bad = index.clone();
        let prev = bad.list_offsets[bad.list_offsets.len() - 2];
        bad.entries.truncate(prev);
        *bad.list_offsets.last_mut().unwrap() = prev;
        let v = bad.validate_against(&g);
        assert!(
            v.iter()
                .any(|x| matches!(x, IndexViolation::MissingEntry { .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn maintained_validate_clean() {
        let (g, _) = fig1();
        let index = MaintainedIndex::new(&g);
        assert_eq!(index.validate(), Vec::new());
        assert_eq!(index.validate_deep(), Vec::new());
    }

    #[test]
    fn maintained_detects_refcount_corruption() {
        let (g, _) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let true_count = index.lists.refcounts[&4];
        *index.lists.refcounts.get_mut(&4).unwrap() += 3;
        let v = index.validate();
        assert!(
            v.contains(&MaintViolation::Lists(SizeRunViolation::RefcountMismatch {
                size: 4,
                stored: true_count + 3,
                actual: true_count
            })),
            "got {v:?}"
        );
    }

    #[test]
    fn maintained_detects_list_key_divergence() {
        let (g, _) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let run = index.lists.runs.remove(&4).unwrap();
        index.lists.runs.insert(3, run);
        let v = index.validate();
        assert!(
            v.contains(&MaintViolation::Lists(
                SizeRunViolation::RunWithoutRefcount { size: 3 }
            )),
            "got {v:?}"
        );
        assert!(
            v.contains(&MaintViolation::Lists(
                SizeRunViolation::RefcountWithoutRun { size: 4 }
            )),
            "got {v:?}"
        );
    }

    #[test]
    fn maintained_detects_forest_faults() {
        let (g, _) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let key = index.forests.keys().next().unwrap();

        // Stray forest for a non-edge.
        let mut bad = index.clone();
        let forest = bad.forests.get(key).unwrap().clone();
        bad.forests.insert(Edge::new(0, 15).key(), forest);
        let v = bad.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, MaintViolation::ForestForMissingEdge { .. })
                    || matches!(x, MaintViolation::ForestMemberMismatch { .. })),
            "got {v:?}"
        );

        // Root size corruption.
        let forest = index.forests.get_mut(key).unwrap();
        let root = {
            let mut vs: Vec<VertexId> = forest.nodes.keys().copied().collect();
            vs.sort_unstable();
            vs.into_iter()
                .find(|&w| forest.nodes[&w].0 == w)
                .expect("a root exists")
        };
        forest.nodes.get_mut(&root).unwrap().1 += 5;
        let v = index.validate();
        assert!(
            v.iter().any(|x| matches!(
                x,
                MaintViolation::ForestRootSizeMismatch { edge, .. } if edge.key() == key
            )),
            "got {v:?}"
        );
    }

    #[test]
    fn maintained_deep_detects_wrong_partition() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        // (j, k)'s ego-network has components {h, i} and {u, v, p, q} in
        // Fig 1; merging them keeps every structural check locally sound at
        // the forest level except the partition itself.
        let key = Edge::new(n["j"], n["k"]).key();
        let forest = index.forests.get_mut(key).unwrap();
        let mut roots: Vec<VertexId> = {
            let mut vs: Vec<VertexId> = forest.nodes.keys().copied().collect();
            vs.sort_unstable();
            vs.into_iter()
                .filter(|&w| forest.nodes[&w].0 == w)
                .collect()
        };
        assert_eq!(roots.len(), 2, "fig1 (j,k) has two components");
        let (a, b) = (roots.remove(0), roots.remove(0));
        let size_a = forest.nodes[&a].1;
        let size_b = forest.nodes[&b].1;
        forest.nodes.get_mut(&b).unwrap().0 = a;
        forest.nodes.get_mut(&a).unwrap().1 = size_a + size_b;
        // The shallow pass sees a self-consistent (but wrong) partition, so
        // it reports only the downstream list/refcount drift; the deep pass
        // pins the root cause.
        let v = index.validate_deep();
        assert!(
            v.contains(&MaintViolation::ForestPartitionDiverged {
                edge: Edge::new(n["j"], n["k"])
            }),
            "got {v:?}"
        );
    }

    #[test]
    fn maintained_detects_list_entry_drift() {
        let (g, _) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let (&c, list) = index.lists.runs.iter_mut().next().unwrap();
        let victim = list.iter().next().unwrap();
        list.remove(&victim);
        let v = index.validate();
        assert!(
            v.contains(&MaintViolation::Lists(SizeRunViolation::MissingKey {
                size: c,
                edge: victim.edge,
                score: victim.score
            })),
            "got {v:?}"
        );
    }

    #[test]
    fn maintained_detects_unsound_list_runs() {
        let (g, _) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let (&c, run) = index.lists.runs.iter_mut().next().unwrap();
        std::sync::Arc::make_mut(&mut run.pages[0]).swap(0, 1);
        run.len += 1;
        let len = run.len();
        let v = index.validate();
        for want in [
            RunViolation::OutOfOrder { page: 0, offset: 1 },
            RunViolation::LenMismatch {
                stored: len,
                actual: len - 1,
            },
        ] {
            let want = MaintViolation::Lists(SizeRunViolation::Run {
                size: c,
                inner: want,
            });
            assert!(v.contains(&want), "missing {want}: got {v:?}");
        }
    }

    #[test]
    fn family_suite_audit_reports_corrupted_runs() {
        let g = generators::clique_overlap(60, 30, 6, 9);
        let suite = FamilySuite::new(&g);
        assert!(suite.validate().is_empty());

        // A key missing from a run.
        let mut missing = suite.clone();
        let top = missing.rankings.pf.iter().next().expect("a ranked edge");
        missing.rankings.pf.remove(&top);
        assert_eq!(
            missing.validate(),
            [FamilyViolation::RankingDiverged {
                run: FamilyRun::ParameterFree,
                at: 0,
                expected: suite.rankings.pf.len(),
                actual: suite.rankings.pf.len() - 1,
            }]
        );

        // Two keys swapped inside a page.
        let mut swapped = suite.clone();
        let (&c, run) = swapped
            .rankings
            .truss
            .runs
            .iter_mut()
            .next()
            .expect("a truss run");
        assert!(run.len() >= 2);
        std::sync::Arc::make_mut(&mut run.pages[0]).swap(0, 1);
        let v = swapped.validate();
        assert_eq!(
            v,
            [FamilyViolation::Truss(SizeRunViolation::Run {
                size: c,
                inner: RunViolation::OutOfOrder { page: 0, offset: 1 },
            })]
        );

        // A stale length, a stale refcount and an orphaned run.
        let mut stale = suite.clone();
        stale.rankings.betweenness.len += 1;
        *stale.rankings.truss.refcounts.get_mut(&c).unwrap() += 1;
        stale.rankings.truss.runs.insert(999, CowRun::default());
        let v = stale.validate();
        for want in [
            FamilyViolation::Run {
                run: FamilyRun::EgoBetweenness,
                inner: RunViolation::LenMismatch {
                    stored: suite.rankings.betweenness.len() + 1,
                    actual: suite.rankings.betweenness.len(),
                },
            },
            FamilyViolation::Truss(SizeRunViolation::RefcountMismatch {
                size: c,
                stored: suite.rankings.truss.refcounts[&c] + 1,
                actual: suite.rankings.truss.refcounts[&c],
            }),
            FamilyViolation::Truss(SizeRunViolation::RunWithoutRefcount { size: 999 }),
        ] {
            assert!(v.contains(&want), "missing {want}: got {v:?}");
        }
    }
}
