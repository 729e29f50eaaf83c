//! The query-family layer: three structural-diversity variants maintained
//! beside the component-based index, behind one request vocabulary.
//!
//! The paper's `score_τ(u, v)` — the number of size-≥ τ connected
//! components of the common-neighbourhood ego network `G_{N(uv)}` — is one
//! member of a family of ego-network diversity measures. This module
//! implements the other three the roadmap calls for, all over the same
//! ego substrate:
//!
//! * **[`Family::Truss`]** — *truss-based diversity* (after arXiv
//!   2007.05437): the number of ego components whose **3-truss core**
//!   holds at least τ vertices. The 3-truss of a graph is exactly the
//!   union of its triangles — every edge of a triangle has support ≥ 1
//!   inside the set of triangle edges, so that set satisfies the 3-truss
//!   condition and is maximal — which gives the production kernel a cheap
//!   per-component triangle-vertex count while the differential oracle
//!   runs the full bucket-peeling [`esd_graph::truss::truss_decomposition`]
//!   on the materialised ego subgraph. Since a component's core is a
//!   subset of the component, the truss score can never exceed the
//!   component score at the same τ — a cross-family invariant the
//!   agreement harness pins.
//! * **[`Family::ParameterFree`]** — *parameter-free diversity* (after
//!   arXiv 1908.11612): no τ knob. Each edge chooses its own threshold
//!   `τ*(e) = max(1, ⌈√h⌉)` from its neighbourhood size `h = |N(u)∩N(v)|`
//!   and scores as the component-based measure at that τ*. By construction
//!   it agrees with [`Family::Component`] at τ*(e) — the second pinned
//!   invariant.
//! * **[`Family::EgoBetweenness`]** — *ego-betweenness* (after arXiv
//!   2107.10052): the total betweenness mass of the ego network. Summed
//!   over all edges of a graph, Brandes betweenness equals the sum of
//!   pairwise shortest-path distances over connected pairs, so the mass is
//!   the exact integer `Σ_{s<t connected} d(s, t)` — the production kernel
//!   computes it with per-member BFS distance sums while the oracle sums
//!   [`esd_graph::betweenness::edge_betweenness`] over the ego subgraph.
//!   τ does not apply and is ignored.
//!
//! [`FamilySuite`] holds the maintained per-edge score profiles for the
//! three non-component families, beside (not inside) [`MaintainedIndex`]:
//! the component index keeps its forests and `H(c)` lists to itself, and
//! the suite keeps one profile per **owned** edge, recomputed per update
//! window over the component index's own blast radius `Ĝ_{N(uv)}`: a
//! profile depends only on its edge's ego network, which an update `(u, v)`
//! changes only for `(u, v)` itself, the triangle edges `(u, w)`, `(v, w)`
//! and the ego pairs of `N(u) ∩ N(v)`. The radius is taken in the
//! post-window graph, with the window's other partners of `u` and `v`
//! added to the common neighbourhood: a window that cuts both `(u, v)` and
//! `(v, w)` leaves `w` no longer a common neighbour, yet `(u, w)` lost `v`
//! from its ego network.
//!
//! One kernel, `EdgeProfiles::from_ego`, scores an ego network under all
//! three families from a local CSR of it. A suite is built without
//! materialising any ego network: by Observation 1 the 4-clique pass sees
//! every ego edge of every edge, so the construction
//! ([`Construction`](crate::Construction), or the forest-free pass of
//! [`FamilySuite::new_owned`]) sorts the pass's ego edges into one CSR and
//! runs the kernel over each edge's window of it. Maintenance recomputes
//! a profile with `EdgeProfiles::compute`, which fills the local CSR by
//! intersecting adjacency lists and runs the same kernel.
//!
//! Queries read ranked [`CowRun`]s, never the profiles. Parameter-free and
//! ego-betweenness each keep one run of their positive scores. Truss keeps
//! a [`SizeRuns`] over the core multisets — the component index's rule: an
//! edge sits in every run `c ≤` its largest core, scored by its number of
//! cores `≥ c`, and a query at τ reads the first run with `c ≥ τ`. A core
//! size new to a window is seeded from its successor's run, the deviation
//! [`SizeRuns`] documents, which is a page pointer copy. A window re-ranks
//! only the profiles it actually changed.
//!
//! [`MaintainedIndex`]: crate::MaintainedIndex

use crate::cow::{CowMap, CowRun, RankKey, SizeRuns};
use crate::maintain::{EdgeOwnership, GraphUpdate};
use crate::score::score_from_sizes;
use crate::ScoredEdge;
use esd_graph::{DynamicGraph, Edge, Graph, VertexId};
use std::collections::{BTreeSet, HashMap};

/// Which diversity measure a query ranks by.
///
/// The default is [`Family::Component`] — the paper's measure, served by
/// the component-based [`MaintainedIndex`](crate::MaintainedIndex) — so a
/// family-unspecified request behaves exactly as before the family layer
/// existed. The other three are maintained by [`FamilySuite`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Family {
    /// Component-based structural diversity (the paper's Definition 2).
    #[default]
    Component,
    /// Truss-based diversity: ego components counted only when their
    /// 3-truss core reaches τ vertices.
    Truss,
    /// Parameter-free diversity: each edge scores at its own
    /// `τ*(e) = max(1, ⌈√h⌉)`; the query's τ is ignored.
    ParameterFree,
    /// Total ego-network betweenness mass; the query's τ is ignored.
    EgoBetweenness,
}

impl Family {
    /// Every family, in declaration order.
    pub const ALL: [Family; 4] = [
        Family::Component,
        Family::Truss,
        Family::ParameterFree,
        Family::EgoBetweenness,
    ];

    /// The families [`FamilySuite`] maintains (everything but
    /// [`Family::Component`], which the component index serves).
    pub const MAINTAINED: [Family; 3] =
        [Family::Truss, Family::ParameterFree, Family::EgoBetweenness];

    /// The stable wire name (`component`, `truss`, `parameter-free`,
    /// `ego-betweenness`) used by the protocol, the CLI, and telemetry.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Family::Component => "component",
            Family::Truss => "truss",
            Family::ParameterFree => "parameter-free",
            Family::EgoBetweenness => "ego-betweenness",
        }
    }

    /// Parses a wire name back into a family — the inverse of
    /// [`Family::name`], also accepting the short aliases `pf` and
    /// `betweenness`. `None` for unknown names.
    #[must_use]
    pub fn parse(name: &str) -> Option<Family> {
        match name {
            "component" => Some(Family::Component),
            "truss" => Some(Family::Truss),
            "parameter-free" | "pf" => Some(Family::ParameterFree),
            "ego-betweenness" | "betweenness" => Some(Family::EgoBetweenness),
            _ => None,
        }
    }

    /// Whether the query's τ parameter participates in this family's
    /// score. Families that ignore τ still accept it on the wire (it must
    /// be ≥ 1 as always) so the request shape is uniform.
    #[must_use]
    pub const fn uses_tau(self) -> bool {
        matches!(self, Family::Component | Family::Truss)
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-edge threshold of the parameter-free family:
/// `τ*(e) = max(1, ⌈√h⌉)` for a common neighbourhood of `h` vertices.
/// Exact integer arithmetic — no floating-point square root.
#[must_use]
pub fn tau_star(h: usize) -> u32 {
    let mut t: u32 = 1;
    while (t as usize) * (t as usize) < h {
        t += 1;
    }
    t
}

/// The maintained per-edge state: one score profile per family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EdgeProfiles {
    /// Sorted multiset of 3-truss core sizes, one entry per ego component
    /// with a non-empty core (zero-core components are dropped — they can
    /// never reach any τ ≥ 1). Boxed, so the two thirds of edges with no
    /// core allocate nothing.
    pub(crate) truss_cores: Box<[u32]>,
    /// The parameter-free score (component score at `τ*(e)`).
    pub(crate) pf: u32,
    /// Total ego-betweenness mass `Σ_{s<t connected} d(s, t)`, saturated
    /// at `u32::MAX`.
    pub(crate) betweenness: u32,
}

impl EdgeProfiles {
    /// Recomputes all three profiles of edge `(u, v)` against `g`: fills the
    /// local CSR of `G[N(uv)]` by intersection and runs the kernel.
    pub(crate) fn compute(
        g: &DynamicGraph,
        u: VertexId,
        v: VertexId,
        s: &mut ProfileScratch,
    ) -> Self {
        s.members.clear();
        esd_graph::intersect::intersect_into(g.neighbors(u), g.neighbors(v), &mut s.members);
        s.offsets.clear();
        s.offsets.push(0);
        s.adj.clear();
        for &m in &s.members {
            s.found.clear();
            esd_graph::intersect::intersect_into(g.neighbors(m), &s.members, &mut s.found);
            let local = |w| s.members.binary_search(w).expect("member") as u32;
            s.adj.extend(s.found.iter().map(local));
            s.offsets
                .push(u32::try_from(s.adj.len()).expect("ego CSR fits u32 offsets"));
        }
        let ego = EgoCsr {
            offsets: &s.offsets,
            adj: &s.adj,
        };
        Self::from_ego(ego, &mut s.work)
    }

    /// The profile kernel: all three profiles of one ego network from its
    /// local CSR. Components by depth-first search (parameter-free scores
    /// them at `τ*`); per component, the members of some ego triangle
    /// `x < y < z`, found from `x`'s marked neighbours (the 3-truss core,
    /// see the module doc); one breadth-first search per member for the
    /// distance mass, skipped for a member adjacent to its whole component.
    pub(crate) fn from_ego(ego: EgoCsr<'_>, w: &mut KernelWork) -> Self {
        const UNSEEN: u32 = u32::MAX;
        let h = ego.offsets.len() - 1;
        w.label.clear();
        w.label.resize(h, UNSEEN);
        w.sizes.clear();
        w.queue.clear();
        for start in 0..h as u32 {
            if w.label[start as usize] != UNSEEN {
                continue;
            }
            let c = w.sizes.len() as u32;
            w.label[start as usize] = c;
            w.queue.push(start);
            let mut size = 0;
            while let Some(x) = w.queue.pop() {
                size += 1;
                for &y in ego.neighbors(x) {
                    if w.label[y as usize] == UNSEEN {
                        w.label[y as usize] = c;
                        w.queue.push(y);
                    }
                }
            }
            w.sizes.push(size);
        }

        w.mark.clear();
        w.mark.resize(h, 0);
        w.in_triangle.clear();
        w.in_triangle.resize(h, false);
        for x in 0..h as u32 {
            for &y in ego.neighbors(x) {
                w.mark[y as usize] = x + 1;
            }
            for &y in ego.neighbors(x).iter().filter(|&&y| y > x) {
                for &z in ego.neighbors(y) {
                    if z > y && w.mark[z as usize] == x + 1 {
                        for t in [x, y, z] {
                            w.in_triangle[t as usize] = true;
                        }
                    }
                }
            }
        }
        w.cores.clear();
        w.cores.resize(w.sizes.len(), 0);
        for (&l, &t) in w.label.iter().zip(&w.in_triangle) {
            w.cores[l as usize] += u32::from(t);
        }
        w.cores.retain(|&c| c > 0);
        w.cores.sort_unstable();

        // `dist` is all UNSEEN between searches: each resets what it reached.
        w.dist.resize(h, UNSEEN);
        let mut total: u64 = 0;
        for s in 0..h as u32 {
            let reach = w.sizes[w.label[s as usize] as usize] - 1;
            if ego.neighbors(s).len() == reach as usize {
                total += u64::from(reach);
                continue;
            }
            w.queue.clear();
            w.queue.push(s);
            w.dist[s as usize] = 0;
            let mut head = 0;
            while let Some(&x) = w.queue.get(head) {
                head += 1;
                let d = w.dist[x as usize] + 1;
                for &y in ego.neighbors(x) {
                    if w.dist[y as usize] == UNSEEN {
                        w.dist[y as usize] = d;
                        total += u64::from(d);
                        w.queue.push(y);
                    }
                }
            }
            for &x in &w.queue {
                w.dist[x as usize] = UNSEEN;
            }
        }
        w.sizes.sort_unstable();
        Self {
            truss_cores: w.cores.as_slice().into(),
            pf: score_from_sizes(&w.sizes, tau_star(h)),
            // Every connected pair was counted once from each endpoint.
            betweenness: u32::try_from(total / 2).unwrap_or(u32::MAX),
        }
    }
}

/// One ego network `G[N(uv)]` as a local CSR: member `i`'s neighbours, as
/// member indices, are `adj[offsets[i]..offsets[i + 1]]`. `offsets` holds
/// `|N(uv)| + 1` positions into `adj`, which need not start at 0, so the
/// bulk construction hands each edge a window of one CSR over every
/// common neighbourhood.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EgoCsr<'a> {
    pub(crate) offsets: &'a [u32],
    pub(crate) adj: &'a [u32],
}

impl EgoCsr<'_> {
    fn neighbors(&self, x: u32) -> &[u32] {
        let x = x as usize;
        &self.adj[self.offsets[x] as usize..self.offsets[x + 1] as usize]
    }
}

/// The profile kernel's working arrays, reused from edge to edge.
#[derive(Debug, Default)]
pub(crate) struct KernelWork {
    /// Component label per member.
    label: Vec<u32>,
    /// Component sizes, indexed by label.
    sizes: Vec<u32>,
    /// Triangle members per component, indexed by label.
    cores: Vec<u32>,
    /// `mark[z] == x + 1` while member `x`'s neighbours are marked.
    mark: Vec<u32>,
    in_triangle: Vec<bool>,
    /// Breadth-first distances, `u32::MAX` when unreached.
    dist: Vec<u32>,
    /// The search stack or queue.
    queue: Vec<u32>,
}

/// [`EdgeProfiles::compute`]'s buffers: the intersected members, their
/// local CSR and the kernel's arrays.
#[derive(Debug, Default)]
pub(crate) struct ProfileScratch {
    members: Vec<VertexId>,
    found: Vec<VertexId>,
    offsets: Vec<u32>,
    adj: Vec<u32>,
    work: KernelWork,
}

/// A profile entry as a [`SizeRuns`] item: the edge and its core sizes.
pub(crate) fn truss_item((edge, prof): &(Edge, EdgeProfiles)) -> (Edge, &[u32]) {
    (*edge, &prof.truss_cores)
}

/// What one [`FamilySuite::apply`] window did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyApplyReport {
    /// Owned edges in the window's blast radius (recomputed + deleted).
    pub affected: usize,
    /// Owned, still-present edges whose profiles were recomputed.
    pub recomputed: usize,
    /// Edges whose rankings moved: recomputed profiles that differ from
    /// the stored one (new edges included) plus deleted profiles. At most
    /// `affected`; recomputed profiles equal to the stored one are skipped.
    pub reranked: usize,
}

/// Page count of [`FamilySuite`]'s profile map. A window copies at most
/// one page per profile it rewrites, and a clone copies one pointer per
/// page.
const PROFILE_PAGES: usize = 512;

/// Maintained score state for every non-component [`Family`], kept beside
/// the component index: one score profile per **owned** edge, updated
/// per window by [`FamilySuite::apply`], and the ranked runs
/// [`FamilySuite::query`] reads (see the module docs). The profiles live in
/// a copy-on-write [`CowMap`] and the rankings in [`CowRun`]s, so a clone
/// shares their pages until a window rewrites them.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySuite {
    ownership: EdgeOwnership,
    /// Edge key → (edge, profiles), for every owned edge of the graph.
    pub(crate) profiles: CowMap<(Edge, EdgeProfiles)>,
    pub(crate) rankings: Rankings,
}

/// The ranked runs of a [`FamilySuite`], derived from its profiles.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Rankings {
    /// Truss runs over each profile's core sizes.
    pub(crate) truss: SizeRuns,
    /// Every positive parameter-free score.
    pub(crate) pf: CowRun,
    /// Every positive ego-betweenness mass.
    pub(crate) betweenness: CowRun,
}

impl Rankings {
    /// Builds every run in one pass over `profiles` plus one sort per run.
    fn build(profiles: &CowMap<(Edge, EdgeProfiles)>) -> Self {
        let (mut pf, mut betweenness) = (Vec::new(), Vec::new());
        for &(edge, ref prof) in profiles.values() {
            for (keys, score) in [(&mut pf, prof.pf), (&mut betweenness, prof.betweenness)] {
                if score > 0 {
                    keys.push(RankKey { score, edge });
                }
            }
        }
        let run = |mut keys: Vec<RankKey>| {
            keys.sort_unstable();
            CowRun::from_sorted(&keys)
        };
        Self {
            pf: run(pf),
            betweenness: run(betweenness),
            truss: SizeRuns::build(profiles.values().map(truss_item)),
        }
    }

    /// Every run: the truss runs, then parameter-free, then
    /// ego-betweenness.
    fn runs(&self) -> impl Iterator<Item = &CowRun> {
        self.truss
            .runs
            .values()
            .chain([&self.pf, &self.betweenness])
    }

    /// Inserts (or removes) the positive parameter-free and
    /// ego-betweenness keys `prof` gives `edge`.
    fn edit(&mut self, edge: Edge, prof: &EdgeProfiles, insert: bool) {
        for (run, score) in [
            (&mut self.pf, prof.pf),
            (&mut self.betweenness, prof.betweenness),
        ] {
            if score > 0 {
                let key = RankKey { score, edge };
                let done = if insert {
                    run.insert(key)
                } else {
                    run.remove(&key)
                };
                debug_assert!(done, "run out of step with the profile of {edge}");
            }
        }
    }

    /// Moves the runs from the `retired` profiles to the `changed` ones:
    /// retract the old keys, then restore the truss runs and insert the
    /// new keys.
    fn rerank(&mut self, retired: &[(Edge, EdgeProfiles)], changed: &[&(Edge, EdgeProfiles)]) {
        for &(edge, ref old) in retired {
            self.edit(edge, old, false);
            self.truss.retract(edge, &old.truss_cores);
        }
        self.truss.restore(changed.iter().copied().map(truss_item));
        for &&(edge, ref prof) in changed {
            self.edit(edge, prof, true);
        }
    }
}

impl FamilySuite {
    /// Builds the suite for the full edge space of `g`.
    #[must_use]
    pub fn new(g: &Graph) -> Self {
        Self::new_owned(g, EdgeOwnership::ALL)
    }

    /// Builds the suite maintaining only the edges `ownership` owns, from
    /// one 4-clique pass over `g`. A fleet that also needs the component
    /// index slices both from one [`Construction`] instead.
    ///
    /// [`Construction`]: crate::Construction
    #[must_use]
    pub fn new_owned(g: &Graph, ownership: EdgeOwnership) -> Self {
        let owned = g
            .edges()
            .iter()
            .copied()
            .zip(crate::construct::profiles(g))
            .filter(|(e, _)| ownership.owns_key(e.key()));
        Self::from_profiles(ownership, owned)
    }

    /// From-scratch reconstruction against `g` — the recompute oracle the
    /// agreement harness compares maintained state to.
    #[must_use]
    pub fn rebuild(g: &DynamicGraph, ownership: EdgeOwnership) -> Self {
        Self::new_owned(&g.to_graph(), ownership)
    }

    /// The suite over `owned` profiles — the edges `ownership` owns, each
    /// with its profiles.
    pub(crate) fn from_profiles(
        ownership: EdgeOwnership,
        owned: impl Iterator<Item = (Edge, EdgeProfiles)>,
    ) -> Self {
        let owned = owned.map(|(e, prof)| (e.key(), (e, prof)));
        let profiles = CowMap::from_entries(PROFILE_PAGES, owned);
        let suite = Self {
            ownership,
            rankings: Rankings::build(&profiles),
            profiles,
        };
        suite.strict_audit();
        suite
    }

    /// The edge-space slice this suite maintains.
    #[must_use]
    pub fn ownership(&self) -> EdgeOwnership {
        self.ownership
    }

    /// Number of owned edges currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no owned edge is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// How many profile pages differ from `other`'s — the pages the
    /// windows applied since the two suites were cloned apart have copied
    /// (see [`MaintainedIndex::forest_pages_unshared_with`](crate::MaintainedIndex::forest_pages_unshared_with)).
    #[must_use]
    pub fn pages_unshared_with(&self, other: &Self) -> usize {
        self.profiles.pages_unshared_with(&other.profiles)
    }

    /// How many distinct pages of this suite's ranked runs `other` holds
    /// nowhere — the run pages the windows since the two were cloned apart
    /// have copied or created. A run seeded from another run's pages
    /// shares them.
    #[must_use]
    pub fn ranking_pages_unshared_with(&self, other: &Self) -> usize {
        crate::cow::run_pages_unshared(self.rankings.runs(), other.rankings.runs())
    }

    /// Incorporates one applied update window. `g` must be the graph
    /// **after** the window (the component index's
    /// [`graph()`](crate::MaintainedIndex::graph) right after
    /// `apply_batch_parallel`). A profile of an edge `(a, b)` depends only
    /// on its ego network `G[N(ab)]`, so each update `(u, v)` reaches the
    /// component index's own radius (`Ĝ_{N(uv)}`, Observations 2–3), taken
    /// in `g` over the members `N(u) ∩ N(v)` plus every `w` the same window
    /// updates `(u, w)` or `(v, w)` for — a common neighbour before the
    /// window that the window cut off is one of those. Affected edges no
    /// longer present are dropped; the rest are recomputed, on the calling
    /// thread for a small window and fanned out over `threads` workers for
    /// a large one. Only the dropped profiles and the recomputed ones that
    /// changed are re-ranked.
    pub fn apply(
        &mut self,
        g: &DynamicGraph,
        updates: &[GraphUpdate],
        threads: usize,
    ) -> FamilyApplyReport {
        let _span = esd_telemetry::span(esd_telemetry::Stage::FamilyApply);
        let in_range = |x: VertexId| (x as usize) < g.num_vertices();
        // Each endpoint's partners in this window: the batch term of the
        // members below.
        let mut partners: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        let edits = updates
            .iter()
            .map(|upd| upd.endpoints())
            .filter(|(u, v)| u != v);
        for (u, v) in edits.clone() {
            partners.entry(u).or_default().push(v);
            partners.entry(v).or_default().push(u);
        }
        let mut candidates: BTreeSet<u64> = BTreeSet::new();
        for (u, v) in edits {
            let mut members = if in_range(u) && in_range(v) {
                g.common_neighbors(u, v)
            } else {
                Vec::new()
            };
            members.extend(
                partners[&u]
                    .iter()
                    .chain(&partners[&v])
                    .copied()
                    .filter(|&w| w != u && w != v && in_range(w)),
            );
            members.sort_unstable();
            members.dedup();
            candidates.extend(crate::maintain::affected_edges(g, u, v, &members));
        }
        let owned: Vec<Edge> = candidates
            .into_iter()
            .filter(|&key| self.ownership.owns_key(key))
            .map(Edge::from_key)
            .collect();
        let affected = owned.len();
        let (live, dead): (Vec<Edge>, Vec<Edge>) = owned
            .into_iter()
            .partition(|e| in_range(e.u) && in_range(e.v) && g.has_edge(e.u, e.v));
        let recomputed = live.len();
        let threads = if recomputed < crate::maintain::INLINE_RECOMPUTE {
            1
        } else {
            threads.clamp(1, recomputed)
        };
        let recompute = |edges: &[Edge]| {
            let mut scratch = ProfileScratch::default();
            edges
                .iter()
                .map(|&e| (e, EdgeProfiles::compute(g, e.u, e.v, &mut scratch)))
                .collect::<Vec<_>>()
        };
        let computed: Vec<(Edge, EdgeProfiles)> = if threads == 1 {
            recompute(&live)
        } else {
            let chunk = recomputed.div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = live
                    .chunks(chunk)
                    .map(|c| scope.spawn(move || recompute(c)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("family recompute worker panicked"))
                    .collect()
            })
        };
        // Retire the dropped profiles and every stored profile a changed
        // one replaces; an unchanged profile is neither rewritten nor
        // re-ranked.
        let mut retired: Vec<(Edge, EdgeProfiles)> = dead
            .iter()
            .filter_map(|e| self.profiles.remove(e.key()))
            .collect();
        let deleted = retired.len();
        let mut changed: Vec<Edge> = Vec::new();
        for (e, prof) in computed {
            if self
                .profiles
                .get(e.key())
                .is_some_and(|(_, old)| *old == prof)
            {
                continue;
            }
            retired.extend(self.profiles.insert(e.key(), (e, prof)));
            changed.push(e);
        }
        let current: Vec<&(Edge, EdgeProfiles)> = changed
            .iter()
            .map(|e| self.profiles.get(e.key()).expect("changed profile"))
            .collect();
        self.rankings.rerank(&retired, &current);
        let reranked = deleted + changed.len();
        esd_telemetry::add(
            esd_telemetry::Metric::FamilyRecomputedEdges,
            recomputed as u64,
        );
        esd_telemetry::add(esd_telemetry::Metric::FamilyRerankedEdges, reranked as u64);
        self.strict_audit();
        FamilyApplyReport {
            affected,
            recomputed,
            reranked,
        }
    }

    /// Top-`k` owned edges under `family` at threshold `tau`, ranked by
    /// [`ScoredEdge::ranking_cmp`] (score desc, edge asc — the same total
    /// order every component-based query uses, so per-shard answers merge
    /// byte-identically). Only positive scores are reported. A walk over
    /// the first `k` keys of one ranked run. Panics on `tau == 0` or
    /// [`Family::Component`] (served by the index, not the suite).
    #[must_use]
    pub fn query(&self, family: Family, k: usize, tau: u32) -> Vec<ScoredEdge> {
        assert!(tau >= 1, "component size threshold must be at least 1");
        assert!(
            family != Family::Component,
            "component queries are served by MaintainedIndex"
        );
        let _span = esd_telemetry::span(esd_telemetry::Stage::FamilyQuery);
        let rankings = &self.rankings;
        let out = match family {
            Family::Truss => rankings.truss.top_k(k, tau),
            Family::ParameterFree => rankings.pf.top_k(k),
            Family::EgoBetweenness => rankings.betweenness.top_k(k),
            Family::Component => unreachable!("refused above"),
        };
        esd_telemetry::add(esd_telemetry::Metric::FamilyQueries, 1);
        out
    }

    /// Runs [`FamilySuite::validate`] and panics with the full report
    /// under `strict-invariants` (or in this crate's unit tests).
    #[cfg(any(test, feature = "strict-invariants"))]
    fn strict_audit(&self) {
        crate::audit::assert_clean("FamilySuite", &self.validate());
    }

    /// No-op without `strict-invariants`.
    #[cfg(not(any(test, feature = "strict-invariants")))]
    #[inline(always)]
    fn strict_audit(&self) {}
}

/// Independent recompute oracles for the differential agreement harness.
///
/// Each oracle scores one edge from a **static** [`Graph`] through a code
/// path disjoint from the maintained kernels: the truss oracle materialises
/// the ego subgraph and runs the full bucket-peeling
/// [`truss_decomposition`](esd_graph::truss::truss_decomposition); the
/// betweenness oracle sums Brandes
/// [`edge_betweenness`](esd_graph::betweenness::edge_betweenness) over the
/// ego subgraph; the parameter-free oracle goes through the component
/// machinery of [`crate::score`]. Agreement between a maintained
/// [`FamilySuite`] and these oracles is therefore evidence the cheap
/// kernels compute the definitions, not merely themselves.
pub mod oracle {
    use super::{tau_star, Family, ScoredEdge};
    use crate::score::{component_sizes, naive_topk, score_from_sizes};
    use esd_graph::{Graph, VertexId};

    /// Materialises the ego subgraph `G_{N(uv)}` (induced on the common
    /// neighbourhood) as a standalone graph with local vertex ids.
    fn ego_subgraph(g: &Graph, u: VertexId, v: VertexId) -> Graph {
        let members = g.common_neighbors(u, v);
        esd_graph::subgraph::induced(g, &members).0
    }

    /// Sorted multiset of per-component 3-truss core sizes of the ego
    /// network, via full truss decomposition: a vertex is in the core iff
    /// it is incident to an edge of trussness ≥ 3.
    #[must_use]
    pub fn truss_core_sizes(g: &Graph, u: VertexId, v: VertexId) -> Vec<u32> {
        let ego = ego_subgraph(g, u, v);
        let trussness = esd_graph::truss::truss_decomposition(&ego);
        let mut in_core = vec![false; ego.num_vertices()];
        for (eid, e) in ego.edges().iter().enumerate() {
            if trussness[eid] >= 3 {
                in_core[e.u as usize] = true;
                in_core[e.v as usize] = true;
            }
        }
        let (labels, sizes) = esd_graph::traversal::connected_components(&ego);
        let mut cores = vec![0u32; sizes.len()];
        for (x, &l) in labels.iter().enumerate() {
            if in_core[x] {
                cores[l as usize] += 1;
            }
        }
        cores.retain(|&c| c > 0);
        cores.sort_unstable();
        cores
    }

    /// Truss-based diversity of `(u, v)` at threshold `tau`.
    #[must_use]
    pub fn truss_score(g: &Graph, u: VertexId, v: VertexId, tau: u32) -> u32 {
        score_from_sizes(&truss_core_sizes(g, u, v), tau)
    }

    /// Parameter-free diversity of `(u, v)`: the component score at
    /// `τ*(e)`, computed through the static component machinery.
    #[must_use]
    pub fn parameter_free_score(g: &Graph, u: VertexId, v: VertexId) -> u32 {
        let members = g.common_neighbors(u, v);
        score_from_sizes(&component_sizes(g, u, v), tau_star(members.len()))
    }

    /// Ego-betweenness mass of `(u, v)`: Brandes edge betweenness summed
    /// over the ego subgraph, rounded back to the exact integer it equals
    /// (`Σ_{s<t connected} d(s, t)`).
    #[must_use]
    pub fn ego_betweenness_score(g: &Graph, u: VertexId, v: VertexId) -> u32 {
        let ego = ego_subgraph(g, u, v);
        let total: f64 = esd_graph::betweenness::edge_betweenness(&ego).iter().sum();
        let mass = total.round();
        if mass >= f64::from(u32::MAX) {
            u32::MAX
        } else {
            mass as u32
        }
    }

    /// One edge's score under any family at threshold `tau`.
    #[must_use]
    pub fn score(g: &Graph, family: Family, u: VertexId, v: VertexId, tau: u32) -> u32 {
        match family {
            Family::Component => crate::score::edge_score(g, u, v, tau),
            Family::Truss => truss_score(g, u, v, tau),
            Family::ParameterFree => parameter_free_score(g, u, v),
            Family::EgoBetweenness => ego_betweenness_score(g, u, v),
        }
    }

    /// Reference top-k under any family: score every edge through the
    /// oracle, keep positives, rank by [`ScoredEdge::ranking_cmp`].
    #[must_use]
    pub fn topk(g: &Graph, family: Family, k: usize, tau: u32) -> Vec<ScoredEdge> {
        assert!(tau >= 1, "component size threshold must be at least 1");
        if family == Family::Component {
            return naive_topk(g, k, tau);
        }
        let mut scored: Vec<ScoredEdge> = g
            .edges()
            .iter()
            .map(|&edge| ScoredEdge {
                edge,
                score: score(g, family, edge.u, edge.v, tau),
            })
            .filter(|s| s.score > 0)
            .collect();
        scored.sort_by(ScoredEdge::ranking_cmp);
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use esd_graph::generators;

    fn suite_and_graph(seed: u64) -> (FamilySuite, Graph) {
        let g = generators::clique_overlap(80, 60, 4, seed);
        (FamilySuite::new(&g), g)
    }

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("pf"), Some(Family::ParameterFree));
        assert_eq!(Family::parse("betweenness"), Some(Family::EgoBetweenness));
        assert_eq!(Family::parse("nope"), None);
        assert_eq!(Family::default(), Family::Component);
    }

    #[test]
    fn tau_star_is_ceil_sqrt() {
        for (h, expect) in [(0, 1), (1, 1), (2, 2), (4, 2), (5, 3), (9, 3), (10, 4)] {
            assert_eq!(tau_star(h), expect, "h={h}");
        }
    }

    #[test]
    fn kernels_agree_with_oracles_on_fig1() {
        let (g, _) = fig1();
        let suite = FamilySuite::new(&g);
        for tau in 1..=4 {
            for family in Family::MAINTAINED {
                assert_eq!(
                    suite.query(family, usize::MAX, tau),
                    oracle::topk(&g, family, usize::MAX, tau),
                    "{family} tau={tau}"
                );
            }
        }
    }

    #[test]
    fn kernels_agree_with_oracles_on_surrogates() {
        for seed in [3, 17] {
            let (suite, g) = suite_and_graph(seed);
            for tau in [1, 2, 3] {
                for family in Family::MAINTAINED {
                    assert_eq!(
                        suite.query(family, usize::MAX, tau),
                        oracle::topk(&g, family, usize::MAX, tau),
                        "seed={seed} {family} tau={tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn truss_lower_bounds_component_and_pf_matches_tau_star() {
        let (_, g) = suite_and_graph(11);
        for e in g.edges() {
            for tau in 1..=4 {
                assert!(
                    oracle::truss_score(&g, e.u, e.v, tau)
                        <= crate::score::edge_score(&g, e.u, e.v, tau),
                    "truss exceeds component at {e:?} tau={tau}"
                );
            }
            let h = g.common_neighbors(e.u, e.v).len();
            assert_eq!(
                oracle::parameter_free_score(&g, e.u, e.v),
                crate::score::edge_score(&g, e.u, e.v, tau_star(h)),
                "pf disagrees with component at tau* for {e:?}"
            );
        }
    }

    #[test]
    fn apply_matches_rebuild_under_churn() {
        let (mut suite, g) = suite_and_graph(5);
        let mut dg = DynamicGraph::from_graph(&g);
        let edges = dg.edges();
        // A window mixing removals, duplicate inserts, and fresh inserts.
        let updates = vec![
            GraphUpdate::Remove(edges[0].u, edges[0].v),
            GraphUpdate::Remove(edges[7].u, edges[7].v),
            GraphUpdate::Insert(0, 79),
            GraphUpdate::Insert(edges[3].u, edges[3].v), // duplicate
            GraphUpdate::Insert(1, 200),                 // fresh vertex
        ];
        for u in &updates {
            let (a, b) = u.endpoints();
            if u.is_insert() {
                dg.ensure_vertex(a);
                dg.ensure_vertex(b);
                dg.insert_edge(a, b);
            } else {
                dg.remove_edge(a, b);
            }
        }
        let rebuilt = FamilySuite::rebuild(&dg, EdgeOwnership::ALL);
        for threads in [1, 3] {
            let mut maintained = suite.clone();
            let report = maintained.apply(&dg, &updates, threads);
            assert!(report.affected >= report.recomputed);
            assert!(report.reranked > 0 && report.reranked <= report.affected);
            // `PartialEq` compares the profiles and every ranked run.
            assert_eq!(maintained, rebuilt, "threads={threads}");
            assert_eq!(
                maintained.rankings.truss, rebuilt.rankings.truss,
                "threads={threads}"
            );
            assert_eq!(
                maintained.rankings.pf, rebuilt.rankings.pf,
                "threads={threads}"
            );
            assert_eq!(
                maintained.rankings.betweenness, rebuilt.rankings.betweenness,
                "threads={threads}"
            );
        }
        suite.apply(&dg, &updates, 2);
        assert_eq!(suite.len(), dg.num_edges());
    }

    /// Every edge of a clique on `vertices`.
    fn clique(vertices: std::ops::Range<VertexId>) -> Vec<(VertexId, VertexId)> {
        let vs: Vec<VertexId> = vertices.collect();
        let mut out = Vec::new();
        for (i, &a) in vs.iter().enumerate() {
            for &b in &vs[i + 1..] {
                out.push((a, b));
            }
        }
        out
    }

    #[test]
    fn a_window_seeds_one_core_size_and_reaps_another() {
        // Each edge of a K_n has a K_{n-2} ego network whose core is all
        // n - 2 members: K5 → core size 3, K6 → 4, K8 → 6.
        let mut edges = clique(0..5);
        edges.extend(clique(10..16));
        edges.extend(clique(20..28));
        let g = Graph::from_edges(28, &edges);
        let mut suite = FamilySuite::new(&g);
        assert_eq!(suite.rankings.truss.sizes().collect::<Vec<_>>(), [3, 4, 6]);
        // Growing the K5 to a K6 retires size 3; growing the K6 to a K7
        // creates size 5, which is seeded from the untouched K8's run 6.
        let updates: Vec<GraphUpdate> = (0..5)
            .map(|w| GraphUpdate::Insert(w, 5))
            .chain((10..16).map(|w| GraphUpdate::Insert(w, 16)))
            .collect();
        let mut dg = DynamicGraph::from_graph(&g);
        for u in &updates {
            let (a, b) = u.endpoints();
            dg.insert_edge(a, b);
        }
        let before = suite.clone();
        let report = suite.apply(&dg, &updates, 1);
        assert_eq!(suite.rankings.truss.sizes().collect::<Vec<_>>(), [4, 5, 6]);
        assert_eq!(suite, FamilySuite::rebuild(&dg, EdgeOwnership::ALL));
        // The K8 kept its profiles: only the two grown cliques re-ranked.
        assert_eq!(report.reranked, 15 + 21);
        let k8 = RankKey {
            score: 1,
            edge: Edge::new(20, 21),
        };
        assert!(suite.rankings.truss.runs[&5].iter().any(|key| key == k8));
        // The K8's own run is still the old suite's page.
        assert_eq!(
            suite.rankings.truss.runs[&6].pages_unshared_with(&before.rankings.truss.runs[&6]),
            0
        );
        let g2 = dg.to_graph();
        for tau in 1..=7 {
            assert_eq!(
                suite.query(Family::Truss, usize::MAX, tau),
                oracle::topk(&g2, Family::Truss, usize::MAX, tau),
                "tau={tau}"
            );
        }
    }

    #[test]
    fn unchanged_profiles_are_not_reranked() {
        let (mut suite, g) = suite_and_graph(13);
        let mut dg = DynamicGraph::from_graph(&g);
        // A pendant edge to a fresh vertex closes no triangle: its radius
        // is the new edge alone, and no other profile is recomputed.
        let update = GraphUpdate::Insert(0, 500);
        dg.ensure_vertex(500);
        dg.insert_edge(0, 500);
        let before = suite.clone();
        let report = suite.apply(&dg, &[update], 1);
        assert_eq!(report.recomputed, 1);
        assert_eq!(report.reranked, 1, "only the new edge is ranked");
        assert_eq!(suite.pages_unshared_with(&before), 1);
        assert_eq!(suite, FamilySuite::rebuild(&dg, EdgeOwnership::ALL));
        // Inside the radius, a recomputed profile can still come back
        // unchanged: re-inserting a removed edge gives every triangle edge
        // `(u, w)` back its member, often leaving its scores as they were.
        let skipped: usize = g
            .edges()
            .iter()
            .step_by(5)
            .map(|e| {
                let cut = [GraphUpdate::Remove(e.u, e.v)];
                dg.remove_edge(e.u, e.v);
                suite.apply(&dg, &cut, 1);
                let back = [GraphUpdate::Insert(e.u, e.v)];
                dg.insert_edge(e.u, e.v);
                let report = suite.apply(&dg, &back, 1);
                report.recomputed - report.reranked
            })
            .sum();
        assert!(skipped > 0, "no recomputed profile came back unchanged");
        assert_eq!(suite, FamilySuite::rebuild(&dg, EdgeOwnership::ALL));
    }

    #[test]
    fn large_windows_fan_out_and_match_rebuild() {
        let g = generators::clique_overlap(200, 160, 6, 31);
        let mut suite = FamilySuite::new(&g);
        let mut dg = DynamicGraph::from_graph(&g);
        let window: Vec<GraphUpdate> = g
            .edges()
            .iter()
            .step_by(20)
            .map(|e| GraphUpdate::Remove(e.u, e.v))
            .collect();
        for &update in &window {
            let (u, v) = update.endpoints();
            dg.remove_edge(u, v);
        }
        let report = suite.apply(&dg, &window, 2);
        assert!(
            report.recomputed >= crate::maintain::INLINE_RECOMPUTE,
            "{report:?} does not reach the worker path"
        );
        assert_eq!(suite, FamilySuite::rebuild(&dg, EdgeOwnership::ALL));
    }

    #[test]
    fn owned_suites_partition_the_full_suite() {
        let (full, g) = suite_and_graph(23);
        let shards = 3;
        let parts: Vec<FamilySuite> = (0..shards)
            .map(|i| FamilySuite::new_owned(&g, EdgeOwnership::of(i, shards)))
            .collect();
        assert_eq!(
            parts.iter().map(FamilySuite::len).sum::<usize>(),
            full.len()
        );
        // Merging per-shard rankings under the total order reproduces the
        // full ranking.
        for family in Family::MAINTAINED {
            let mut merged: Vec<ScoredEdge> = parts
                .iter()
                .flat_map(|p| p.query(family, usize::MAX, 1))
                .collect();
            merged.sort_by(ScoredEdge::ranking_cmp);
            assert_eq!(merged, full.query(family, usize::MAX, 1), "{family}");
        }
    }

    #[test]
    fn query_respects_k_and_positivity() {
        let (suite, _) = suite_and_graph(29);
        for family in Family::MAINTAINED {
            let all = suite.query(family, usize::MAX, 1);
            assert!(all.iter().all(|s| s.score > 0));
            let top3 = suite.query(family, 3, 1);
            assert_eq!(top3, all[..all.len().min(3)]);
        }
    }

    #[test]
    #[should_panic(expected = "served by MaintainedIndex")]
    fn component_queries_are_refused() {
        let (suite, _) = suite_and_graph(1);
        let _ = suite.query(Family::Component, 5, 1);
    }
}
