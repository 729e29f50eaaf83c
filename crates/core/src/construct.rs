//! One construction pass: the component index and every family profile
//! from one 4-clique enumeration, sliced per edge ownership.
//!
//! By Observation 1, `{u, v, w1, w2}` is a 4-clique exactly when `(w1, w2)`
//! is an edge of `G[N(uv)]`, so the pass that builds Algorithm 3's forests
//! sees every ego edge of every edge. [`Construction::new`] records them,
//! sorts them into one CSR over all common neighbourhoods and runs the
//! family profile kernel over each edge's window of it. A sharded fleet
//! builds one `Construction` and hands each engine its owned slice.

use crate::family::{EdgeProfiles, EgoCsr, KernelWork};
use crate::index::build::{self, FourCliqueArtifacts, Neighborhoods};
use crate::maintain::{EdgeOwnership, MaintainedIndex};
use crate::FamilySuite;
use esd_graph::{DynamicGraph, Edge, Graph};

/// What one construction pass over a graph leaves for slicing; its
/// orientation and ego-edge CSR are dropped before [`Construction::new`]
/// returns.
#[derive(Debug)]
pub struct Construction {
    /// The graph's adjacency, cloned (page pointers only) into each slice.
    g: DynamicGraph,
    /// The edges by id.
    edges: Vec<Edge>,
    /// Common neighbourhoods, forests and component sizes.
    pass: FourCliqueArtifacts,
    /// Every edge's family profiles, by edge id.
    profiles: Vec<EdgeProfiles>,
}

impl Construction {
    /// Runs the one 4-clique pass over `g` and computes every edge's
    /// family profiles from the ego edges it yields.
    #[must_use]
    pub fn new(g: &Graph) -> Self {
        let mut ego_edges: Vec<(u32, u32)> = Vec::new();
        let pass = build::four_clique_pass(g, |a, b| ego_edges.push((slot(a), slot(b))));
        let profiles = {
            let _span = esd_telemetry::span(esd_telemetry::Stage::BuildProfiles);
            profiles_from_ego_edges(&pass.nbr_offsets, ego_edges)
        };
        Self {
            g: DynamicGraph::from_graph(g),
            edges: g.edges().to_vec(),
            pass,
            profiles,
        }
    }

    /// The component index and family suite of the edges `ownership`
    /// owns; the index's graph is the whole graph.
    #[must_use]
    pub fn slice(&self, ownership: EdgeOwnership) -> (MaintainedIndex, FamilySuite) {
        let index = MaintainedIndex::from_pass(self.g.clone(), &self.edges, &self.pass, ownership);
        let owned = self
            .edges
            .iter()
            .zip(&self.profiles)
            .filter(|(e, _)| ownership.owns_key(e.key()))
            .map(|(&e, prof)| (e, prof.clone()));
        (index, FamilySuite::from_profiles(ownership, owned))
    }
}

/// Every edge's family profiles, by edge id, from a 4-clique pass that
/// builds no forests: once the ego edges are recorded, only the
/// neighbourhood offsets stay.
pub(crate) fn profiles(g: &Graph) -> Vec<EdgeProfiles> {
    let hoods = Neighborhoods::of(g);
    let mut ego_edges: Vec<(u32, u32)> = Vec::new();
    hoods.for_each_ego_edge(|e, x, y| {
        let base = hoods.offsets[e];
        ego_edges.push((slot(base + x), slot(base + y)));
    });
    let offsets = hoods.into_offsets();
    let _span = esd_telemetry::span(esd_telemetry::Stage::BuildProfiles);
    profiles_from_ego_edges(&offsets, ego_edges)
}

/// A global neighbourhood slot (or CSR position) as `u32`.
fn slot(i: usize) -> u32 {
    u32::try_from(i).expect("common neighbourhoods fit u32 slots")
}

/// Every edge's profiles from the pass's ego edges, each two global slots
/// of one neighbourhood. A counting sort makes one symmetric CSR over all
/// slots (`starts[a]` counts slot `a`'s degree, then its end, then down to
/// its start), and each edge's window is rebased to local indices just
/// before the kernel reads it.
fn profiles_from_ego_edges(nbr_offsets: &[usize], ego_edges: Vec<(u32, u32)>) -> Vec<EdgeProfiles> {
    let slots = *nbr_offsets.last().expect("m + 1 offsets");
    let mut starts = vec![0u32; slots + 1];
    for &(a, b) in &ego_edges {
        starts[a as usize] += 1;
        starts[b as usize] += 1;
    }
    let mut end = 0usize;
    for s in &mut starts[..slots] {
        end += *s as usize;
        *s = slot(end);
    }
    starts[slots] = slot(end);
    let mut adj = vec![0u32; end];
    for (a, b) in ego_edges {
        for (x, y) in [(a, b), (b, a)] {
            starts[x as usize] -= 1;
            adj[starts[x as usize] as usize] = y;
        }
    }
    let mut work = KernelWork::default();
    nbr_offsets
        .windows(2)
        .map(|w| {
            let (lo, hi) = (w[0], w[1]);
            let (window, base) = (starts[lo] as usize..starts[hi] as usize, slot(lo));
            for x in &mut adj[window] {
                *x -= base;
            }
            let ego = EgoCsr {
                offsets: &starts[lo..=hi],
                adj: &adj,
            };
            EdgeProfiles::from_ego(ego, &mut work)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::ProfileScratch;
    use esd_graph::generators;
    use proptest::prelude::*;

    /// The bulk profiles equal the per-edge recompute on every edge.
    fn assert_bulk_matches_per_edge(g: &Graph) {
        let built = Construction::new(g);
        let dg = DynamicGraph::from_graph(g);
        let mut scratch = ProfileScratch::default();
        for (e, prof) in built.edges.iter().zip(&built.profiles) {
            assert_eq!(
                *prof,
                EdgeProfiles::compute(&dg, e.u, e.v, &mut scratch),
                "{e}"
            );
        }
    }

    #[test]
    fn bulk_profiles_match_per_edge_on_surrogates() {
        for spec in esd_datasets::specs() {
            assert_bulk_matches_per_edge(&esd_datasets::load(spec.name, esd_datasets::Scale::Tiny));
        }
    }

    proptest! {
        #[test]
        fn bulk_profiles_match_per_edge(
            seed in 0u64..200,
            n in 2usize..80,
            groups in 1usize..60,
            size in 3usize..8,
        ) {
            assert_bulk_matches_per_edge(&generators::clique_overlap(n, groups, size, seed));
            assert_bulk_matches_per_edge(&generators::erdos_renyi(n, 0.3, seed));
        }
    }

    /// The observable state of two component indexes, forests included.
    fn assert_same_index(a: &MaintainedIndex, b: &MaintainedIndex, what: &str) {
        assert_eq!(a.ownership, b.ownership, "{what}");
        assert_eq!(a.g, b.g, "{what}");
        assert_eq!(a.lists, b.lists, "{what}");
        assert_eq!(a.forests.len(), b.forests.len(), "{what}");
        for (key, forest) in a.forests.iter() {
            let other = b.forests.get(key).expect("forest on both sides");
            assert_eq!(forest.nodes, other.nodes, "{what}: forest of {key}");
        }
    }

    #[test]
    fn fleet_slices_equal_per_shard_builds() {
        let g = generators::clique_overlap(90, 70, 6, 41);
        let built = Construction::new(&g);
        let dg = DynamicGraph::from_graph(&g);
        for shards in 1..=3 {
            for i in 0..shards {
                let own = EdgeOwnership::of(i, shards);
                let (index, families) = built.slice(own);
                let what = format!("shard {i} of {shards}");
                assert_same_index(&index, &MaintainedIndex::new_owned(&g, own), &what);
                assert_eq!(families, FamilySuite::rebuild(&dg, own), "{what}");
                index.check_consistency();
            }
        }
    }
}
