//! Graph substrate for top-k edge structural diversity search.
//!
//! This crate provides everything the ESD algorithms (crate `esd-core`) need
//! from a graph engine, built from scratch:
//!
//! * [`Graph`] — an immutable CSR graph with sorted adjacency lists and
//!   canonical edge ids, plus [`GraphBuilder`] for safe construction.
//! * [`DynamicGraph`] — a mutable adjacency-vector graph for the index
//!   maintenance algorithms (edge insertion / deletion).
//! * [`ordering`] — the paper's degree ordering `≺`, degeneracy ordering,
//!   and DAG orientation.
//! * [`intersect`] — sorted-set intersection kernels (merge / galloping),
//!   dispatched on the ratio of the two list lengths.
//! * [`traversal`] — BFS and connected components.
//! * [`triangles`] / [`cliques`] — oriented triangle listing and
//!   Chiba–Nishizeki-style k-clique enumeration (the 4-clique enumerator at
//!   the heart of Algorithm 3).
//! * [`betweenness`] — Brandes edge betweenness (the `BT` case-study baseline).
//! * [`generators`] — deterministic synthetic graph models (ER, BA, RMAT,
//!   clique-overlap collaboration graphs, planted partitions, word networks).
//! * [`io`] — SNAP-style edge-list reading and writing.
//! * [`subgraph`] — random edge / vertex sampling for scalability studies.
//! * [`metrics`] — `n`, `m`, `d_max`, degeneracy and arboricity bounds
//!   (Table I statistics).

#![warn(missing_docs)]

pub mod audit;
pub mod betweenness;
pub mod builder;
pub mod cliques;
pub mod dot;
pub mod dynamic;
pub mod generators;
pub mod graph;
pub mod intersect;
pub mod io;
pub mod metrics;
pub mod ordering;
pub mod subgraph;
pub mod traversal;
pub mod triangles;
pub mod truss;

pub use builder::GraphBuilder;
pub use dynamic::DynamicGraph;
pub use graph::{EdgeId, Graph, VertexId};
pub use ordering::{DegreeOrder, OrientedGraph};

/// An undirected edge as an (unordered) vertex pair, stored canonically with
/// the smaller endpoint first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
}

impl Edge {
    /// Canonicalises `(a, b)` so that `u <= v`.
    ///
    /// # Panics
    /// Panics if `a == b` (self-loops are not valid edges).
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert_ne!(a, b, "self-loops are not valid edges");
        if a < b {
            Self { u: a, v: b }
        } else {
            Self { u: b, v: a }
        }
    }

    /// The endpoint that is not `x`.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else {
            assert_eq!(x, self.v, "vertex {x} is not an endpoint of {self:?}");
            self.u
        }
    }

    /// Packs the edge into a single `u64` key (useful for hash maps).
    pub fn key(&self) -> u64 {
        (u64::from(self.u) << 32) | u64::from(self.v)
    }

    /// Inverse of [`Self::key`].
    pub fn from_key(key: u64) -> Self {
        Self {
            u: (key >> 32) as VertexId,
            v: key as u32,
        }
    }
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_is_canonical() {
        assert_eq!(Edge::new(5, 2), Edge::new(2, 5));
        assert_eq!(Edge::new(5, 2).u, 2);
        assert_eq!(Edge::new(5, 2).v, 5);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(3, 3);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(1, 9);
        assert_eq!(e.other(1), 9);
        assert_eq!(e.other(9), 1);
    }

    #[test]
    fn edge_key_roundtrip() {
        let e = Edge::new(123_456, 789);
        assert_eq!(Edge::from_key(e.key()), e);
    }
}
