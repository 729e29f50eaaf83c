//! Structural invariant auditing for the graph substrate.
//!
//! Every graph structure exposes a `validate()` method returning a list of
//! typed, located [`GraphViolation`]s instead of panicking — an empty list
//! means every invariant holds. The validators re-derive each invariant from
//! first principles (they never trust a cached field to check another cached
//! field sourced from the same computation), so any single corrupted word is
//! caught by at least one check:
//!
//! * [`Graph::validate`] — CSR offsets monotone and bounded, adjacency lists
//!   strictly sorted, symmetric, self-loop free, and in exact bijection with
//!   the canonical edge array; `forward_offsets` equal to the recomputed
//!   partition points.
//! * [`DynamicGraph::validate`] — the same adjacency invariants for the
//!   mutable representation, plus the cached edge count.
//!
//! The `strict-invariants` cargo feature (also active in this crate's own
//! unit tests) runs these validators at construction boundaries and panics
//! with the full violation report on failure.

use crate::dynamic::ADJ_PAGE;
use crate::{DynamicGraph, Edge, Graph, VertexId};

/// One violated invariant of a graph structure, with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphViolation {
    /// `offsets` does not start at 0.
    OffsetsStart {
        /// The first offset found.
        actual: usize,
    },
    /// `offsets[vertex] > offsets[vertex + 1]`.
    OffsetsNotMonotone {
        /// The vertex whose range is reversed.
        vertex: VertexId,
    },
    /// The terminal offset does not equal the adjacency array length.
    OffsetsTerminal {
        /// Expected terminal offset (adjacency length).
        expected: usize,
        /// Terminal offset found.
        actual: usize,
    },
    /// A vertex lists itself as a neighbour.
    SelfLoop {
        /// The offending vertex.
        vertex: VertexId,
    },
    /// An adjacency list is not strictly ascending (unsorted or duplicate).
    AdjacencyNotSorted {
        /// The vertex whose list is out of order.
        vertex: VertexId,
        /// Position within the list where order breaks.
        position: usize,
    },
    /// A neighbour id is `>= n`.
    NeighborOutOfBounds {
        /// The vertex whose list contains the bad id.
        vertex: VertexId,
        /// The out-of-bounds neighbour id.
        neighbor: VertexId,
    },
    /// `v ∈ N(u)` but `u ∉ N(v)`.
    AsymmetricAdjacency {
        /// The vertex listing the neighbour.
        u: VertexId,
        /// The neighbour missing the back-reference.
        v: VertexId,
    },
    /// The edge array length disagrees with the adjacency half-sum.
    EdgeCountMismatch {
        /// Edge count implied by the adjacency lists.
        expected: usize,
        /// Stored edge count.
        actual: usize,
    },
    /// A stored edge has `u >= v`.
    EdgeNotCanonical {
        /// Edge id of the non-canonical edge.
        id: usize,
    },
    /// The canonical edge array is not strictly sorted at `id`.
    EdgesNotSorted {
        /// Edge id where order breaks (compared with its predecessor).
        id: usize,
    },
    /// A stored edge does not appear in the adjacency lists.
    EdgeMissingFromAdjacency {
        /// Edge id of the unmatched edge.
        id: usize,
    },
    /// `forward_offsets[vertex]` differs from the recomputed partition point.
    ForwardOffsetMismatch {
        /// Index into `forward_offsets`.
        vertex: VertexId,
        /// Recomputed partition point.
        expected: usize,
        /// Stored value.
        actual: usize,
    },
    /// `forward_offsets` has the wrong length.
    ForwardOffsetsArity {
        /// Expected length (`n + 1`).
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A [`DynamicGraph`] adjacency page has the wrong number of lists:
    /// every page but the last must hold exactly [`ADJ_PAGE`], the last
    /// between 1 and that.
    AdjacencyPageShape {
        /// Index of the malformed page.
        page: usize,
        /// Lists it holds.
        lists: usize,
    },
}

impl std::fmt::Display for GraphViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OffsetsStart { actual } => {
                write!(f, "offsets must start at 0, found {actual}")
            }
            Self::OffsetsNotMonotone { vertex } => {
                write!(f, "offsets decrease at vertex {vertex}")
            }
            Self::OffsetsTerminal { expected, actual } => {
                write!(
                    f,
                    "terminal offset is {actual}, adjacency holds {expected} slots"
                )
            }
            Self::SelfLoop { vertex } => write!(f, "vertex {vertex} lists itself as a neighbour"),
            Self::AdjacencyNotSorted { vertex, position } => {
                write!(
                    f,
                    "adjacency of vertex {vertex} not strictly ascending at position {position}"
                )
            }
            Self::NeighborOutOfBounds { vertex, neighbor } => {
                write!(
                    f,
                    "vertex {vertex} lists out-of-bounds neighbour {neighbor}"
                )
            }
            Self::AsymmetricAdjacency { u, v } => {
                write!(f, "{v} ∈ N({u}) but {u} ∉ N({v})")
            }
            Self::EdgeCountMismatch { expected, actual } => {
                write!(
                    f,
                    "edge array holds {actual} edges, adjacency implies {expected}"
                )
            }
            Self::EdgeNotCanonical { id } => write!(f, "edge {id} is not canonical (u >= v)"),
            Self::EdgesNotSorted { id } => write!(f, "edge array not strictly sorted at id {id}"),
            Self::EdgeMissingFromAdjacency { id } => {
                write!(f, "edge {id} is absent from the adjacency lists")
            }
            Self::ForwardOffsetMismatch {
                vertex,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "forward_offsets[{vertex}] is {actual}, recomputation gives {expected}"
                )
            }
            Self::ForwardOffsetsArity { expected, actual } => {
                write!(
                    f,
                    "forward_offsets has length {actual}, expected {expected}"
                )
            }
            Self::AdjacencyPageShape { page, lists } => {
                write!(f, "adjacency page {page} holds {lists} lists")
            }
        }
    }
}

/// Audits the adjacency invariants shared by both graph representations:
/// strictly sorted lists, no self-loops, neighbour ids in bounds.
fn adjacency_violations<'a>(
    n: usize,
    lists: impl Iterator<Item = &'a [VertexId]>,
    out: &mut Vec<GraphViolation>,
) {
    for (u, list) in lists.enumerate() {
        let u = u as VertexId;
        for (i, &w) in list.iter().enumerate() {
            if w == u {
                out.push(GraphViolation::SelfLoop { vertex: u });
            }
            if (w as usize) >= n {
                out.push(GraphViolation::NeighborOutOfBounds {
                    vertex: u,
                    neighbor: w,
                });
            }
            if i > 0 && list[i - 1] >= w {
                out.push(GraphViolation::AdjacencyNotSorted {
                    vertex: u,
                    position: i,
                });
            }
        }
    }
}

impl Graph {
    /// Audits every structural invariant of the CSR representation,
    /// returning all violations found (empty = sound). `O(n + m·log d)`.
    pub fn validate(&self) -> Vec<GraphViolation> {
        let mut out = Vec::new();
        let n = self.num_vertices();

        // Offsets: start at 0, monotone, terminal == neighbour count.
        if self.offsets.first() != Some(&0) {
            out.push(GraphViolation::OffsetsStart {
                actual: self.offsets.first().copied().unwrap_or(usize::MAX),
            });
        }
        for (u, w) in self.offsets.windows(2).enumerate() {
            if w[0] > w[1] {
                out.push(GraphViolation::OffsetsNotMonotone {
                    vertex: u as VertexId,
                });
            }
        }
        if self.offsets.last() != Some(&self.neighbors.len()) {
            out.push(GraphViolation::OffsetsTerminal {
                expected: self.neighbors.len(),
                actual: self.offsets.last().copied().unwrap_or(usize::MAX),
            });
        }
        if !out.is_empty() {
            // Slicing by corrupt offsets below would panic; the offsets
            // violations already locate the fault.
            return out;
        }

        adjacency_violations(n, (0..n as VertexId).map(|u| self.neighbors(u)), &mut out);

        // Symmetry: every directed slot must have its mirror.
        for u in 0..n as VertexId {
            for &w in self.neighbors(u) {
                if (w as usize) < n && self.neighbors(w).binary_search(&u).is_err() {
                    out.push(GraphViolation::AsymmetricAdjacency { u, v: w });
                }
            }
        }

        // Canonical edge array: strictly sorted canonical pairs, in exact
        // bijection with the adjacency lists.
        if 2 * self.edges.len() != self.neighbors.len() {
            out.push(GraphViolation::EdgeCountMismatch {
                expected: self.neighbors.len() / 2,
                actual: self.edges.len(),
            });
        }
        for (id, e) in self.edges.iter().enumerate() {
            if e.u >= e.v {
                out.push(GraphViolation::EdgeNotCanonical { id });
                continue;
            }
            if id > 0 && self.edges[id - 1] >= *e {
                out.push(GraphViolation::EdgesNotSorted { id });
            }
            let present = (e.u as usize) < n
                && (e.v as usize) < n
                && self.neighbors(e.u).binary_search(&e.v).is_ok();
            if !present {
                out.push(GraphViolation::EdgeMissingFromAdjacency { id });
            }
        }

        // forward_offsets must equal the recomputed per-vertex partition
        // points of the edge array.
        if self.forward_offsets.len() != n + 1 {
            out.push(GraphViolation::ForwardOffsetsArity {
                expected: n + 1,
                actual: self.forward_offsets.len(),
            });
        } else {
            let mut expected = 0usize;
            for u in 0..=n {
                while expected < self.edges.len() && (self.edges[expected].u as usize) < u {
                    expected += 1;
                }
                // forward_offsets[u] = first edge id with smaller endpoint >= u.
                if u > 0 && self.forward_offsets[u] != expected {
                    out.push(GraphViolation::ForwardOffsetMismatch {
                        vertex: u as VertexId,
                        expected,
                        actual: self.forward_offsets[u],
                    });
                }
            }
            if self.forward_offsets[0] != 0 {
                out.push(GraphViolation::ForwardOffsetMismatch {
                    vertex: 0,
                    expected: 0,
                    actual: self.forward_offsets[0],
                });
            }
        }
        out
    }
}

impl DynamicGraph {
    /// Audits the mutable adjacency representation: the page shape (every
    /// page but the last full, the last non-empty), strictly sorted,
    /// self-loop-free, in-bounds, symmetric lists and a correct cached edge
    /// count. Returns all violations found (empty = sound).
    pub fn validate(&self) -> Vec<GraphViolation> {
        let mut out = Vec::new();
        let last = self.pages.len().saturating_sub(1);
        for (page, lists) in self.pages.iter().map(|p| p.len()).enumerate() {
            let full = lists == ADJ_PAGE;
            if !(full || page == last && (1..ADJ_PAGE).contains(&lists)) {
                out.push(GraphViolation::AdjacencyPageShape { page, lists });
            }
        }
        if !out.is_empty() {
            // The vertex count and the per-vertex checks below assume the
            // page shape.
            return out;
        }
        let n = self.num_vertices();
        adjacency_violations(n, (0..n as VertexId).map(|u| self.neighbors(u)), &mut out);
        let mut slots = 0usize;
        for u in 0..n as VertexId {
            slots += self.degree(u);
            for &w in self.neighbors(u) {
                if (w as usize) < n && self.neighbors(w).binary_search(&u).is_err() {
                    out.push(GraphViolation::AsymmetricAdjacency { u, v: w });
                }
            }
        }
        if 2 * self.num_edges() != slots {
            out.push(GraphViolation::EdgeCountMismatch {
                expected: slots / 2,
                actual: self.num_edges(),
            });
        }
        out
    }
}

/// Panics with a formatted report when `violations` is non-empty; the
/// assertion hook used by the `strict-invariants` boundaries.
pub fn assert_clean<V: std::fmt::Display>(structure: &str, violations: &[V]) {
    assert!(
        violations.is_empty(),
        "{structure} failed its invariant audit ({} violation(s)):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  - {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Re-derives an [`Edge`] array's sortedness quickly; shared helper for
/// callers auditing external edge lists.
pub fn edges_strictly_sorted(edges: &[Edge]) -> bool {
    edges.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn clean_graphs_have_no_violations() {
        for g in [
            Graph::from_edges(0, &[]),
            Graph::from_edges(10, &[(3, 7)]),
            generators::erdos_renyi(60, 0.15, 3),
            generators::complete(8),
        ] {
            assert_eq!(g.validate(), Vec::new());
            assert_eq!(DynamicGraph::from_graph(&g).validate(), Vec::new());
        }
    }

    #[test]
    fn detects_unsorted_adjacency() {
        let mut g = generators::complete(5);
        g.neighbors.swap(0, 1);
        let v = g.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, GraphViolation::AdjacencyNotSorted { vertex: 0, .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn detects_self_loop() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        g.neighbors[0] = 0; // N(0) = [0] instead of [1]
        let v = g.validate();
        assert!(
            v.contains(&GraphViolation::SelfLoop { vertex: 0 }),
            "got {v:?}"
        );
    }

    #[test]
    fn detects_asymmetry_and_out_of_bounds() {
        let mut g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        g.neighbors[0] = 2; // N(0) = [2] but N(2) has no 0
        let v = g.validate();
        assert!(
            v.contains(&GraphViolation::AsymmetricAdjacency { u: 0, v: 2 }),
            "got {v:?}"
        );
        let mut g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        g.neighbors[0] = 99;
        let v = g.validate();
        assert!(
            v.contains(&GraphViolation::NeighborOutOfBounds {
                vertex: 0,
                neighbor: 99
            }),
            "got {v:?}"
        );
    }

    #[test]
    fn detects_bad_offsets() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        g.offsets[1] = 5; // exceeds offsets[2]
        let v = g.validate();
        assert!(
            v.contains(&GraphViolation::OffsetsNotMonotone { vertex: 1 }),
            "got {v:?}"
        );
    }

    #[test]
    fn detects_forward_offset_corruption() {
        let mut g = generators::complete(5);
        g.forward_offsets[2] += 1;
        let v = g.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, GraphViolation::ForwardOffsetMismatch { vertex: 2, .. })),
            "got {v:?}"
        );
    }

    #[test]
    fn detects_edge_array_corruption() {
        let mut g = generators::complete(4);
        g.edges[1] = Edge { u: 3, v: 1 }; // non-canonical
        let v = g.validate();
        assert!(
            v.contains(&GraphViolation::EdgeNotCanonical { id: 1 }),
            "got {v:?}"
        );

        let mut g = generators::complete(4);
        g.edges.swap(0, 2);
        let v = g.validate();
        assert!(
            v.iter()
                .any(|x| matches!(x, GraphViolation::EdgesNotSorted { .. })),
            "got {v:?}"
        );

        let mut g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        g.edges[0] = Edge { u: 0, v: 4 }; // points at a pair absent from adjacency
        let v = g.validate();
        assert!(
            v.contains(&GraphViolation::EdgeMissingFromAdjacency { id: 0 }),
            "got {v:?}"
        );
    }

    #[test]
    fn dynamic_graph_detects_count_and_symmetry_faults() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(0, 1);
        g.insert_edge(1, 2);
        assert_eq!(g.validate(), Vec::new());
        g.m = 7;
        let v = g.validate();
        assert!(
            v.contains(&GraphViolation::EdgeCountMismatch {
                expected: 2,
                actual: 7
            }),
            "got {v:?}"
        );
        let mut g = DynamicGraph::new(3);
        g.insert_edge(0, 1);
        g.list_mut(1).clear(); // break symmetry; count also off
        let v = g.validate();
        assert!(
            v.contains(&GraphViolation::AsymmetricAdjacency { u: 0, v: 1 }),
            "got {v:?}"
        );
    }

    #[test]
    fn dynamic_graph_detects_page_shape_faults() {
        let mut g = DynamicGraph::new(2 * ADJ_PAGE + 1);
        assert_eq!(g.validate(), Vec::new());
        std::sync::Arc::make_mut(&mut g.pages[0]).pop();
        let v = g.validate();
        assert_eq!(
            v,
            vec![GraphViolation::AdjacencyPageShape {
                page: 0,
                lists: ADJ_PAGE - 1
            }]
        );
        let mut g = DynamicGraph::new(ADJ_PAGE);
        g.pages.push(std::sync::Arc::new(Vec::new()));
        let v = g.validate();
        assert_eq!(
            v,
            vec![GraphViolation::AdjacencyPageShape { page: 1, lists: 0 }]
        );
    }

    #[test]
    fn assert_clean_formats_report() {
        assert_clean::<GraphViolation>("graph", &[]);
        let err = std::panic::catch_unwind(|| {
            assert_clean("graph", &[GraphViolation::SelfLoop { vertex: 3 }]);
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("graph failed"), "got {msg}");
        assert!(msg.contains("vertex 3"), "got {msg}");
    }

    #[test]
    fn sorted_helper() {
        assert!(edges_strictly_sorted(&[Edge::new(0, 1), Edge::new(0, 2)]));
        assert!(!edges_strictly_sorted(&[Edge::new(0, 2), Edge::new(0, 1)]));
    }
}
