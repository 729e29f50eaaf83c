//! Top-k edge structural diversity search — the algorithms of
//! *"Efficient Top-k Edge Structural Diversity Search"* (ICDE 2020).
//!
//! The **structural diversity** `score_τ(u, v)` of an edge is the number of
//! connected components of its ego-network `G_{N(uv)}` (the subgraph induced
//! by the common neighbourhood of `u` and `v`) that contain at least `τ`
//! vertices. Given `k` and `τ`, the task is to report the `k` edges with
//! the highest scores.
//!
//! Three solutions are implemented, mirroring the paper:
//!
//! * [`score`] — exact per-edge scores by BFS over the ego-network, and the
//!   naive all-edges baseline.
//! * [`online`] — the *dequeue-twice* search framework (Algorithm 1) with
//!   the min-degree and common-neighbour upper bounds ([`bounds`]):
//!   `OnlineBFS` and `OnlineBFS+`.
//! * [`index`] — the `ESDIndex` (§IV): near-optimal `O(k log m + log n)`
//!   queries from an `O(αm)`-space structure, built either by per-edge BFS
//!   (Algorithm 2), by 4-clique enumeration with union–find (Algorithm 3),
//!   or in parallel (PESDIndex+, §IV-E).
//! * [`maintain`] — dynamic maintenance of the index under edge insertions
//!   (Algorithm 4) and deletions (Algorithm 5).
//!
//! Additional modules: [`cow`] (the copy-on-write edge map that lets a
//! served snapshot share the maintained state's pages), [`baselines`]
//! (the CN / BT rankings used by the paper's case studies), [`vertex_sd`]
//! (the earlier top-k *vertex* structural diversity problem, for
//! context/comparison), and [`fixtures`]
//! (a faithful reconstruction of the paper's running-example graph used by
//! the golden tests).
//!
//! ## Result conventions
//!
//! All top-k routines return results sorted by `(score desc, edge asc)` and
//! report only edges with **positive** score: an edge whose ego-network has
//! no component of size ≥ τ carries no structural-diversity signal, and the
//! index cannot (and per the paper, does not) store score-0 entries. A
//! result may therefore contain fewer than `k` edges.

#![warn(missing_docs)]

pub mod audit;
pub mod baselines;
pub mod bounds;
pub mod construct;
pub mod cow;
pub mod explain;
pub mod family;
pub mod fixtures;
pub mod index;
pub mod maintain;
pub mod online;
pub mod score;
pub mod vertex_sd;

pub use construct::Construction;
pub use family::{Family, FamilyApplyReport, FamilySuite};
pub use index::EsdIndex;
pub use maintain::{EdgeOwnership, MaintainedIndex};
pub use online::{online_topk, UpperBound};

use esd_graph::Edge;

/// An edge together with its structural diversity score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScoredEdge {
    /// The edge (canonical orientation).
    pub edge: Edge,
    /// Its structural diversity at the query threshold.
    pub score: u32,
}

impl ScoredEdge {
    /// The total order used for all top-k results: higher score first,
    /// ties broken by ascending edge id — making every algorithm in this
    /// crate return byte-identical rankings.
    pub fn ranking_cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .cmp(&self.score)
            .then_with(|| self.edge.cmp(&other.edge))
    }
}

impl std::fmt::Display for ScoredEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.edge, self.score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_order() {
        let a = ScoredEdge {
            edge: Edge::new(0, 1),
            score: 3,
        };
        let b = ScoredEdge {
            edge: Edge::new(0, 2),
            score: 3,
        };
        let c = ScoredEdge {
            edge: Edge::new(0, 1),
            score: 5,
        };
        let mut v = vec![b, a, c];
        v.sort_by(ScoredEdge::ranking_cmp);
        assert_eq!(v, vec![c, a, b]);
    }
}
