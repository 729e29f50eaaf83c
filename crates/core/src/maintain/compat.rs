//! Forwarders from the retired batch pipeline's API to the one write path.
//! The frozen benchmark harness still builds against three items of it, so
//! each stays, hidden from the docs, until the harness's next change:
//! `esdbench/src/layers.rs:257` calls
//! [`MaintainedIndex::apply_batch_parallel`] (here) and reads its report,
//! `esdbench/src/layers.rs:263` calls the three-argument
//! [`FamilySuite::apply`](crate::FamilySuite::apply) (here), and
//! `esdbench/src/workloads.rs:99` sets `ServiceConfig::pipeline_threads`
//! in `esd-serve`, which nothing reads.

use super::{BatchStats, GraphUpdate, MaintainedIndex};

/// What [`MaintainedIndex::apply_batch_parallel`] returns.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineOutcome {
    /// The window's applied/noop/rejected totals.
    pub stats: BatchStats,
    /// The window's work counts.
    pub report: PipelineReport,
}

/// The work counts of one window, in the retired pipeline's shape.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    /// `1` when the window applied an update, else `0`.
    pub groups: usize,
    /// The owned keys of the window's radius.
    pub recomputed_edges: u64,
    /// The window's union operations, as a single entry.
    pub union_ops_per_worker: Vec<u64>,
}

impl MaintainedIndex {
    /// [`apply_window`](Self::apply_window) under the retired pipeline's
    /// name; `_threads` is ignored.
    #[doc(hidden)]
    pub fn apply_batch_parallel(
        &mut self,
        updates: &[GraphUpdate],
        _threads: usize,
    ) -> PipelineOutcome {
        let window = self.apply_window(updates);
        let owned = window
            .radius
            .iter()
            .filter(|&&key| self.ownership.owns_key(key))
            .count();
        PipelineOutcome {
            stats: window.stats,
            report: PipelineReport {
                groups: usize::from(window.stats.applied > 0),
                recomputed_edges: owned as u64,
                union_ops_per_worker: vec![window.union_ops],
            },
        }
    }
}

impl crate::FamilySuite {
    /// [`apply_window`](Self::apply_window) under its old three-argument
    /// signature; `_threads` is ignored.
    #[doc(hidden)]
    pub fn apply(
        &mut self,
        g: &esd_graph::DynamicGraph,
        updates: &[GraphUpdate],
        _threads: usize,
    ) -> crate::FamilyApplyReport {
        self.apply_window(g, updates)
    }
}
