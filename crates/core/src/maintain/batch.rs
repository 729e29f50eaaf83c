//! The batch-mutation vocabulary of the write path: per-update
//! [`UpdateDisposition`]s, the [`BatchStats`] roll-up returned by
//! [`MaintainedIndex::apply_batch`](super::MaintainedIndex::apply_batch) and
//! [`apply_window`](super::MaintainedIndex::apply_window), and the
//! [`MutationBatch`] builder that `esd-serve` and the
//! CLI hand to
//! [`ServiceHandle::submit`](../../../esd_serve/struct.ServiceHandle.html).
//!
//! `MutationBatch` is where intra-batch redundancy dies: at most one
//! operation per edge survives — the **last** one queued (last-writer-wins).
//! That elision is sound in every initial graph state because insert and
//! remove are idempotent *ensure* operations: the edge's final presence —
//! and therefore, by the ego-network invariant, the final index state — is
//! fully determined by the last operation targeting it, regardless of what
//! came before. Note that an opposite pair must **not** cancel to nothing:
//! for an edge that already exists, insert-then-remove nets to a removal
//! (the insert is a no-op), so the remove has to survive; symmetrically,
//! remove-then-insert of an absent edge nets to an insertion. Self-loops
//! are deliberately *not* deduplicated: they are structurally invalid and
//! must flow through so the apply path can report them as `rejected`
//! rather than silently vanish.

use super::GraphUpdate;
use esd_graph::{Edge, VertexId};
use std::collections::HashMap;

/// How the apply path handled one update of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateDisposition {
    /// The update changed the graph and the index was repaired.
    Applied,
    /// The graph already satisfied the request (duplicate insert, missing
    /// removal, or out-of-range endpoint on a removal).
    Noop,
    /// The update is structurally invalid (a self-loop) and can never apply.
    Rejected,
}

/// Per-batch roll-up of [`UpdateDisposition`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Updates that changed the graph.
    pub applied: usize,
    /// Updates the graph already satisfied.
    pub noop: usize,
    /// Structurally invalid updates.
    pub rejected: usize,
}

impl BatchStats {
    /// Total updates that did not change the graph (`noop + rejected`) —
    /// the quantity the pre-split API reported as "skipped".
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.noop + self.rejected
    }

    /// Tallies a slice of dispositions.
    #[must_use]
    pub fn from_dispositions(dispositions: &[UpdateDisposition]) -> Self {
        let mut stats = BatchStats::default();
        for d in dispositions {
            match d {
                UpdateDisposition::Applied => stats.applied += 1,
                UpdateDisposition::Noop => stats.noop += 1,
                UpdateDisposition::Rejected => stats.rejected += 1,
            }
        }
        stats
    }
}

impl std::ops::AddAssign for BatchStats {
    fn add_assign(&mut self, rhs: Self) {
        self.applied += rhs.applied;
        self.noop += rhs.noop;
        self.rejected += rhs.rejected;
    }
}

/// An ordered, deduplicated batch of [`GraphUpdate`]s — the single mutation
/// vocabulary of the `esd` facade.
///
/// Built up via [`insert`](MutationBatch::insert) /
/// [`remove`](MutationBatch::remove) / [`push`](MutationBatch::push): only
/// the last-queued operation per edge survives (a newer opposite operation
/// supersedes the pending one in place, a repeat is absorbed), and order
/// among survivors is preserved. [`from_raw`](MutationBatch::from_raw)
/// wraps a update list verbatim (no coalescing) for callers that need
/// exact per-update accounting — the deprecated `apply`/`apply_before`
/// wrappers use it.
///
/// # Examples
///
/// ```
/// use esd_core::maintain::MutationBatch;
///
/// let mut batch = MutationBatch::new();
/// batch.insert(3, 7);
/// batch.remove(3, 7); // supersedes the insert: only the remove survives
/// batch.insert(1, 2);
/// batch.insert(2, 1); // duplicate of pending (1,2) — absorbed
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MutationBatch {
    /// Surviving updates in first-queued order; at most one per edge
    /// (plus any self-loops, which bypass coalescing).
    updates: Vec<GraphUpdate>,
    /// Canonical edge key → index in `updates` of the pending operation
    /// on that edge, if any.
    pending: HashMap<u64, usize>,
}

impl MutationBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps `updates` verbatim, without any coalescing — every element
    /// reaches the apply path and gets its own disposition.
    #[must_use]
    pub fn from_raw(updates: Vec<GraphUpdate>) -> Self {
        Self {
            updates,
            pending: HashMap::new(),
        }
    }

    /// Queues an edge insertion (coalescing against pending operations).
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.push(GraphUpdate::Insert(u, v))
    }

    /// Queues an edge removal (coalescing against pending operations).
    pub fn remove(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.push(GraphUpdate::Remove(u, v))
    }

    /// Queues `update`, coalescing last-writer-wins against the pending
    /// operation on the same edge: the newer operation replaces the pending
    /// one in place (an identical repeat is thereby absorbed). The pending
    /// pair must *not* cancel to nothing — insert and remove are idempotent
    /// ensure-ops, so e.g. insert-then-remove of an edge that already
    /// exists nets to a removal, not a no-op. Self-loops bypass coalescing
    /// entirely (they have no canonical edge key and must surface as
    /// `rejected`).
    pub fn push(&mut self, update: GraphUpdate) -> &mut Self {
        let (u, v) = update.endpoints();
        if u == v {
            self.updates.push(update);
            return self;
        }
        let key = Edge::new(u, v).key();
        match self.pending.get(&key) {
            Some(&slot) => {
                // Last-writer-wins: the edge's final presence is decided
                // entirely by the most recent ensure-op. An identical
                // repeat (same kind, either orientation) is absorbed
                // without disturbing the stored representation.
                if self.updates[slot].is_insert() != update.is_insert() {
                    self.updates[slot] = update;
                }
            }
            None => {
                self.pending.insert(key, self.updates.len());
                self.updates.push(update);
            }
        }
        self
    }

    /// Number of surviving updates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether no updates survive.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The surviving updates, in queue order.
    #[must_use]
    pub fn into_updates(self) -> Vec<GraphUpdate> {
        self.updates
    }

    /// The surviving updates without consuming the batch.
    #[must_use]
    pub fn updates(&self) -> Vec<GraphUpdate> {
        self.updates.clone()
    }
}

impl From<Vec<GraphUpdate>> for MutationBatch {
    /// Coalescing construction from a plain update list; use
    /// [`MutationBatch::from_raw`] to skip coalescing.
    fn from(updates: Vec<GraphUpdate>) -> Self {
        let mut batch = MutationBatch::new();
        for u in updates {
            batch.push(u);
        }
        batch
    }
}

impl FromIterator<GraphUpdate> for MutationBatch {
    fn from_iter<I: IntoIterator<Item = GraphUpdate>>(iter: I) -> Self {
        let mut batch = MutationBatch::new();
        for u in iter {
            batch.push(u);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::super::MaintainedIndex;
    use super::*;
    use crate::fixtures::fig1;

    #[test]
    fn insert_then_remove_keeps_the_remove() {
        let mut b = MutationBatch::new();
        b.insert(1, 2).remove(2, 1);
        assert_eq!(b.into_updates(), vec![GraphUpdate::Remove(2, 1)]);
    }

    #[test]
    fn remove_then_insert_keeps_the_insert() {
        let mut b = MutationBatch::new();
        b.remove(4, 9).insert(4, 9);
        assert_eq!(b.into_updates(), vec![GraphUpdate::Insert(4, 9)]);
    }

    #[test]
    fn duplicates_are_absorbed_and_order_preserved() {
        let mut b = MutationBatch::new();
        b.insert(1, 2).insert(3, 4).insert(2, 1).remove(5, 6);
        assert_eq!(
            b.updates(),
            vec![
                GraphUpdate::Insert(1, 2),
                GraphUpdate::Insert(3, 4),
                GraphUpdate::Remove(5, 6),
            ]
        );
    }

    #[test]
    fn each_new_op_supersedes_the_pending_one_in_place() {
        let mut b = MutationBatch::new();
        b.insert(1, 2).remove(1, 2).insert(1, 2);
        assert_eq!(b.updates(), vec![GraphUpdate::Insert(1, 2)]);
        let mut b = MutationBatch::new();
        b.insert(1, 2).insert(3, 4).remove(1, 2);
        // The survivor keeps the edge's original queue position.
        assert_eq!(
            b.updates(),
            vec![GraphUpdate::Remove(1, 2), GraphUpdate::Insert(3, 4)]
        );
    }

    #[test]
    fn self_loops_flow_through_uncoalesced() {
        let mut b = MutationBatch::new();
        b.insert(5, 5).remove(5, 5).insert(5, 5);
        assert_eq!(b.len(), 3, "self-loops must reach the apply path");
        let (g, _) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let stats = index.apply_batch(&b.into_updates());
        assert_eq!((stats.applied, stats.noop, stats.rejected), (0, 0, 3));
    }

    #[test]
    fn from_raw_preserves_every_update() {
        let raw = vec![
            GraphUpdate::Insert(1, 2),
            GraphUpdate::Remove(1, 2),
            GraphUpdate::Insert(1, 2),
        ];
        let b = MutationBatch::from_raw(raw.clone());
        assert_eq!(b.len(), 3);
        assert_eq!(b.into_updates(), raw);
    }

    #[test]
    fn coalesced_batch_matches_raw_batch_final_state() {
        let (g, n) = fig1();
        let raw = vec![
            GraphUpdate::Insert(n["c"], n["d"]),
            GraphUpdate::Remove(n["c"], n["d"]),
            GraphUpdate::Remove(n["u"], n["k"]),
            GraphUpdate::Remove(n["u"], n["k"]),
        ];
        let mut via_raw = MaintainedIndex::new(&g);
        via_raw.apply_batch(&raw);
        let mut via_batch = MaintainedIndex::new(&g);
        let coalesced: MutationBatch = raw.into_iter().collect();
        assert_eq!(coalesced.len(), 2, "last op per edge survives");
        via_batch.apply_batch(&coalesced.into_updates());
        assert_eq!(via_raw.component_sizes(), via_batch.component_sizes());
        assert_eq!(via_raw.query(40, 1), via_batch.query(40, 1));
    }

    #[test]
    fn coalescing_is_sound_when_the_edge_pre_exists() {
        // (f, g) already exists in fig1: sequentially, the insert is a
        // no-op and the remove applies — the net effect is a REMOVAL, so
        // cancelling the pair to nothing would silently drop it.
        let (g, n) = fig1();
        let raw = vec![
            GraphUpdate::Insert(n["f"], n["g"]),
            GraphUpdate::Remove(n["f"], n["g"]),
        ];
        let mut via_raw = MaintainedIndex::new(&g);
        let stats = via_raw.apply_batch(&raw);
        assert_eq!((stats.applied, stats.noop), (1, 1));
        let coalesced: MutationBatch = raw.into_iter().collect();
        assert_eq!(
            coalesced.updates(),
            vec![GraphUpdate::Remove(n["f"], n["g"])],
            "the remove must survive"
        );
        let mut via_batch = MaintainedIndex::new(&g);
        via_batch.apply_batch(&coalesced.into_updates());
        assert_eq!(via_raw.graph().edges(), via_batch.graph().edges());
        assert_eq!(via_raw.component_sizes(), via_batch.component_sizes());
        assert_eq!(via_raw.query(40, 1), via_batch.query(40, 1));
    }

    #[test]
    fn coalescing_is_sound_when_the_edge_is_absent() {
        // Symmetric case: (c, d) is absent, so remove-then-insert nets to
        // an INSERTION (the remove is a no-op) — the insert must survive.
        let (g, n) = fig1();
        let raw = vec![
            GraphUpdate::Remove(n["c"], n["d"]),
            GraphUpdate::Insert(n["c"], n["d"]),
        ];
        let mut via_raw = MaintainedIndex::new(&g);
        let stats = via_raw.apply_batch(&raw);
        assert_eq!((stats.applied, stats.noop), (1, 1));
        let coalesced: MutationBatch = raw.into_iter().collect();
        assert_eq!(
            coalesced.updates(),
            vec![GraphUpdate::Insert(n["c"], n["d"])],
            "the insert must survive"
        );
        let mut via_batch = MaintainedIndex::new(&g);
        via_batch.apply_batch(&coalesced.into_updates());
        assert_eq!(via_raw.graph().edges(), via_batch.graph().edges());
        assert_eq!(via_raw.component_sizes(), via_batch.component_sizes());
        assert_eq!(via_raw.query(40, 1), via_batch.query(40, 1));
    }

    #[test]
    fn stats_roll_up_and_skipped_compat() {
        let d = [
            UpdateDisposition::Applied,
            UpdateDisposition::Noop,
            UpdateDisposition::Rejected,
            UpdateDisposition::Noop,
        ];
        let stats = BatchStats::from_dispositions(&d);
        assert_eq!((stats.applied, stats.noop, stats.rejected), (1, 2, 1));
        assert_eq!(stats.skipped(), 3);
        let mut sum = BatchStats::default();
        sum += stats;
        sum += stats;
        assert_eq!(sum.applied, 2);
    }

    #[test]
    fn noop_vs_rejected_classification() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let stats = index.apply_batch(&[
            GraphUpdate::Insert(n["f"], n["g"]), // already present → noop
            GraphUpdate::Remove(900, 901),       // out of range → noop
            GraphUpdate::Insert(3, 3),           // self-loop → rejected
            GraphUpdate::Remove(7, 7),           // self-loop → rejected
        ]);
        assert_eq!((stats.applied, stats.noop, stats.rejected), (0, 2, 2));
    }
}
