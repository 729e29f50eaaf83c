//! Snapshot isolation for readers: the writer applies updates to a private
//! [`MaintainedIndex`] (plus the non-component [`FamilySuite`]) and
//! publishes immutable, epoch-stamped copies. Readers grab an `Arc` to the
//! current snapshot and keep using it for the whole query — they can never
//! observe a half-applied batch, only the state before or after one.

use crate::sync::Unpoison;
use esd_core::{Family, FamilySuite, MaintainedIndex, ScoredEdge};
use std::sync::{Arc, RwLock};

/// An immutable, epoch-stamped view of the index and family suite.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    index: MaintainedIndex,
    families: FamilySuite,
}

impl Snapshot {
    pub(crate) fn new(epoch: u64, index: MaintainedIndex, families: FamilySuite) -> Self {
        Self {
            epoch,
            index,
            families,
        }
    }

    /// Publication number: 0 for the boot snapshot, +1 per published batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Top-`k` edges at threshold `tau` against this frozen state, under
    /// the default component-based family.
    pub fn query(&self, k: usize, tau: u32) -> Vec<ScoredEdge> {
        self.index.query(k, tau)
    }

    /// Top-`k` edges under `family` at threshold `tau` against this frozen
    /// state. Component queries go to the maintained index; every other
    /// family is served by the snapshot's [`FamilySuite`].
    pub fn query_family(&self, family: Family, k: usize, tau: u32) -> Vec<ScoredEdge> {
        match family {
            Family::Component => self.index.query(k, tau),
            _ => self.families.query(family, k, tau),
        }
    }

    /// The underlying index (read-only).
    pub fn index(&self) -> &MaintainedIndex {
        &self.index
    }

    /// The non-component family state published with this snapshot.
    pub fn families(&self) -> &FamilySuite {
        &self.families
    }
}

/// The publication point: a single atomic slot holding the current
/// snapshot. `load` is a brief read-lock and an `Arc` bump; `store` swaps
/// the pointer. Readers holding an older `Arc` are unaffected by a swap,
/// and the replaced snapshot is released after the lock is, so no reader
/// waits on its deallocation.
#[derive(Debug)]
pub(crate) struct SnapshotCell(RwLock<Arc<Snapshot>>);

impl SnapshotCell {
    pub(crate) fn new(snapshot: Snapshot) -> Self {
        Self(RwLock::new(Arc::new(snapshot)))
    }

    pub(crate) fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.0.read().unpoison())
    }

    pub(crate) fn store(&self, snapshot: Arc<Snapshot>) {
        let replaced = std::mem::replace(&mut *self.0.write().unpoison(), snapshot);
        drop(replaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_core::maintain::GraphUpdate;
    use esd_graph::Graph;

    /// Every family's full ranking at τ ∈ 1..=3: a snapshot's answers.
    fn answers(snap: &Snapshot) -> Vec<Vec<ScoredEdge>> {
        Family::ALL
            .into_iter()
            .flat_map(|f| (1..=3).map(move |tau| snap.query_family(f, usize::MAX, tau)))
            .collect()
    }

    #[test]
    fn old_arcs_survive_publication() {
        let g = esd_graph::generators::clique_overlap(60, 40, 4, 9);
        let mut index = MaintainedIndex::new(&g);
        let mut families = FamilySuite::new(&g);
        let cell = SnapshotCell::new(Snapshot::new(0, index.clone(), families.clone()));
        let old = cell.load();
        let before = answers(&old);

        // Each window mutates a working copy that shares pages with every
        // published snapshot, exactly as the serve writer does.
        for (epoch, e) in (1..=8u64).zip(g.edges().iter().step_by(7)) {
            let window = [GraphUpdate::Remove(e.u, e.v)];
            index.apply_batch(&window);
            families.apply_window(index.graph(), &window);
            cell.store(Arc::new(Snapshot::new(
                epoch,
                index.clone(),
                families.clone(),
            )));
            assert_eq!(cell.load().epoch(), epoch);
            // The retained snapshot still answers from the pre-publication state.
            assert_eq!(answers(&old), before, "after window {epoch}");
        }
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.index().graph().num_edges(), g.num_edges());
        assert_ne!(
            answers(&cell.load()),
            before,
            "the windows changed the answers"
        );
    }

    /// A reader never observes an older epoch than one it already saw,
    /// while a writer publishes epoch after epoch. Rounds, several readers
    /// and a yield between steps widen the interleavings a short run
    /// reaches.
    #[test]
    fn epoch_reads_are_monotonic_across_publication() {
        const ROUNDS: usize = 300;
        const READERS: usize = 3;
        const EPOCHS: u64 = 6;
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let (index, families) = (MaintainedIndex::new(&g), FamilySuite::new(&g));
        let snap = |epoch| Snapshot::new(epoch, index.clone(), families.clone());
        for _ in 0..ROUNDS {
            let cell = SnapshotCell::new(snap(0));
            let start = std::sync::Barrier::new(READERS + 1);
            std::thread::scope(|s| {
                for _ in 0..READERS {
                    s.spawn(|| {
                        start.wait();
                        let mut last = 0;
                        while last < EPOCHS {
                            let epoch = cell.load().epoch();
                            assert!(epoch >= last, "epoch went backwards: {last} -> {epoch}");
                            last = epoch;
                            std::thread::yield_now();
                        }
                    });
                }
                start.wait();
                for epoch in 1..=EPOCHS {
                    cell.store(Arc::new(snap(epoch)));
                    std::thread::yield_now();
                }
            });
            assert_eq!(cell.load().epoch(), EPOCHS, "a read sees the last publish");
        }
    }

    #[test]
    fn family_queries_dispatch_per_family() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]);
        let snap = Snapshot::new(0, MaintainedIndex::new(&g), FamilySuite::new(&g));
        assert_eq!(
            snap.query_family(Family::Component, 10, 1),
            snap.query(10, 1)
        );
        assert_eq!(
            snap.query_family(Family::Truss, 10, 1),
            snap.families().query(Family::Truss, 10, 1)
        );
    }
}
