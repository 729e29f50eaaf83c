//! Composite epochs for sharded reads.
//!
//! A single engine versions its published snapshots with a scalar epoch. A
//! sharded service has one epoch *per shard*, and a merged query response is
//! consistent only as a vector of them: the response was assembled from
//! shard `i`'s snapshot at epoch `e_i`. [`VectorEpoch`] carries that vector
//! while degenerating to a plain scalar for S = 1, so single-engine callers
//! see exactly the epochs they always did.
//!
//! Monotonic-read reasoning generalizes componentwise: response `A` is
//! at-least-as-fresh-as response `B` iff `A.epochs ≥ B.epochs` in every
//! component ([`VectorEpoch::componentwise_ge`]). Staleness against the
//! current published vector is the *maximum per-shard lag*
//! ([`VectorEpoch::max_lag_behind`]) — the scalar delta is meaningless once
//! shards advance independently.

use std::sync::Arc;

/// A per-shard epoch vector, scalar-collapsed for single-engine services.
///
/// Constructed via [`VectorEpoch::scalar`] or [`VectorEpoch::from_shards`];
/// a one-element vector collapses to [`VectorEpoch::Scalar`], making S = 1
/// byte-for-byte indistinguishable from the unsharded service.
#[derive(Debug, Clone)]
pub enum VectorEpoch {
    /// A single engine's epoch (S = 1).
    Scalar(u64),
    /// Per-shard epochs, indexed by shard id (S > 1).
    Vector(Arc<[u64]>),
}

impl VectorEpoch {
    /// A scalar epoch (the single-engine form).
    #[must_use]
    pub fn scalar(epoch: u64) -> Self {
        VectorEpoch::Scalar(epoch)
    }

    /// Builds from per-shard epochs; a one-element vector collapses to
    /// [`VectorEpoch::Scalar`].
    ///
    /// # Panics
    /// If `epochs` is empty.
    #[must_use]
    pub fn from_shards(epochs: Vec<u64>) -> Self {
        assert!(!epochs.is_empty(), "an epoch vector needs at least 1 shard");
        if epochs.len() == 1 {
            VectorEpoch::Scalar(epochs[0])
        } else {
            VectorEpoch::Vector(epochs.into())
        }
    }

    /// The per-shard components (length 1 for a scalar).
    #[must_use]
    pub fn components(&self) -> &[u64] {
        match self {
            VectorEpoch::Scalar(e) => std::slice::from_ref(e),
            VectorEpoch::Vector(v) => v,
        }
    }

    /// Number of shards this epoch spans.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.components().len()
    }

    /// The composite scalar: the sum of per-shard epochs. Equal to the
    /// engine epoch for S = 1, and strictly monotonic under publications
    /// for any S (each component only ever grows), so it remains usable as
    /// a coarse "version" where a single number is required.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.components().iter().sum()
    }

    /// Componentwise `self ≥ other`: every shard at least as fresh. This is
    /// the sharded monotonic-read ordering; it is a partial order, so
    /// `!a.componentwise_ge(b)` does **not** imply `b.componentwise_ge(a)`.
    ///
    /// # Panics
    /// If the two epochs span different shard counts.
    #[must_use]
    pub fn componentwise_ge(&self, other: &VectorEpoch) -> bool {
        let (a, b) = (self.components(), other.components());
        assert_eq!(a.len(), b.len(), "epoch vectors span different shards");
        a.iter().zip(b).all(|(x, y)| x >= y)
    }

    /// Maximum per-shard lag of `self` behind `current` (0 when `self` is
    /// at least as fresh everywhere). This is the shard-aware staleness
    /// measure the protocol summary reports.
    ///
    /// # Panics
    /// If the two epochs span different shard counts.
    #[must_use]
    pub fn max_lag_behind(&self, current: &VectorEpoch) -> u64 {
        let (a, b) = (self.components(), current.components());
        assert_eq!(a.len(), b.len(), "epoch vectors span different shards");
        a.iter()
            .zip(b)
            .map(|(x, y)| y.saturating_sub(*x))
            .max()
            .unwrap_or(0)
    }
}

impl PartialEq for VectorEpoch {
    fn eq(&self, other: &Self) -> bool {
        self.components() == other.components()
    }
}

impl Eq for VectorEpoch {}

impl std::fmt::Display for VectorEpoch {
    /// `5` for a scalar, `[5, 2, 4]` for a vector — the form used in the
    /// protocol's query-summary line.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VectorEpoch::Scalar(e) => write!(f, "{e}"),
            VectorEpoch::Vector(v) => {
                write!(f, "[")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_collapses_to_scalar() {
        let v = VectorEpoch::from_shards(vec![7]);
        assert_eq!(v, VectorEpoch::scalar(7));
        assert!(matches!(v, VectorEpoch::Scalar(7)));
        assert_eq!(v.to_string(), "7");
        assert_eq!(v.sum(), 7);
        assert_eq!(v.shards(), 1);
    }

    #[test]
    fn vector_form_and_display() {
        let v = VectorEpoch::from_shards(vec![5, 2, 4]);
        assert_eq!(v.to_string(), "[5, 2, 4]");
        assert_eq!(v.sum(), 11);
        assert_eq!(v.shards(), 3);
        assert_eq!(v.components(), &[5, 2, 4]);
    }

    #[test]
    fn componentwise_order_is_partial() {
        let a = VectorEpoch::from_shards(vec![3, 5]);
        let b = VectorEpoch::from_shards(vec![4, 4]);
        let c = VectorEpoch::from_shards(vec![4, 5]);
        assert!(!a.componentwise_ge(&b));
        assert!(!b.componentwise_ge(&a), "incomparable pair");
        assert!(c.componentwise_ge(&a));
        assert!(c.componentwise_ge(&b));
        assert!(c.componentwise_ge(&c));
    }

    #[test]
    fn max_lag_is_per_shard_not_scalar() {
        let seen = VectorEpoch::from_shards(vec![3, 9]);
        let now = VectorEpoch::from_shards(vec![6, 9]);
        // Scalar deltas would say 12 − 15 … meaningless; per-shard lag is 3.
        assert_eq!(seen.max_lag_behind(&now), 3);
        assert_eq!(now.max_lag_behind(&seen), 0, "fresh side has no lag");
        let s = VectorEpoch::scalar(4);
        assert_eq!(s.max_lag_behind(&VectorEpoch::scalar(6)), 2);
    }

    #[test]
    #[should_panic(expected = "different shards")]
    fn mismatched_widths_panic() {
        let a = VectorEpoch::from_shards(vec![1, 2]);
        let b = VectorEpoch::from_shards(vec![1, 2, 3]);
        let _ = a.componentwise_ge(&b);
    }
}
