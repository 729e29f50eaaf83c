//! The crate's lock-poisoning policy.
//!
//! Lock poisoning carries no protocol meaning here: the WAL keeps its own
//! explicit `poisoned` flag for states where the on-disk tail may not
//! match the in-memory bookkeeping, so `PoisonError` is recovered with
//! [`Unpoison::unpoison`] (the `lock-unwrap` analyze pass forbids
//! `unwrap`/`expect` on lock results).

/// Recovery from lock poisoning: the WAL's explicit `poisoned` flag is the
/// authoritative "state may be torn" signal, so a `PoisonError` on the
/// group-commit lock is recovered rather than propagated.
pub(crate) trait Unpoison {
    /// The guard (or guard tuple) inside the `LockResult`.
    type Inner;

    /// Unwraps the lock result, recovering the guard from a poisoned
    /// lock instead of panicking.
    fn unpoison(self) -> Self::Inner;
}

impl<G> Unpoison for Result<G, std::sync::PoisonError<G>> {
    type Inner = G;

    fn unpoison(self) -> G {
        self.unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
