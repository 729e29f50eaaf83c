//! The crate's lock-poisoning policy.
//!
//! The engine's invariant since the fault-injection PR is that **no panic
//! crosses a lock boundary**: the writer contains panics *inside* its
//! lock scope and rolls back, and workers contain per-job panics before
//! touching shared state. Poisoning therefore carries no information — a
//! poisoned lock here means the invariant already failed in a way the
//! chaos suite would catch — so lock results are recovered with
//! [`Unpoison::unpoison`] instead of `unwrap`/`expect` (which the
//! `lock-unwrap` analyze pass forbids): readers continue against state
//! that is consistent by construction, rather than cascading a contained
//! failure into every thread that touches the same lock.

/// Recovery from lock poisoning, per the module-level argument: panics
/// never cross lock boundaries in this crate, so a `PoisonError` carries
/// no protocol meaning and the guarded data is consistent.
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
