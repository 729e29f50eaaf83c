//! Deterministic fault injection for the serve engine.
//!
//! The chaos suite (`tests/chaos_serve.rs` at the workspace root) needs to
//! push the service through its failure paths *reproducibly*: the same
//! seed must produce the same faults at the same call sites on every run.
//! This module provides that machinery:
//!
//! * A [`FaultPoint`] names each place the engine consults the injector —
//!   snapshot publication, the writer's apply window, worker dequeue, the
//!   result-cache lookup, and the durability subsystem's WAL append, WAL
//!   fsync, and checkpoint write.
//! * A [`FaultPlan`] is a seeded list of [`FaultRule`]s: *at this point,
//!   when this trigger matches, inject this fault*. Triggers are
//!   deterministic functions of the per-point call number (and, for
//!   [`Trigger::PerMille`], of the plan seed), never of wall-clock time
//!   or a global RNG.
//! * [`FaultKind`] is what gets injected: a synthetic `io::Error`, a fixed
//!   latency, or a panic (which the engine must contain).
//!
//! ## Zero cost when disarmed
//!
//! Everything observable is behind the `fault-injection` cargo feature.
//! The plan vocabulary ([`FaultPlan`] etc.) always compiles so call sites
//! and tests can be written unconditionally, but without the feature the
//! injector is a zero-sized type whose `fire` is a `const`-foldable `None`
//! — every fault check in the engine optimises away, which the
//! no-default-features CI build verifies. The `cfg` is resolved inside
//! this crate, so consumers cannot accidentally evaluate the feature test
//! against their own feature set (the same discipline as `esd-telemetry`).

use std::time::Duration;

/// A named place in the engine where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Inside snapshot publication, before the new epoch becomes visible.
    SnapshotPublish,
    /// At the head of the writer's apply window, before the index mutates.
    WriterApply,
    /// When a query worker picks a job off the queue, before executing it.
    WorkerDequeue,
    /// Inside query execution, before the result-cache lookup.
    CacheLookup,
    /// In the durable commit path, before the window's WAL record is
    /// appended.
    WalAppend,
    /// In the durable commit path, before the WAL fsync that makes the
    /// record durable (ack-after-fsync policy).
    WalFsync,
    /// At the head of a checkpoint write, before any checkpoint file is
    /// created. Fires *after* the window published — a checkpoint failure
    /// must never fail an already-acked batch.
    CheckpointWrite,
}

impl FaultPoint {
    /// Every fault point, in declaration order.
    pub const ALL: &'static [FaultPoint] = &[
        FaultPoint::SnapshotPublish,
        FaultPoint::WriterApply,
        FaultPoint::WorkerDequeue,
        FaultPoint::CacheLookup,
        FaultPoint::WalAppend,
        FaultPoint::WalFsync,
        FaultPoint::CheckpointWrite,
    ];

    /// Number of fault points (the injector's call-counter array length).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake-case name, used in injected error messages and docs.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::SnapshotPublish => "snapshot_publish",
            Self::WriterApply => "writer_apply",
            Self::WorkerDequeue => "worker_dequeue",
            Self::CacheLookup => "cache_lookup",
            Self::WalAppend => "wal_append",
            Self::WalFsync => "wal_fsync",
            Self::CheckpointWrite => "checkpoint_write",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// What an armed fault point injects when its trigger matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A synthetic `io::Error` (kind `Other`). The engine maps it to a
    /// failed window; clients see a clean error, never a half-applied
    /// state.
    IoError,
    /// The calling thread sleeps for the given duration, then proceeds
    /// normally — models slow disks and scheduling hiccups.
    Latency(Duration),
    /// The calling thread panics. The engine must contain it (catch,
    /// count, keep serving) — the chaos suite asserts it does.
    Panic,
}

/// When a fault rule fires, as a deterministic function of the per-point
/// call number (1-based) and the plan seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fires on exactly the `n`-th call (1-based) to the point.
    Nth(u64),
    /// Fires on every `n`-th call (the `n`-th, `2n`-th, …).
    EveryNth(u64),
    /// Fires on each call independently with probability `p` (per-mille,
    /// `0..=1000`), derived from a hash of the plan seed, the point, and
    /// the call number — deterministic, no shared RNG stream.
    PerMille(u32),
}

impl Trigger {
    /// Whether the trigger matches call number `n` (1-based) at `point`
    /// under `seed`.
    #[must_use]
    pub fn matches(self, seed: u64, point: FaultPoint, n: u64) -> bool {
        match self {
            Self::Nth(target) => n == target.max(1),
            #[allow(
                clippy::manual_is_multiple_of,
                reason = "u64::is_multiple_of would raise the MSRV to 1.87"
            )]
            Self::EveryNth(period) => n % period.max(1) == 0,
            Self::PerMille(p) => {
                let h = splitmix64(
                    seed ^ (point.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n,
                );
                (h % 1000) < u64::from(p.min(1000))
            }
        }
    }
}

/// One arm of a [`FaultPlan`]: *at `point`, when `trigger` matches, inject
/// `kind`*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Where the rule applies.
    pub point: FaultPoint,
    /// When it fires.
    pub trigger: Trigger,
    /// What it injects.
    pub kind: FaultKind,
}

/// A seeded, deterministic fault schedule. The default plan is empty
/// (no faults), which is what [`crate::Service::start`] uses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed feeding [`Trigger::PerMille`] decisions.
    pub seed: u64,
    /// The rules, consulted in order; the first match at a point wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan under `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Appends a rule (builder style).
    #[must_use]
    pub fn rule(mut self, point: FaultPoint, trigger: Trigger, kind: FaultKind) -> Self {
        self.rules.push(FaultRule {
            point,
            trigger,
            kind,
        });
        self
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Whether the `fault-injection` feature was compiled in. `const`, so
/// branches on it fold away; the chaos suite uses it to skip itself in
/// disarmed builds.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "fault-injection")
}

/// SplitMix64 — the tiny deterministic mixer behind [`Trigger::PerMille`]
/// and the retry jitter. Good enough statistical quality for fault
/// schedules and backoff spreading; not a crypto RNG.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The armed injector: a plan plus one atomic call counter per point.
#[cfg(feature = "fault-injection")]
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    calls: [std::sync::atomic::AtomicU64; FaultPoint::COUNT],
}

#[cfg(feature = "fault-injection")]
impl FaultInjector {
    pub(crate) fn from_plan(plan: FaultPlan) -> Self {
        Self {
            plan,
            calls: std::array::from_fn(|_| std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// Consults the plan at `point`. Bumps the point's call counter and
    /// returns the fault to inject, if any (first matching rule wins).
    pub(crate) fn fire(&self, point: FaultPoint) -> Option<FaultKind> {
        if self.plan.is_empty() {
            return None;
        }
        let n = self.calls[point.index()].fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        self.plan
            .rules
            .iter()
            .find(|r| r.point == point && r.trigger.matches(self.plan.seed, point, n))
            .map(|r| r.kind)
    }
}

/// The disarmed injector: zero-sized, `fire` is always `None`, every
/// fault check in the engine folds to nothing.
#[cfg(not(feature = "fault-injection"))]
#[derive(Debug)]
pub(crate) struct FaultInjector;

#[cfg(not(feature = "fault-injection"))]
impl FaultInjector {
    pub(crate) fn from_plan(_plan: FaultPlan) -> Self {
        Self
    }

    #[inline]
    pub(crate) fn fire(&self, _point: FaultPoint) -> Option<FaultKind> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
        // Low-entropy inputs should not collapse to a few buckets.
        let mut buckets = [0u32; 10];
        for i in 0..1000u64 {
            buckets[(splitmix64(i) % 10) as usize] += 1;
        }
        assert!(buckets.iter().all(|&b| b > 50), "{buckets:?}");
    }

    #[test]
    fn triggers_match_deterministically() {
        let p = FaultPoint::WriterApply;
        assert!(Trigger::Nth(3).matches(0, p, 3));
        assert!(!Trigger::Nth(3).matches(0, p, 2));
        assert!(!Trigger::Nth(3).matches(0, p, 6));
        assert!(Trigger::EveryNth(3).matches(0, p, 3));
        assert!(Trigger::EveryNth(3).matches(0, p, 6));
        assert!(!Trigger::EveryNth(3).matches(0, p, 4));
        // Degenerate periods are clamped instead of dividing by zero.
        assert!(Trigger::EveryNth(0).matches(0, p, 1));
        assert!(Trigger::Nth(0).matches(0, p, 1));
        // PerMille is a pure function of (seed, point, n).
        for n in 1..50 {
            assert_eq!(
                Trigger::PerMille(300).matches(7, p, n),
                Trigger::PerMille(300).matches(7, p, n),
            );
        }
        assert!((1..=1000u64).all(|n| Trigger::PerMille(1000).matches(7, p, n)));
        assert!(!(1..=1000u64).any(|n| Trigger::PerMille(0).matches(7, p, n)));
    }

    #[test]
    fn per_mille_rate_tracks_p() {
        let hits = (1..=10_000u64)
            .filter(|&n| Trigger::PerMille(250).matches(0xC0FFEE, FaultPoint::CacheLookup, n))
            .count();
        assert!((2000..3000).contains(&hits), "~25% expected, got {hits}");
    }

    #[test]
    fn plan_builder_orders_rules() {
        let plan = FaultPlan::new(9)
            .rule(FaultPoint::WorkerDequeue, Trigger::Nth(1), FaultKind::Panic)
            .rule(
                FaultPoint::WorkerDequeue,
                Trigger::EveryNth(1),
                FaultKind::IoError,
            );
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].kind, FaultKind::Panic);
        assert!(FaultPlan::default().is_empty());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn armed_injector_counts_per_point_and_first_match_wins() {
        let plan = FaultPlan::new(1)
            .rule(FaultPoint::WorkerDequeue, Trigger::Nth(2), FaultKind::Panic)
            .rule(
                FaultPoint::WorkerDequeue,
                Trigger::EveryNth(2),
                FaultKind::IoError,
            )
            .rule(
                FaultPoint::SnapshotPublish,
                Trigger::EveryNth(1),
                FaultKind::IoError,
            );
        let inj = FaultInjector::from_plan(plan);
        assert_eq!(inj.fire(FaultPoint::WorkerDequeue), None);
        // Call 2 matches both worker rules; the first (Panic) wins.
        assert_eq!(inj.fire(FaultPoint::WorkerDequeue), Some(FaultKind::Panic));
        assert_eq!(inj.fire(FaultPoint::WorkerDequeue), None);
        assert_eq!(
            inj.fire(FaultPoint::WorkerDequeue),
            Some(FaultKind::IoError)
        );
        // Counters are per point: publish has its own stream.
        assert_eq!(
            inj.fire(FaultPoint::SnapshotPublish),
            Some(FaultKind::IoError)
        );
        // Unarmed points never fire.
        assert_eq!(inj.fire(FaultPoint::CacheLookup), None);
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn disarmed_injector_is_inert_and_zero_sized() {
        assert!(!enabled());
        assert_eq!(std::mem::size_of::<FaultInjector>(), 0);
        let plan = FaultPlan::new(1).rule(
            FaultPoint::WorkerDequeue,
            Trigger::EveryNth(1),
            FaultKind::Panic,
        );
        let inj = FaultInjector::from_plan(plan);
        for point in FaultPoint::ALL {
            assert_eq!(inj.fire(*point), None);
        }
    }
}
