//! `esd-serve` — a concurrent query service over the maintained ESDIndex.
//!
//! The paper's index family (§IV–V) is a read-optimised structure built to
//! answer many `(k, τ)` queries cheaply; this crate turns it into an online
//! serving engine:
//!
//! * **Snapshot isolation** ([`Snapshot`]): a writer applies
//!   [`GraphUpdate`](esd_core::maintain::GraphUpdate) batches to a private
//!   [`MaintainedIndex`](esd_core::MaintainedIndex) and atomically
//!   publishes immutable, epoch-stamped snapshots. Readers never block on
//!   writes and never observe a half-applied batch.
//! * **A worker pool** ([`Service`]) draining a bounded request queue with
//!   backpressure ([`ServeError::QueueFull`]) and per-request deadlines
//!   ([`ServeError::DeadlineExceeded`]).
//! * **A result cache** keyed on `(k, τ, epoch)` — publication of a new
//!   snapshot structurally invalidates every cached answer.
//! * **Live metrics** ([`MetricsRegistry`]): queries served, cache hit
//!   rate, updates applied, queue depth, p50/p99 latency per operation.
//! * **Graceful degradation**: panics in workers and the writer are
//!   contained (caught, counted, the thread restarted in place — the
//!   engine is never poisoned), a saturated queue sheds queries to
//!   slightly-stale cached answers instead of rejecting outright, and
//!   [`RetryPolicy`] gives clients budget-capped backoff for transient
//!   errors. The [`faults`] module injects deterministic failures into
//!   all of this for the chaos suite — compiled out unless the
//!   `fault-injection` feature is armed.
//! * **Two surfaces**: the [`EngineHandle`] library API (implemented by
//!   the single-engine [`ServiceHandle`] and the scatter-gather
//!   [`ShardedHandle`]), and a TCP [`Server`] speaking the
//!   `esd-protocol/2` line protocol (`+ u v | - u v | ? k tau | hello |
//!   shards | metrics | quit`) via the shared [`Session`] logic.
//! * **Sharding** ([`ShardedService`]): `S` engines each owning a hash
//!   slice of the edge-key space over a full graph replica; queries
//!   k-way merge per-shard top-k heads under a [`VectorEpoch`], mutations
//!   fan out to every shard — result-identical to a single engine at any
//!   `S` (DESIGN.md §15).
//!
//! ```
//! use esd_serve::{QueryRequest, Service, ServiceConfig};
//! use esd_core::maintain::MutationBatch;
//! use esd_graph::generators;
//!
//! let g = generators::clique_overlap(200, 150, 5, 7);
//! let service = Service::start(&g, &ServiceConfig::default());
//! let handle = service.handle();
//!
//! let before = handle.execute(QueryRequest::new(5, 2)).unwrap();
//! let mut batch = MutationBatch::new();
//! batch.insert(0, 199);
//! handle.submit(batch).unwrap();
//! let after = handle.execute(QueryRequest::new(5, 2)).unwrap();
//! assert!(after.epoch >= before.epoch);
//! service.shutdown();
//! ```

#![warn(missing_docs)]

mod cache;
pub mod durability;
pub mod faults;
pub mod ids;
pub mod metrics;
pub mod protocol;
mod queue;
pub mod retry;
pub mod server;
pub mod service;
pub mod session;
pub mod shard;
mod snapshot;
pub(crate) mod sync;
pub mod vector_epoch;

pub use durability::{AckPolicy, DurabilityConfig, Recovered, RecoveryReport};
pub use faults::{FaultKind, FaultPlan, FaultPoint, FaultRule, Trigger};
pub use ids::IdMap;
pub use metrics::MetricsRegistry;
pub use retry::RetryPolicy;
pub use server::Server;
pub use service::{
    BatchOutcome, EngineHandle, QueryRequest, QueryResponse, ServeError, Service, ServiceConfig,
    ServiceHandle,
};
pub use session::{LineOutcome, Session};
pub use shard::{ShardConfig, ShardedHandle, ShardedService};
pub use snapshot::Snapshot;
pub use vector_epoch::VectorEpoch;
