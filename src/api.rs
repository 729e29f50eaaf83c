//! The unified mutation & query API — the stable surface applications
//! should program against.
//!
//! Historically each layer exposed its own entry points: `esd-core` took
//! raw [`GraphUpdate`] slices, `esd-serve` had positional
//! `query(k, tau)` / `apply(Vec<GraphUpdate>)` methods, and callers were
//! left to deduplicate contradictory updates themselves. This module
//! collects the replacement vocabulary in one place:
//!
//! * [`QueryRequest`] — a query as a value: `k`, `τ`, the [`Family`]
//!   ranking the results (defaults to the paper's component-based
//!   measure), and an optional deadline.
//! * [`MutationBatch`] — a builder over graph updates that coalesces
//!   operations on the same edge last-writer-wins (only the most recent
//!   insert/remove per edge survives). Use [`MutationBatch::from_raw`]
//!   when per-update dispositions must be reported 1:1 (no coalescing).
//! * [`BatchStats`] / [`UpdateDisposition`] — what happened to each
//!   update: applied, no-op (already satisfied), or rejected
//!   (structurally invalid, e.g. a self-loop).
//! * [`BatchOutcome`] / [`QueryResponse`] — the service-side results,
//!   epoch-stamped and latency-annotated.
//!
//! ## Shard transparency
//!
//! Requests execute against any [`EngineHandle`] — the trait both engine
//! front-ends implement:
//!
//! * [`ServiceHandle`](esd_serve::ServiceHandle), over a single
//!   [`Service`](esd_serve::Service);
//! * [`ShardedHandle`], over a [`ShardedService`] of `S` engines
//!   (configured with [`ShardConfig`]) that scatter-gathers queries and
//!   fans mutations out to every shard.
//!
//! The request/response vocabulary is identical either way: the same
//! `QueryRequest` and `MutationBatch` values flow through either handle,
//! and responses carry a [`VectorEpoch`] — a scalar against one engine, a
//! per-shard vector against a fleet — so sessions, servers, and load
//! generators run unchanged at any shard count. Result identity across
//! shard counts is argued in DESIGN.md §15.
//!
//! The legacy positional methods (`query`, `query_before`, `apply`,
//! `apply_before`) have been **removed** in favour of this vocabulary;
//! see the README migration table.
//!
//! ```
//! use esd::api::{EngineHandle, MutationBatch, QueryRequest};
//! use esd::serve::{Service, ServiceConfig};
//! use esd::graph::generators;
//!
//! let g = generators::clique_overlap(120, 90, 5, 3);
//! let service = Service::start(&g, &ServiceConfig::default());
//! let handle = service.handle();
//!
//! let mut batch = MutationBatch::new();
//! batch.insert(0, 119);
//! batch.remove(0, 119); // supersedes the insert: only the remove survives
//! assert_eq!(batch.len(), 1);
//! let outcome = handle.submit(batch).unwrap();
//! assert_eq!(outcome.applied + outcome.noop, 1);
//!
//! let top = handle.execute(QueryRequest::new(5, 2)).unwrap();
//! assert!(top.results.len() <= 5);
//! service.shutdown();
//! ```
//!
//! The same flow against a sharded fleet — only construction differs:
//!
//! ```
//! use esd::api::{EngineHandle, QueryRequest, ShardConfig, ShardedService};
//! use esd::graph::generators;
//!
//! let g = generators::clique_overlap(120, 90, 5, 3);
//! let fleet = ShardedService::start(&g, &ShardConfig::new(4));
//! let handle = fleet.handle();
//! assert_eq!(handle.shards(), 4);
//!
//! let top = handle.execute(QueryRequest::new(5, 2)).unwrap();
//! assert_eq!(top.epochs.components().len(), 4);
//! fleet.shutdown();
//! ```
//!
//! ## Query families
//!
//! [`QueryRequest::with_family`](esd_serve::QueryRequest::with_family)
//! switches which ego-network diversity measure ranks the results —
//! [`Family::Truss`], [`Family::ParameterFree`], or
//! [`Family::EgoBetweenness`] beside the default [`Family::Component`] —
//! served from the same snapshots, caches, and shard merge as component
//! queries (see `esd_core::family` for definitions and DESIGN.md §16 for
//! the equivalence argument):
//!
//! ```
//! use esd::api::{EngineHandle, Family, QueryRequest};
//! use esd::serve::{Service, ServiceConfig};
//! use esd::graph::generators;
//!
//! let g = generators::clique_overlap(120, 90, 5, 3);
//! let service = Service::start(&g, &ServiceConfig::default());
//! let handle = service.handle();
//! let truss = handle
//!     .execute(QueryRequest::new(5, 2).with_family(Family::Truss))
//!     .unwrap();
//! assert_eq!(truss.family, Family::Truss);
//! service.shutdown();
//! ```

pub use esd_core::maintain::{BatchStats, GraphUpdate, MutationBatch, UpdateDisposition};
pub use esd_core::Family;
pub use esd_serve::{
    BatchOutcome, EngineHandle, QueryRequest, QueryResponse, ShardConfig, ShardedHandle,
    ShardedService, VectorEpoch,
};

pub use crate::Error;
