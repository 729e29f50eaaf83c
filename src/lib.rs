//! # esd — Efficient Top-k Edge Structural Diversity Search
//!
//! A from-scratch Rust reproduction of *"Efficient Top-k Edge Structural
//! Diversity Search"* (Zhang, Li, Yang, Wang, Qin — ICDE 2020).
//!
//! The **structural diversity** of an edge `(u, v)` is the number of
//! connected components of its ego-network — the subgraph induced by the
//! common neighbourhood `N(u) ∩ N(v)` — that have at least `τ` vertices.
//! This crate finds the `k` edges with the highest structural diversities
//! using either:
//!
//! * the **dequeue-twice online search** ([`core::online`]) with min-degree
//!   or common-neighbour upper bounds, or
//! * the **ESDIndex** ([`core::index`]): an `O(αm)`-space structure
//!   answering queries in `O(k log m + log n)`, built via 4-clique
//!   enumeration in `O((αγ(n) + log m)·αm)`, with parallel construction and
//!   dynamic edge insertion/deletion maintenance.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`graph`] — CSR graphs, orderings, cliques, betweenness, generators, IO.
//! * [`dsu`] — union–find structures.
//! * [`core`] — the paper's algorithms.
//! * [`datasets`] — deterministic surrogate datasets for the evaluation.
//! * [`serve`] — a concurrent query service over the maintained index:
//!   snapshot isolation, worker pool, result cache, live metrics, TCP server,
//!   and a sharded scatter-gather fleet behind the shard-transparent
//!   [`api::EngineHandle`].
//! * [`telemetry`] — stage spans and kernel counters threaded through every
//!   hot path above; a no-op unless built with the `telemetry` feature. See
//!   `docs/observability.md` for the span taxonomy and counter catalogue.
//!
//! and adds two first-party modules:
//!
//! * [`api`] — the unified mutation & query vocabulary ([`api::QueryRequest`],
//!   [`api::MutationBatch`], batch dispositions).
//! * [`Error`] — one error type unifying every layer's failures, with the
//!   CLI exit-code policy in a single place.
//!
//! ## Quickstart
//!
//! ```
//! use esd::core::index::EsdIndex;
//! use esd::core::online::{online_topk, UpperBound};
//! use esd::graph::generators;
//!
//! let g = generators::clique_overlap(300, 200, 6, 42);
//!
//! // Online search (no preprocessing).
//! let online = online_topk(&g, 5, 2, UpperBound::CommonNeighbor);
//!
//! // Index-based search (near-optimal queries after one build).
//! let index = EsdIndex::build_fast(&g);
//! let fast = index.query(5, 2);
//!
//! assert_eq!(online.len(), fast.len());
//! for (a, b) in online.iter().zip(&fast) {
//!     assert_eq!(a.score, b.score);
//! }
//! ```

#![warn(missing_docs)]

pub mod api;
mod error;

pub use error::Error;

pub use esd_core as core;
pub use esd_datasets as datasets;
pub use esd_dsu as dsu;
pub use esd_graph as graph;
pub use esd_serve as serve;
pub use esd_telemetry as telemetry;
