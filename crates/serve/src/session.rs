//! One protocol session: the glue between a line source (stdin or a TCP
//! connection) and an [`EngineHandle`]. `esd stream` and every `esd
//! serve` connection run exactly this code — against one engine or a
//! sharded fleet — so the surfaces cannot drift apart.

use crate::protocol::{self, Request};
use crate::retry::RetryPolicy;
use crate::service::{EngineHandle, QueryRequest, ServiceHandle};
use crate::IdMap;
use esd_core::maintain::MutationBatch;
use esd_core::Family;
use std::cell::Cell;
use std::sync::Arc;

/// What a handled line produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineOutcome {
    /// Text to send back to the client (may span multiple lines).
    Respond(String),
    /// The client asked to end the session.
    Quit,
}

/// A protocol session bound to one engine handle and the shared id map.
/// Shard-transparent: the default `H` is the single-engine
/// [`ServiceHandle`]; a [`ShardedHandle`](crate::shard::ShardedHandle)
/// session behaves identically, with epoch vectors in its summaries.
#[derive(Debug, Clone)]
pub struct Session<H: EngineHandle = ServiceHandle> {
    handle: H,
    ids: Arc<IdMap>,
    retry: RetryPolicy,
    /// The query family `?` lines rank by, switched with the `family`
    /// command. Per-session state (each connection owns its `Session`), so
    /// one client switching families never affects another.
    family: Cell<Family>,
}

impl<H: EngineHandle> Session<H> {
    /// Creates a session over `handle` using the shared id mapping `ids`,
    /// with a modest default [`RetryPolicy`]: transient errors (a full
    /// queue, a contained fault) are retried with jittered backoff before
    /// the client ever sees an `error:` line.
    pub fn new(handle: H, ids: Arc<IdMap>) -> Self {
        Self {
            handle,
            ids,
            retry: RetryPolicy::new(0x5E55_u64),
            family: Cell::new(Family::Component),
        }
    }

    /// The family `?` queries currently rank by (sessions start in
    /// [`Family::Component`]).
    pub fn family(&self) -> Family {
        self.family.get()
    }

    /// Replaces the session's retry policy (builder style). Use
    /// [`RetryPolicy::none`] to surface every transient error immediately.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The session's id map (shared across sessions of one server).
    pub fn ids(&self) -> &Arc<IdMap> {
        &self.ids
    }

    /// The underlying engine handle.
    pub fn handle(&self) -> &H {
        &self.handle
    }

    /// Handles one request line and produces the response text. Service
    /// errors (deadline exceeded, queue full) become `error:` lines, never
    /// panics or hangs.
    pub fn handle_line(&self, line: &str) -> LineOutcome {
        let request = match protocol::parse_line(line) {
            Ok(Some(r)) => r,
            Ok(None) => return LineOutcome::Respond(String::new()),
            Err(msg) => return LineOutcome::Respond(protocol::format_error(&msg)),
        };
        match request {
            Request::Quit => LineOutcome::Quit,
            Request::Hello => LineOutcome::Respond(protocol::hello_banner(self.handle.shards())),
            Request::Shards => LineOutcome::Respond(protocol::format_shards(
                self.handle.shards(),
                &self.handle.epochs(),
            )),
            Request::Metrics => LineOutcome::Respond(self.handle.metrics_text()),
            Request::Telemetry => {
                let mut json = esd_telemetry::snapshot().to_json().render_compact();
                json.push('\n');
                LineOutcome::Respond(json)
            }
            Request::Family(switch) => {
                if let Some(f) = switch {
                    self.family.set(f);
                }
                LineOutcome::Respond(protocol::format_family(self.family.get()))
            }
            Request::Query { k, tau } => {
                let request = QueryRequest::new(k, tau).with_family(self.family.get());
                match self.handle.execute_with_retry(request, &self.retry) {
                    Ok(resp) => LineOutcome::Respond(protocol::format_query(&resp, &self.ids)),
                    Err(e) => LineOutcome::Respond(protocol::format_error(&e.to_string())),
                }
            }
            Request::Insert(a, b) | Request::Remove(a, b) => {
                let insert = matches!(request, Request::Insert(..));
                let (da, db) = self.ids.dense_pair(a, b);
                let mut batch = MutationBatch::new();
                if insert {
                    batch.insert(da, db);
                } else {
                    batch.remove(da, db);
                }
                match self.handle.submit_with_retry(batch, &self.retry) {
                    Ok(outcome) => {
                        LineOutcome::Respond(protocol::format_update(insert, a, b, &outcome))
                    }
                    Err(e) => LineOutcome::Respond(protocol::format_error(&e.to_string())),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Service, ServiceConfig};
    use crate::shard::{ShardConfig, ShardedService};
    use esd_graph::Graph;

    // K4 plus a spare vertex: every edge scores 1 at τ ≤ 2.
    fn test_graph() -> Graph {
        Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    }

    fn test_ids() -> Arc<IdMap> {
        Arc::new(IdMap::from_original(vec![100, 101, 102, 103, 104]))
    }

    fn session() -> (Service, Session) {
        let service = Service::start(
            &test_graph(),
            &ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        );
        let session = Session::new(service.handle(), test_ids());
        (service, session)
    }

    #[test]
    fn full_session_flow() {
        let (_service, s) = session();
        // Query: 6 edges, all score 1 at τ=2.
        let LineOutcome::Respond(text) = s.handle_line("? 10 2") else {
            panic!("expected response");
        };
        assert!(text.contains("(100, 101)  score 1"), "{text}");
        assert!(text.contains("# 6 result(s)"), "{text}");
        // Remove an edge, then a no-op repeat.
        let LineOutcome::Respond(text) = s.handle_line("- 102 103") else {
            panic!()
        };
        assert!(text.starts_with("- (102, 103): ok"), "{text}");
        let LineOutcome::Respond(text) = s.handle_line("- 102 103") else {
            panic!()
        };
        assert!(text.starts_with("- (102, 103): no-op"), "{text}");
        // Unseen original ids grow the map instead of erroring.
        let LineOutcome::Respond(text) = s.handle_line("+ 999 100") else {
            panic!()
        };
        assert!(text.starts_with("+ (999, 100): ok"), "{text}");
        // Protocol introspection.
        let LineOutcome::Respond(text) = s.handle_line("hello") else {
            panic!()
        };
        assert_eq!(text, "# esd-protocol/2 shards=1\n");
        let LineOutcome::Respond(text) = s.handle_line("shards") else {
            panic!()
        };
        assert!(text.starts_with("# shards=1 epochs="), "{text}");
        // Metrics and errors.
        let LineOutcome::Respond(text) = s.handle_line("metrics") else {
            panic!()
        };
        assert!(text.contains("queries_served"), "{text}");
        let LineOutcome::Respond(text) = s.handle_line("telemetry") else {
            panic!()
        };
        assert!(text.starts_with('{') && text.ends_with("}\n"), "{text}");
        assert!(text.contains("\"esd-telemetry/v1\""), "{text}");
        let LineOutcome::Respond(text) = s.handle_line("bogus line") else {
            panic!()
        };
        assert!(text.contains("unrecognised"), "{text}");
        assert_eq!(s.handle_line("quit"), LineOutcome::Quit);
        assert_eq!(s.handle_line(""), LineOutcome::Respond(String::new()));
    }

    #[test]
    fn family_command_switches_ranking_per_session() {
        let (_service, s) = session();
        // Sessions start in (and report) the component family, and a
        // component query summary carries no family annotation.
        let LineOutcome::Respond(text) = s.handle_line("family") else {
            panic!()
        };
        assert_eq!(text, "# family component\n");
        let LineOutcome::Respond(component) = s.handle_line("? 10 2") else {
            panic!()
        };
        assert!(!component.contains("family"), "{component}");
        // Switch to truss: queries now rank by the truss family and say so.
        let LineOutcome::Respond(text) = s.handle_line("family truss") else {
            panic!()
        };
        assert_eq!(text, "# family truss\n");
        let LineOutcome::Respond(text) = s.handle_line("? 10 2") else {
            panic!()
        };
        assert!(text.contains(", family truss)"), "{text}");
        // K4 ego networks are single edges — no triangles, so no truss
        // core reaches τ=2.
        assert!(text.contains("# 0 result(s)"), "{text}");
        // An unknown family errors and leaves the session family alone.
        let LineOutcome::Respond(text) = s.handle_line("family clique") else {
            panic!()
        };
        assert!(text.contains("unknown family"), "{text}");
        assert_eq!(s.family(), esd_core::Family::Truss);
        // Switching back restores the byte-identical component output.
        let LineOutcome::Respond(text) = s.handle_line("family component") else {
            panic!()
        };
        assert_eq!(text, "# family component\n");
        let LineOutcome::Respond(again) = s.handle_line("? 10 2") else {
            panic!()
        };
        // Result lines are byte-identical; the summary line may differ in
        // latency/cache provenance, but stays family-silent.
        let body = |t: &str| t.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(
            again.lines().take(body(&again)).collect::<Vec<_>>(),
            component.lines().take(body(&component)).collect::<Vec<_>>(),
        );
        assert!(!again.contains("family"), "{again}");
    }

    #[test]
    fn self_loop_updates_are_rejected_not_noop() {
        let (_service, s) = session();
        let LineOutcome::Respond(text) = s.handle_line("+ 100 100") else {
            panic!()
        };
        assert!(text.starts_with("+ (100, 100): rejected"), "{text}");
        let LineOutcome::Respond(text) = s.handle_line("- 104 104") else {
            panic!()
        };
        assert!(text.starts_with("- (104, 104): rejected"), "{text}");
    }

    #[test]
    fn sharded_session_speaks_the_same_protocol() {
        let service = ShardedService::start(
            &test_graph(),
            &ShardConfig {
                shards: 2,
                per_shard: ServiceConfig {
                    workers: 0,
                    ..ServiceConfig::default()
                },
            },
        );
        let s = Session::new(service.handle(), test_ids());
        let LineOutcome::Respond(text) = s.handle_line("hello") else {
            panic!()
        };
        assert_eq!(text, "# esd-protocol/2 shards=2\n");
        let LineOutcome::Respond(text) = s.handle_line("? 10 2") else {
            panic!()
        };
        assert!(text.contains("# 6 result(s)"), "{text}");
        assert!(text.contains("epoch [0, 0]"), "{text}");
        let LineOutcome::Respond(text) = s.handle_line("+ 100 104") else {
            panic!()
        };
        assert!(text.starts_with("+ (100, 104): ok"), "{text}");
        assert!(text.contains("epoch [1, 1]"), "{text}");
        let LineOutcome::Respond(text) = s.handle_line("shards") else {
            panic!()
        };
        assert_eq!(text, "# shards=2 epochs=[1, 1]\n");
        let LineOutcome::Respond(text) = s.handle_line("metrics") else {
            panic!()
        };
        assert!(text.contains("-- shard 1 --"), "{text}");
        assert_eq!(s.handle_line("quit"), LineOutcome::Quit);
        service.shutdown();
    }
}
