//! The line protocol shared by `esd stream` (stdin) and `esd serve` (TCP)
//! — version 2 (`esd-protocol/2`), fully documented in `docs/protocol.md`:
//!
//! ```text
//! + u v        insert edge (original ids)
//! - u v        remove edge
//! ? k tau      top-k query at threshold tau
//! family       report the session's current query family
//! family NAME  switch the session to a query family (component, truss,
//!              parameter-free, ego-betweenness)
//! hello        protocol banner (version + shard count)
//! shards       shard introspection (count + current epoch vector)
//! metrics      dump the metrics registry
//! telemetry    dump the telemetry snapshot as one JSON line
//! quit         end the session
//! ```
//!
//! Responses are plain text. Update responses are a single line; query
//! responses are the ranked result lines followed by a `#`-prefixed summary
//! line (result count, latency, cache provenance, epoch) that doubles as a
//! frame terminator for TCP clients. Errors are a single `error: …` line —
//! a session never dies on a malformed request.
//!
//! ## Versioning
//!
//! Version 2 added the `hello` / `shards` commands, the connect-time banner
//! the TCP server writes (`# esd-protocol/2 shards=<S>`), epoch *vectors*
//! in summaries when more than one shard answers, and the `, stale (lag N)`
//! staleness annotation. Version 1 clients keep working unchanged: the
//! banner is a `#` comment line (the prefix v1 clients already skip as a
//! summary/terminator), the v1 command set is untouched, and against a
//! single-engine service every epoch renders as the same scalar it always
//! did.
//!
//! The `family` command (still version 2 — purely additive) switches which
//! diversity measure `?` queries rank by for the rest of the session.
//! Sessions start in the `component` family, and a component query summary
//! is byte-identical to the pre-family format; non-component summaries
//! carry an extra `, family <name>` annotation so transcripts are
//! self-describing.

use crate::service::{BatchOutcome, QueryResponse};
use crate::vector_epoch::VectorEpoch;
use crate::IdMap;
use esd_core::{Family, ScoredEdge};

/// The protocol version advertised by [`hello_banner`].
pub const PROTOCOL_VERSION: u32 = 2;

/// One parsed request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `+ u v` — insert an edge, original ids.
    Insert(u64, u64),
    /// `- u v` — remove an edge, original ids.
    Remove(u64, u64),
    /// `? k tau` — top-k query.
    Query {
        /// Number of results requested.
        k: usize,
        /// Component-size threshold (≥ 1).
        tau: u32,
    },
    /// `family` / `family <name>` — report or switch the session's query
    /// family. `None` reports; `Some(f)` switches to `f`.
    Family(Option<Family>),
    /// `hello` — protocol banner (version + shard count).
    Hello,
    /// `shards` — shard count and the current per-shard epoch vector.
    Shards,
    /// `metrics` — dump the metrics registry.
    Metrics,
    /// `telemetry` — dump the process-wide telemetry snapshot as JSON.
    Telemetry,
    /// `quit` — end the session.
    Quit,
}

/// Parses one protocol line. `Ok(None)` is a blank line (ignored);
/// `Err` carries a message suitable for an `error:` response.
pub fn parse_line(line: &str) -> Result<Option<Request>, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let int = |t: &str, what: &str| {
        t.parse::<u64>()
            .map_err(|e| format!("bad {what} {t:?}: {e}"))
    };
    match toks.as_slice() {
        [] => Ok(None),
        ["quit" | "q" | "exit"] => Ok(Some(Request::Quit)),
        ["hello"] => Ok(Some(Request::Hello)),
        ["family"] => Ok(Some(Request::Family(None))),
        ["family", name] => match Family::parse(name) {
            Some(f) => Ok(Some(Request::Family(Some(f)))),
            None => Err(format!(
                "unknown family {name:?} (expected component, truss, parameter-free \
                 or ego-betweenness)"
            )),
        },
        ["shards"] => Ok(Some(Request::Shards)),
        ["metrics"] => Ok(Some(Request::Metrics)),
        ["telemetry"] => Ok(Some(Request::Telemetry)),
        ["+", a, b] => Ok(Some(Request::Insert(int(a, "id")?, int(b, "id")?))),
        ["-", a, b] => Ok(Some(Request::Remove(int(a, "id")?, int(b, "id")?))),
        ["?", k, tau] => {
            let k = usize::try_from(int(k, "k")?).map_err(|e| format!("bad k: {e}"))?;
            let tau = u32::try_from(int(tau, "tau")?).map_err(|e| format!("bad tau: {e}"))?;
            if tau == 0 {
                return Err("tau must be >= 1".into());
            }
            Ok(Some(Request::Query { k, tau }))
        }
        other => Err(format!("unrecognised command {other:?}")),
    }
}

fn fmt_us(d: std::time::Duration) -> String {
    format!("{:.1} µs", d.as_secs_f64() * 1e6)
}

/// The `esd-protocol/2` banner: written by the TCP server on connect and
/// replayed by the `hello` command. A `#` line, so v1 clients skip it.
#[must_use]
pub fn hello_banner(shards: usize) -> String {
    format!("# esd-protocol/{PROTOCOL_VERSION} shards={shards}\n")
}

/// The `shards` introspection response: shard count plus the currently
/// published per-shard epoch vector.
#[must_use]
pub fn format_shards(shards: usize, epochs: &VectorEpoch) -> String {
    format!("# shards={shards} epochs={epochs}\n")
}

/// Formats an update response line, e.g. `+ (7, 9): ok (14.2 µs, epoch 3)`
/// — or `epoch [3, 1]` against a sharded service. Status is `ok` when
/// anything applied, `rejected` when the update was structurally invalid
/// (a self-loop), and `no-op` when the graph already satisfied it.
pub fn format_update(insert: bool, a: u64, b: u64, outcome: &BatchOutcome) -> String {
    format!(
        "{} ({a}, {b}): {} ({}, epoch {})\n",
        if insert { "+" } else { "-" },
        if outcome.applied > 0 {
            "ok"
        } else if outcome.rejected > 0 {
            "rejected"
        } else {
            "no-op"
        },
        fmt_us(outcome.latency),
        outcome.epochs,
    )
}

/// Formats the ranked result lines (original ids) for a query response.
fn format_results(results: &[ScoredEdge], ids: &IdMap) -> String {
    let mut out = String::new();
    for (rank, s) in results.iter().enumerate() {
        out.push_str(&format!(
            "{:>4}  ({}, {})  score {}\n",
            rank + 1,
            ids.original_of(s.edge.u),
            ids.original_of(s.edge.v),
            s.score
        ));
    }
    if results.is_empty() {
        out.push_str("(no edge has a component of size ≥ τ)\n");
    }
    out
}

/// Formats a full query response: result lines plus the `#` summary /
/// terminator line. A degraded answer reports its **maximum per-shard
/// lag**, e.g. `… epoch [4, 6], stale (lag 2)`. A non-component answer is
/// annotated `, family <name>`; component summaries stay byte-identical to
/// the pre-family format.
pub fn format_query(resp: &QueryResponse, ids: &IdMap) -> String {
    let mut out = format_results(&resp.results, ids);
    out.push_str(&format!(
        "# {} result(s) in {} ({}, epoch {}{}{})\n",
        resp.results.len(),
        fmt_us(resp.latency),
        if resp.cache_hit {
            "cache hit"
        } else {
            "cache miss"
        },
        resp.epochs,
        if resp.degraded {
            format!(", stale (lag {})", resp.lag)
        } else {
            String::new()
        },
        if resp.family == Family::Component {
            String::new()
        } else {
            format!(", family {}", resp.family)
        },
    ));
    out
}

/// The `family` command's report line, also echoed after a switch.
#[must_use]
pub fn format_family(family: Family) -> String {
    format!("# family {family}\n")
}

/// Formats an error line.
pub fn format_error(msg: &str) -> String {
    format!("error: {msg}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn parses_every_command() {
        assert_eq!(parse_line("  "), Ok(None));
        assert_eq!(parse_line("+ 3 9"), Ok(Some(Request::Insert(3, 9))));
        assert_eq!(parse_line("- 3 9"), Ok(Some(Request::Remove(3, 9))));
        assert_eq!(
            parse_line("? 10 2"),
            Ok(Some(Request::Query { k: 10, tau: 2 }))
        );
        assert_eq!(parse_line("hello"), Ok(Some(Request::Hello)));
        assert_eq!(parse_line("family"), Ok(Some(Request::Family(None))));
        assert_eq!(
            parse_line("family truss"),
            Ok(Some(Request::Family(Some(Family::Truss))))
        );
        assert_eq!(
            parse_line("family pf"),
            Ok(Some(Request::Family(Some(Family::ParameterFree))))
        );
        assert_eq!(parse_line("shards"), Ok(Some(Request::Shards)));
        assert_eq!(parse_line("metrics"), Ok(Some(Request::Metrics)));
        assert_eq!(parse_line("telemetry"), Ok(Some(Request::Telemetry)));
        for q in ["quit", "q", "exit"] {
            assert_eq!(parse_line(q), Ok(Some(Request::Quit)));
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("bogus line")
            .unwrap_err()
            .contains("unrecognised"));
        assert!(parse_line("+ x 9").unwrap_err().contains("bad id"));
        assert!(parse_line("? 5 0").unwrap_err().contains("tau"));
        assert!(parse_line("? 5").unwrap_err().contains("unrecognised"));
        assert!(parse_line("family clique")
            .unwrap_err()
            .contains("unknown family"));
    }

    #[test]
    fn banner_and_shards_are_comment_lines() {
        assert_eq!(hello_banner(1), "# esd-protocol/2 shards=1\n");
        assert_eq!(hello_banner(4), "# esd-protocol/2 shards=4\n");
        let epochs = VectorEpoch::from_shards(vec![3, 0, 7]);
        assert_eq!(format_shards(3, &epochs), "# shards=3 epochs=[3, 0, 7]\n");
        assert_eq!(
            format_shards(1, &VectorEpoch::scalar(5)),
            "# shards=1 epochs=5\n"
        );
    }

    #[test]
    fn query_formatting_frames_with_summary() {
        let ids = IdMap::from_original(vec![100, 101]);
        let resp = QueryResponse {
            results: Arc::new(vec![ScoredEdge {
                edge: esd_graph::Edge::new(0, 1),
                score: 3,
            }]),
            family: Family::Component,
            epoch: 2,
            epochs: VectorEpoch::scalar(2),
            cache_hit: true,
            degraded: true,
            lag: 1,
            latency: Duration::from_micros(12),
        };
        let text = format_query(&resp, &ids);
        assert!(text.contains("(100, 101)  score 3"));
        assert!(text.lines().last().unwrap().starts_with("# 1 result(s)"));
        assert!(text.contains("cache hit"));
        assert!(text.contains("epoch 2, stale (lag 1)"), "{text}");
        assert!(
            !text.contains("family"),
            "component summaries stay family-silent: {text}"
        );
        let annotated = format_query(
            &QueryResponse {
                family: Family::Truss,
                ..resp
            },
            &ids,
        );
        assert!(
            annotated.contains("epoch 2, stale (lag 1), family truss"),
            "{annotated}"
        );
        assert_eq!(
            format_family(Family::EgoBetweenness),
            "# family ego-betweenness\n"
        );
    }

    #[test]
    fn sharded_query_summary_reports_the_epoch_vector() {
        let ids = IdMap::default();
        let epochs = VectorEpoch::from_shards(vec![4, 6]);
        let resp = QueryResponse {
            results: Arc::new(Vec::new()),
            family: Family::Component,
            epoch: epochs.sum(),
            epochs,
            cache_hit: false,
            degraded: true,
            lag: 2,
            latency: Duration::from_micros(9),
        };
        let text = format_query(&resp, &ids);
        assert!(text.contains("epoch [4, 6], stale (lag 2)"), "{text}");
    }

    #[test]
    fn empty_query_still_frames() {
        let ids = IdMap::default();
        let resp = QueryResponse {
            results: Arc::new(Vec::new()),
            family: Family::Component,
            epoch: 0,
            epochs: VectorEpoch::scalar(0),
            cache_hit: false,
            degraded: false,
            lag: 0,
            latency: Duration::from_micros(1),
        };
        let text = format_query(&resp, &ids);
        assert!(text.contains("no edge has a component"));
        assert!(text.lines().last().unwrap().starts_with("# 0 result(s)"));
    }

    #[test]
    fn update_formatting() {
        let outcome = BatchOutcome {
            applied: 1,
            noop: 0,
            rejected: 0,
            epoch: 4,
            epochs: VectorEpoch::scalar(4),
            latency: Duration::from_micros(20),
        };
        let line = format_update(true, 7, 9, &outcome);
        assert!(line.starts_with("+ (7, 9): ok"));
        assert!(line.contains("epoch 4"));
        let noop = BatchOutcome {
            applied: 0,
            noop: 1,
            rejected: 0,
            epoch: 4,
            epochs: VectorEpoch::from_shards(vec![4, 2]),
            latency: Duration::from_micros(5),
        };
        let text = format_update(false, 7, 9, &noop);
        assert!(text.starts_with("- (7, 9): no-op"));
        assert!(text.contains("epoch [4, 2]"), "{text}");
        let rejected = BatchOutcome {
            applied: 0,
            noop: 0,
            rejected: 1,
            epoch: 4,
            epochs: VectorEpoch::scalar(4),
            latency: Duration::from_micros(5),
        };
        assert!(format_update(true, 7, 7, &rejected).starts_with("+ (7, 7): rejected"));
    }
}
