//! The `esd-bench/v1` machine-readable perf report.
//!
//! [`suite::run`](crate::suite::run) produces one of these documents per
//! invocation; CI archives it as `BENCH_<suite>.json` so every PR leaves a
//! perf baseline behind. The document shape is frozen by [`BENCH_SCHEMA`]
//! and checked by [`validate`] — `esd bench --check FILE` and the CI
//! `bench-smoke` job both fail on any violation, which is what keeps the
//! archived baselines diffable across PRs. The full field catalogue, with a
//! worked example, lives in `docs/observability.md`.

use crate::TimeStats;
use esd_telemetry::json::Json;
use esd_telemetry::Snapshot;

/// Schema identifier stamped into every report; bump on any shape change.
pub const BENCH_SCHEMA: &str = "esd-bench/v1";

/// Renders a [`TimeStats`] as the `wall_ns` object of a benchmark record.
#[must_use]
pub fn wall_json(stats: &TimeStats) -> Json {
    let ns =
        |d: std::time::Duration| Json::num_u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    Json::obj(vec![
        ("min", ns(stats.min)),
        ("p50", ns(stats.p50)),
        ("max", ns(stats.max)),
        ("mean", ns(stats.mean)),
    ])
}

/// Renders a telemetry [`Snapshot`]'s stage rows as the `stages` array of a
/// benchmark record (same row shape as `esd-telemetry/v1`).
#[must_use]
pub fn stages_json(snap: &Snapshot) -> Json {
    Json::Arr(
        snap.stages
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("total_ns", Json::num_u64(s.total_ns)),
                    ("count", Json::num_u64(s.count)),
                    ("max_ns", Json::num_u64(s.max_ns)),
                ])
            })
            .collect(),
    )
}

/// Renders a telemetry [`Snapshot`]'s counter rows as the `counters` array
/// of a benchmark record.
#[must_use]
pub fn counters_json(snap: &Snapshot) -> Json {
    Json::Arr(
        snap.counters
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("name", Json::str(c.name)),
                    ("value", Json::num_u64(c.value)),
                ])
            })
            .collect(),
    )
}

fn expect_u64(errors: &mut Vec<String>, at: &str, v: Option<&Json>, field: &str) -> Option<u64> {
    match v.and_then(Json::as_u64) {
        Some(n) => Some(n),
        None => {
            errors.push(format!("{at}: missing or non-integer field {field:?}"));
            None
        }
    }
}

fn check_stage_rows(errors: &mut Vec<String>, at: &str, rows: &Json) {
    let Some(rows) = rows.as_arr() else {
        errors.push(format!("{at}: \"stages\" is not an array"));
        return;
    };
    for (i, row) in rows.iter().enumerate() {
        let at = format!("{at}.stages[{i}]");
        if row.get("name").and_then(Json::as_str).is_none() {
            errors.push(format!("{at}: missing string field \"name\""));
        }
        for field in ["total_ns", "count", "max_ns"] {
            expect_u64(errors, &at, row.get(field), field);
        }
        if row.get("count").and_then(Json::as_u64) == Some(0) {
            errors.push(format!("{at}: zero-count stage rows must be omitted"));
        }
    }
}

fn check_counter_rows(errors: &mut Vec<String>, at: &str, rows: &Json) {
    let Some(rows) = rows.as_arr() else {
        errors.push(format!("{at}: \"counters\" is not an array"));
        return;
    };
    for (i, row) in rows.iter().enumerate() {
        let at = format!("{at}.counters[{i}]");
        if row.get("name").and_then(Json::as_str).is_none() {
            errors.push(format!("{at}: missing string field \"name\""));
        }
        expect_u64(errors, &at, row.get("value"), "value");
    }
}

/// A `work_balance` block is the parallel build's report: `threads` plus
/// its per-worker clique counts and per-shard ops.
fn check_work_balance(errors: &mut Vec<String>, at: &str, wb: &Json) {
    let at = format!("{at}.work_balance");
    expect_u64(errors, &at, wb.get("threads"), "threads");
    for field in ["cliques_per_worker", "ops_per_shard"] {
        match wb.get(field).and_then(Json::as_arr) {
            Some(arr) => {
                if arr.iter().any(|v| v.as_u64().is_none()) {
                    errors.push(format!("{at}: {field:?} has a non-integer element"));
                }
            }
            None => errors.push(format!("{at}: missing array field {field:?}")),
        }
    }
}

fn check_benchmark(errors: &mut Vec<String>, i: usize, b: &Json) {
    let at = format!("benchmarks[{i}]");
    if b.get("name").and_then(Json::as_str).is_none() {
        errors.push(format!("{at}: missing string field \"name\""));
    }
    if b.get("dataset").and_then(Json::as_str).is_none() {
        errors.push(format!("{at}: missing string field \"dataset\""));
    }
    if expect_u64(errors, &at, b.get("reps"), "reps") == Some(0) {
        errors.push(format!("{at}: \"reps\" must be at least 1"));
    }
    match b.get("wall_ns") {
        Some(wall) if wall.as_obj().is_some() => {
            let min = expect_u64(errors, &at, wall.get("min"), "wall_ns.min");
            let p50 = expect_u64(errors, &at, wall.get("p50"), "wall_ns.p50");
            let max = expect_u64(errors, &at, wall.get("max"), "wall_ns.max");
            expect_u64(errors, &at, wall.get("mean"), "wall_ns.mean");
            if let (Some(min), Some(p50), Some(max)) = (min, p50, max) {
                if !(min <= p50 && p50 <= max) {
                    errors.push(format!("{at}: wall_ns is not ordered min <= p50 <= max"));
                }
            }
        }
        _ => errors.push(format!("{at}: missing object field \"wall_ns\"")),
    }
    match b.get("stages") {
        Some(rows) => check_stage_rows(errors, &at, rows),
        None => errors.push(format!("{at}: missing field \"stages\"")),
    }
    match b.get("counters") {
        Some(rows) => check_counter_rows(errors, &at, rows),
        None => errors.push(format!("{at}: missing field \"counters\"")),
    }
    match b.get("work_balance") {
        Some(wb) => check_work_balance(errors, &at, wb),
        None => {
            // The parallel build must prove how its work was spread: a
            // report without the block is a schema violation, so
            // `esd bench --check` (and the CI bench-smoke job) fails fast.
            let name = b.get("name").and_then(Json::as_str).unwrap_or("");
            if name == "build_parallel" {
                errors.push(format!(
                    "{at}: benchmark {name:?} must carry a \"work_balance\" block"
                ));
            }
        }
    }
}

/// Validates a parsed report against the `esd-bench/v1` schema. Returns an
/// empty vector when the document conforms; each entry otherwise is one
/// human-readable violation with a JSON-path-ish location.
#[must_use]
pub fn validate(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    if doc.as_obj().is_none() {
        return vec!["root: document is not a JSON object".into()];
    }
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == BENCH_SCHEMA => {}
        Some(s) => errors.push(format!("root: schema {s:?}, expected {BENCH_SCHEMA:?}")),
        None => errors.push("root: missing string field \"schema\"".into()),
    }
    if doc.get("suite").and_then(Json::as_str).is_none() {
        errors.push("root: missing string field \"suite\"".into());
    }
    if doc
        .get("telemetry_enabled")
        .and_then(Json::as_bool)
        .is_none()
    {
        errors.push("root: missing bool field \"telemetry_enabled\"".into());
    }
    match doc.get("host") {
        Some(host) => {
            if expect_u64(&mut errors, "host", host.get("threads"), "threads") == Some(0) {
                errors.push("host: \"threads\" must be at least 1".into());
            }
        }
        None => errors.push("root: missing object field \"host\"".into()),
    }
    match doc.get("benchmarks").and_then(Json::as_arr) {
        Some(benches) => {
            if benches.is_empty() {
                errors.push("benchmarks: must not be empty".into());
            }
            for (i, b) in benches.iter().enumerate() {
                check_benchmark(&mut errors, i, b);
            }
        }
        None => errors.push("root: missing array field \"benchmarks\"".into()),
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn minimal_report() -> Json {
        Json::obj(vec![
            ("schema", Json::str(BENCH_SCHEMA)),
            ("suite", Json::str("smoke")),
            ("telemetry_enabled", Json::Bool(false)),
            ("host", Json::obj(vec![("threads", Json::num_u64(2))])),
            (
                "benchmarks",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::str("build_seq")),
                    ("dataset", Json::str("Youtube/tiny")),
                    ("reps", Json::num_u64(3)),
                    (
                        "wall_ns",
                        Json::obj(vec![
                            ("min", Json::num_u64(10)),
                            ("p50", Json::num_u64(20)),
                            ("max", Json::num_u64(30)),
                            ("mean", Json::num_u64(20)),
                        ]),
                    ),
                    ("stages", Json::Arr(vec![])),
                    ("counters", Json::Arr(vec![])),
                ])]),
            ),
        ])
    }

    #[test]
    fn minimal_report_validates() {
        assert_eq!(validate(&minimal_report()), Vec::<String>::new());
    }

    #[test]
    fn wall_json_round_trips_through_the_validator() {
        let stats = TimeStats {
            reps: 3,
            min: Duration::from_nanos(5),
            p50: Duration::from_nanos(7),
            max: Duration::from_nanos(11),
            mean: Duration::from_nanos(8),
        };
        let wall = wall_json(&stats);
        assert_eq!(wall.get("min").and_then(Json::as_u64), Some(5));
        assert_eq!(wall.get("mean").and_then(Json::as_u64), Some(8));
    }

    #[test]
    fn validator_flags_schema_and_ordering_violations() {
        let mut doc = minimal_report();
        // Wrong schema string.
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::str("esd-bench/v0");
        }
        let errors = validate(&doc);
        assert!(errors.iter().any(|e| e.contains("schema")), "{errors:?}");

        // Unordered wall_ns: min > max.
        let text = minimal_report()
            .render_compact()
            .replace("\"min\":10", "\"min\":99");
        let doc = Json::parse(&text).unwrap();
        let errors = validate(&doc);
        assert!(
            errors.iter().any(|e| e.contains("min <= p50 <= max")),
            "{errors:?}"
        );
    }

    #[test]
    fn validator_rejects_non_objects_and_empty_suites() {
        assert!(!validate(&Json::Null).is_empty());
        let doc = Json::obj(vec![
            ("schema", Json::str(BENCH_SCHEMA)),
            ("suite", Json::str("smoke")),
            ("telemetry_enabled", Json::Bool(true)),
            ("host", Json::obj(vec![("threads", Json::num_u64(1))])),
            ("benchmarks", Json::Arr(vec![])),
        ]);
        let errors = validate(&doc);
        assert!(errors.iter().any(|e| e.contains("must not be empty")));
    }

    #[test]
    fn validator_requires_work_balance_on_the_parallel_build() {
        // The build shape (threads + per-worker clique and op arrays) passes.
        let text = minimal_report().render_compact().replace(
            "\"counters\":[]",
            "\"counters\":[],\"work_balance\":{\"threads\":2,\
             \"cliques_per_worker\":[4,5],\"ops_per_shard\":[6,7]}",
        );
        assert_eq!(validate(&Json::parse(&text).unwrap()), Vec::<String>::new());
        // The parallel build with no work_balance block at all is rejected.
        let text = minimal_report()
            .render_compact()
            .replace("\"build_seq\"", "\"build_parallel\"");
        let errors = validate(&Json::parse(&text).unwrap());
        assert!(
            errors.iter().any(|e| e.contains("work_balance")),
            "{errors:?}"
        );
    }

    #[test]
    fn validator_checks_stage_counter_and_balance_rows() {
        let text = minimal_report().render_compact().replace(
            "\"stages\":[]",
            "\"stages\":[{\"name\":\"build.fill\",\"total_ns\":5,\"count\":0,\"max_ns\":5}]",
        );
        let doc = Json::parse(&text).unwrap();
        assert!(validate(&doc).iter().any(|e| e.contains("zero-count")));

        let text = minimal_report().render_compact().replace(
            "\"counters\":[]",
            "\"counters\":[{\"name\":\"x\"}],\"work_balance\":{\"threads\":2,\"cliques_per_worker\":[1,\"x\"],\"ops_per_shard\":[3]}",
        );
        let doc = Json::parse(&text).unwrap();
        let errors = validate(&doc);
        assert!(errors.iter().any(|e| e.contains("\"value\"")), "{errors:?}");
        assert!(
            errors.iter().any(|e| e.contains("non-integer element")),
            "{errors:?}"
        );
    }
}
