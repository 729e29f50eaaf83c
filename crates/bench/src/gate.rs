//! The `esd bench gate` perf-regression contract.
//!
//! A checked-in [`BASELINE_SCHEMA`] document (`bench/baseline.json`) pins
//! the expected wall p50 of every benchmark in the smoke suite. [`compare`]
//! takes a fresh `esd-bench/v1` report and fails — exits the CLI non-zero —
//! when any baselined benchmark regressed beyond its tolerance band or
//! disappeared from the report. Benchmarks present in the report but absent
//! from the baseline are surfaced as warnings (they pass, so adding a
//! benchmark does not hard-fail CI before the intentional re-baseline).
//!
//! Tolerance precedence, strongest first: the per-entry `tolerance_pct`
//! field, the CLI `--tolerance` override, the file-level
//! `default_tolerance_pct`, then [`DEFAULT_TOLERANCE_PCT`]. The default band
//! is deliberately wide — smoke benchmarks are sub-millisecond runs on noisy
//! shared CI hosts, and the gate exists to catch algorithmic regressions
//! (2–3× cliffs), not 10% drift. Methodology and the re-baselining workflow
//! live in `docs/benchmarking.md`.

use crate::report::{validate, BENCH_SCHEMA};
use esd_telemetry::json::Json;

/// Schema identifier of the baseline document; bump on any shape change.
pub const BASELINE_SCHEMA: &str = "esd-bench-baseline/v1";

/// Tolerance band applied when neither the baseline entry, the CLI, nor the
/// baseline file sets one: a benchmark fails the gate when its fresh wall
/// p50 exceeds baseline × (1 + 150/100) = 2.5× the pinned value.
pub const DEFAULT_TOLERANCE_PCT: u64 = 150;

/// What [`compare`] found. The gate passes iff [`GateOutcome::passed`].
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Baselined benchmarks found in the report and compared.
    pub checked: usize,
    /// Human-readable rows for benchmarks beyond tolerance — each one a
    /// gate failure.
    pub regressions: Vec<String>,
    /// Baselined benchmarks missing from the fresh report — coverage loss,
    /// also a gate failure.
    pub missing: Vec<String>,
    /// Benchmarks that got faster than the baseline by more than their
    /// tolerance band — informational; a hint to re-baseline so the gate
    /// stays tight around current reality.
    pub improvements: Vec<String>,
    /// Report benchmarks with no baseline entry — informational; they are
    /// not gated until the next re-baseline.
    pub unbaselined: Vec<String>,
}

impl GateOutcome {
    /// `true` when no benchmark regressed and none went missing.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

fn bench_key(b: &Json) -> Option<(String, String)> {
    let name = b.get("name").and_then(Json::as_str)?;
    let dataset = b.get("dataset").and_then(Json::as_str)?;
    Some((name.to_string(), dataset.to_string()))
}

/// Validates a parsed baseline against the `esd-bench-baseline/v1` schema.
/// Returns one human-readable violation per entry, empty when conformant.
#[must_use]
pub fn validate_baseline(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    if doc.as_obj().is_none() {
        return vec!["baseline: document is not a JSON object".into()];
    }
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == BASELINE_SCHEMA => {}
        Some(s) => errors.push(format!(
            "baseline: schema {s:?}, expected {BASELINE_SCHEMA:?}"
        )),
        None => errors.push("baseline: missing string field \"schema\"".into()),
    }
    if let Some(v) = doc.get("default_tolerance_pct") {
        if v.as_u64().is_none() {
            errors.push("baseline: \"default_tolerance_pct\" is not an integer".into());
        }
    }
    match doc.get("benchmarks").and_then(Json::as_arr) {
        Some(entries) => {
            if entries.is_empty() {
                errors.push("baseline: \"benchmarks\" must not be empty".into());
            }
            for (i, entry) in entries.iter().enumerate() {
                let at = format!("baseline.benchmarks[{i}]");
                if bench_key(entry).is_none() {
                    errors.push(format!("{at}: missing string \"name\"/\"dataset\""));
                }
                if entry.get("wall_p50_ns").and_then(Json::as_u64).is_none() {
                    errors.push(format!("{at}: missing integer field \"wall_p50_ns\""));
                }
                if let Some(v) = entry.get("tolerance_pct") {
                    if v.as_u64().is_none() {
                        errors.push(format!("{at}: \"tolerance_pct\" is not an integer"));
                    }
                }
            }
        }
        None => errors.push("baseline: missing array field \"benchmarks\"".into()),
    }
    errors
}

/// Distils a fresh `esd-bench/v1` report into a baseline document pinning
/// each benchmark's wall p50. `tolerance_pct` becomes the file-level
/// `default_tolerance_pct` when given; per-entry bands can be added by hand
/// afterwards. Errors when the report itself does not validate.
pub fn baseline_from_report(report: &Json, tolerance_pct: Option<u64>) -> Result<Json, String> {
    let report_errors = validate(report);
    if !report_errors.is_empty() {
        return Err(format!(
            "report does not validate against {BENCH_SCHEMA}:\n  {}",
            report_errors.join("\n  ")
        ));
    }
    let benches = report
        .get("benchmarks")
        .and_then(Json::as_arr)
        .expect("validated report has benchmarks");
    let mut entries = Vec::new();
    for b in benches {
        let (name, dataset) = bench_key(b).expect("validated benchmark has name/dataset");
        let p50 = b
            .get("wall_ns")
            .and_then(|w| w.get("p50"))
            .and_then(Json::as_u64)
            .expect("validated benchmark has wall_ns.p50");
        entries.push(Json::obj(vec![
            ("name", Json::str(&name)),
            ("dataset", Json::str(&dataset)),
            ("wall_p50_ns", Json::num_u64(p50)),
        ]));
    }
    let mut fields = vec![("schema", Json::str(BASELINE_SCHEMA))];
    if let Some(suite) = report.get("suite").and_then(Json::as_str) {
        fields.push(("suite", Json::str(suite)));
    }
    fields.push((
        "default_tolerance_pct",
        Json::num_u64(tolerance_pct.unwrap_or(DEFAULT_TOLERANCE_PCT)),
    ));
    fields.push(("benchmarks", Json::Arr(entries)));
    Ok(Json::obj(fields))
}

/// Compares a fresh report against a baseline. `tolerance_override` is the
/// CLI `--tolerance` value; see the module doc for the precedence order.
/// Errors when either document fails its schema validation — a malformed
/// gate input must never pass silently.
pub fn compare(
    report: &Json,
    baseline: &Json,
    tolerance_override: Option<u64>,
) -> Result<GateOutcome, String> {
    let mut doc_errors = validate(report);
    doc_errors.extend(validate_baseline(baseline));
    if !doc_errors.is_empty() {
        return Err(format!(
            "gate inputs invalid:\n  {}",
            doc_errors.join("\n  ")
        ));
    }
    let file_default = baseline.get("default_tolerance_pct").and_then(Json::as_u64);
    let report_benches = report
        .get("benchmarks")
        .and_then(Json::as_arr)
        .expect("validated report has benchmarks");
    let entries = baseline
        .get("benchmarks")
        .and_then(Json::as_arr)
        .expect("validated baseline has benchmarks");

    let mut outcome = GateOutcome::default();
    let mut baselined: Vec<(String, String)> = Vec::new();
    for entry in entries {
        let (name, dataset) = bench_key(entry).expect("validated entry has name/dataset");
        baselined.push((name.clone(), dataset.clone()));
        let Some(fresh) = report_benches
            .iter()
            .find(|b| bench_key(b).as_ref() == Some(&(name.clone(), dataset.clone())))
        else {
            outcome
                .missing
                .push(format!("{name} [{dataset}]: not in the fresh report"));
            continue;
        };
        let pinned = entry
            .get("wall_p50_ns")
            .and_then(Json::as_u64)
            .expect("validated entry has wall_p50_ns");
        let fresh_p50 = fresh
            .get("wall_ns")
            .and_then(|w| w.get("p50"))
            .and_then(Json::as_u64)
            .expect("validated benchmark has wall_ns.p50");
        let tolerance = entry
            .get("tolerance_pct")
            .and_then(Json::as_u64)
            .or(tolerance_override)
            .or(file_default)
            .unwrap_or(DEFAULT_TOLERANCE_PCT);
        outcome.checked += 1;
        // ceiling = pinned × (100 + tolerance) / 100, in u128 so a large
        // pinned value cannot overflow the multiply.
        let ceiling = u128::from(pinned) * u128::from(100 + tolerance) / 100;
        let floor = u128::from(pinned) * 100 / u128::from(100 + tolerance);
        let row = |verdict: &str| {
            format!(
                "{name} [{dataset}]: {verdict} — p50 {fresh_p50} ns vs baseline {pinned} ns \
                 (tolerance {tolerance}%)"
            )
        };
        if u128::from(fresh_p50) > ceiling {
            outcome.regressions.push(row("regressed"));
        } else if u128::from(fresh_p50) < floor {
            outcome.improvements.push(row("improved"));
        }
    }
    for b in report_benches {
        if let Some(key) = bench_key(b) {
            if !baselined.contains(&key) {
                outcome
                    .unbaselined
                    .push(format!("{} [{}]: no baseline entry", key.0, key.1));
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(p50s: &[(&str, &str, u64)]) -> Json {
        let benches = p50s
            .iter()
            .map(|&(name, dataset, p50)| {
                Json::obj(vec![
                    ("name", Json::str(name)),
                    ("dataset", Json::str(dataset)),
                    ("reps", Json::num_u64(3)),
                    (
                        "wall_ns",
                        Json::obj(vec![
                            ("min", Json::num_u64(p50.saturating_sub(1))),
                            ("p50", Json::num_u64(p50)),
                            ("max", Json::num_u64(p50 + 1)),
                            ("mean", Json::num_u64(p50)),
                        ]),
                    ),
                    ("stages", Json::Arr(vec![])),
                    ("counters", Json::Arr(vec![])),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str(BENCH_SCHEMA)),
            ("suite", Json::str("smoke")),
            ("telemetry_enabled", Json::Bool(false)),
            ("host", Json::obj(vec![("threads", Json::num_u64(1))])),
            ("benchmarks", Json::Arr(benches)),
        ])
    }

    #[test]
    fn baseline_round_trips_and_passes_against_its_own_report() {
        let report = report_with(&[("build_seq", "Youtube/tiny", 1000)]);
        let baseline = baseline_from_report(&report, None).unwrap();
        assert_eq!(validate_baseline(&baseline), Vec::<String>::new());
        assert_eq!(
            baseline.get("schema").and_then(Json::as_str),
            Some(BASELINE_SCHEMA)
        );
        let outcome = compare(&report, &baseline, None).unwrap();
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(outcome.checked, 1);
        assert!(outcome.improvements.is_empty());
        assert!(outcome.unbaselined.is_empty());
    }

    #[test]
    fn regression_beyond_tolerance_fails_the_gate() {
        let baseline =
            baseline_from_report(&report_with(&[("build_seq", "Youtube/tiny", 1000)]), None)
                .unwrap();
        // 2.5× the pinned 1000 ns is the default ceiling; 2600 is beyond it.
        let slow = report_with(&[("build_seq", "Youtube/tiny", 2600)]);
        let outcome = compare(&slow, &baseline, None).unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.regressions.len(), 1);
        assert!(outcome.regressions[0].contains("regressed"), "{outcome:?}");
        // 2400 is inside the band.
        let ok = report_with(&[("build_seq", "Youtube/tiny", 2400)]);
        assert!(compare(&ok, &baseline, None).unwrap().passed());
    }

    #[test]
    fn tolerance_precedence_entry_beats_cli_beats_file_default() {
        let mut baseline = baseline_from_report(
            &report_with(&[("build_seq", "Youtube/tiny", 1000)]),
            Some(10),
        )
        .unwrap();
        // File default 10% → 1200 regresses…
        let fresh = report_with(&[("build_seq", "Youtube/tiny", 1200)]);
        assert!(!compare(&fresh, &baseline, None).unwrap().passed());
        // …CLI override 50% admits it…
        assert!(compare(&fresh, &baseline, Some(50)).unwrap().passed());
        // …and a per-entry 5% band beats both.
        let text = baseline.render_compact().replace(
            "\"wall_p50_ns\":1000",
            "\"wall_p50_ns\":1000,\"tolerance_pct\":5",
        );
        baseline = Json::parse(&text).unwrap();
        assert!(!compare(&fresh, &baseline, Some(50)).unwrap().passed());
    }

    #[test]
    fn missing_benchmark_fails_but_unbaselined_only_warns() {
        let baseline = baseline_from_report(
            &report_with(&[
                ("build_seq", "Youtube/tiny", 1000),
                ("query_topk", "Youtube/tiny", 500),
            ]),
            None,
        )
        .unwrap();
        // query_topk vanished; a new benchmark appeared.
        let fresh = report_with(&[
            ("build_seq", "Youtube/tiny", 1000),
            ("intersect_hub_gallop", "synthetic/hub", 200),
        ]);
        let outcome = compare(&fresh, &baseline, None).unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.missing.len(), 1);
        assert!(outcome.missing[0].contains("query_topk"));
        assert_eq!(outcome.unbaselined.len(), 1);
        assert!(outcome.unbaselined[0].contains("intersect_hub_gallop"));
    }

    #[test]
    fn large_improvements_are_surfaced_for_rebaselining() {
        let baseline =
            baseline_from_report(&report_with(&[("build_seq", "Youtube/tiny", 10_000)]), None)
                .unwrap();
        let fast = report_with(&[("build_seq", "Youtube/tiny", 1000)]);
        let outcome = compare(&fast, &baseline, None).unwrap();
        assert!(outcome.passed());
        assert_eq!(outcome.improvements.len(), 1);
    }

    #[test]
    fn malformed_inputs_error_instead_of_passing() {
        let report = report_with(&[("build_seq", "Youtube/tiny", 1000)]);
        let baseline = baseline_from_report(&report, None).unwrap();
        assert!(compare(&Json::Null, &baseline, None).is_err());
        assert!(compare(&report, &Json::Null, None).is_err());
        let bad_schema = Json::parse(
            &baseline
                .render_compact()
                .replace(BASELINE_SCHEMA, "esd-bench-baseline/v0"),
        )
        .unwrap();
        let err = compare(&report, &bad_schema, None).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        assert!(baseline_from_report(&Json::Null, None).is_err());
    }

    #[test]
    fn validate_baseline_flags_entry_violations() {
        let doc = Json::parse(
            r#"{"schema":"esd-bench-baseline/v1","default_tolerance_pct":"x",
                "benchmarks":[{"name":"a"},{"name":"b","dataset":"d","wall_p50_ns":1,
                "tolerance_pct":"y"}]}"#,
        )
        .unwrap();
        let errors = validate_baseline(&doc);
        assert!(
            errors.iter().any(|e| e.contains("default_tolerance_pct")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("name\"/\"dataset")),
            "{errors:?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("\"tolerance_pct\" is not an integer")),
            "{errors:?}"
        );
    }
}
