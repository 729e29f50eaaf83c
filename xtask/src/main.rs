//! `cargo xtask analyze` — the workspace's custom static-analysis gate.
//!
//! Runs five project-specific passes (see the `passes` module) over the
//! first-party sources and exits non-zero when any invariant is violated.
//! The passes are textual with lexical masking (the `scan` module) — the
//! offline build environment has no `syn` — which is exact enough for the
//! narrow, project-shaped properties they check.
//!
//! ```text
//! cargo xtask analyze              # human-readable findings, exit 1 if any
//! cargo xtask analyze --json       # esd-analyze/v1 JSON on stdout
//! cargo xtask analyze --self-test  # each pass must catch a seeded violation
//! cargo xtask analyze --root PATH  # analyze a different checkout
//! ```

mod passes;
mod scan;
mod selftest;

use esd_telemetry::json::Json;
use passes::{run_all, Finding, PASS_NAMES};
use scan::Workspace;
use std::path::PathBuf;
use std::process::ExitCode;

/// Schema identifier stamped into `--json` output.
const SCHEMA: &str = "esd-analyze/v1";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut json = false;
    let mut self_test = false;
    let mut root = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--self-test" => self_test = true,
            "--root" => match it.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => return usage("--root needs a path"),
            },
            flag if flag.starts_with('-') => return usage(&format!("unknown flag {flag}")),
            cmd if command.is_none() => command = Some(cmd.to_owned()),
            extra => return usage(&format!("unexpected argument {extra}")),
        }
    }
    match command.as_deref() {
        Some("analyze") => {}
        Some(other) => return usage(&format!("unknown command {other}")),
        None => return usage("missing command"),
    }

    if self_test {
        return if selftest::run(json) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let root = root.unwrap_or_else(default_root);
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("analyze: cannot load workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let findings = run_all(&ws);
    report(&findings, ws.files.len(), json);
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: the parent of the `xtask` crate directory.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map_or(manifest.clone(), PathBuf::from)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("xtask: {problem}");
    eprintln!("usage: cargo xtask analyze [--json] [--self-test] [--root PATH]");
    ExitCode::from(2)
}

/// Prints findings (human or `esd-analyze/v1` JSON) to stdout.
fn report(findings: &[Finding], files_scanned: usize, json: bool) {
    if json {
        println!("{}", to_json(findings).render_compact());
        return;
    }
    for f in findings {
        println!("{}: {}:{}: {}", f.pass, f.file, f.line, f.message);
    }
    if findings.is_empty() {
        println!(
            "analyze: all {} passes clean over {files_scanned} files",
            PASS_NAMES.len()
        );
    } else {
        println!(
            "analyze: {} finding(s) across {} files — see lines above",
            findings.len(),
            files_scanned
        );
    }
}

/// Renders findings as the `esd-analyze/v1` object.
fn to_json(findings: &[Finding]) -> Json {
    Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("clean", Json::Bool(findings.is_empty())),
        (
            "findings",
            Json::Arr(
                findings
                    .iter()
                    .map(|f| {
                        Json::obj(vec![
                            ("pass", Json::str(f.pass)),
                            ("file", Json::str(f.file.clone())),
                            ("line", Json::num_u64(f.line as u64)),
                            ("message", Json::str(f.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let findings = vec![Finding {
            pass: "lock-unwrap",
            file: "crates/x.rs".to_owned(),
            line: 7,
            message: "m".to_owned(),
        }];
        let text = to_json(&findings).render_compact();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(parsed.get("clean").and_then(Json::as_bool), Some(false));
        let rows = parsed.get("findings").and_then(Json::as_arr).expect("arr");
        assert_eq!(rows[0].get("line").and_then(Json::as_u64), Some(7));
        assert_eq!(
            rows[0].get("pass").and_then(Json::as_str),
            Some("lock-unwrap")
        );
    }

    #[test]
    fn empty_findings_render_clean() {
        let parsed = Json::parse(&to_json(&[]).render_compact()).expect("valid");
        assert_eq!(parsed.get("clean").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn self_test_catches_every_seeded_violation() {
        assert!(crate::selftest::run(false));
    }
}
