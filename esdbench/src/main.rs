//! `esdbench` — the repository benchmark.
//!
//! ```text
//! esdbench --workload <serve_read|serve_ingest|offline_search> --seed <n>
//!          --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Runs one seeded workload against the public API from a single client
//! thread, checks every answer, and prints human-readable lines followed
//! by one JSON object as the last line of standard output. With
//! `--trace 0` the JSON carries the end-to-end metrics; with `--trace 1`
//! (only in a build with the `trace` feature) it replays the script
//! against each layer and carries the per-layer metrics. `run.py` builds
//! both variants and is the intended entry point.

mod layers;
mod stats;
mod workloads;

use stats::Metric;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Outcome, Plan};

#[derive(Debug)]
struct Args {
    workload: String,
    plan: Plan,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/esdbench-work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("bad {flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--work-dir" => work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        plan: Plan {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10),
            tiny: false,
            work_dir: work_dir.join(format!("run-{}", std::process::id())),
        },
        trace: trace.unwrap_or(false),
    })
}

/// Refuses to measure a build that would not measure the shipped code.
fn build_guard(trace: bool) -> Result<(), String> {
    if esd::serve::faults::enabled() {
        return Err("fault-injection is compiled in".into());
    }
    if esd::telemetry::enabled() != trace {
        return Err(format!(
            "telemetry armed = {}, but --trace {}; run the matching build (see run.py)",
            esd::telemetry::enabled(),
            u8::from(trace)
        ));
    }
    let kernels = esd::graph::intersect::kernel_config();
    if kernels != esd::graph::intersect::KernelConfig::default() {
        return Err(format!(
            "intersection kernel config {kernels:?} is not the shipped default"
        ));
    }
    Ok(())
}

pub(crate) fn run_workload(name: &str, plan: &Plan) -> Result<Outcome, String> {
    match name {
        "serve_read" => Ok(workloads::serve_read(plan)),
        "serve_ingest" => Ok(workloads::serve_ingest(plan)),
        "offline_search" => Ok(workloads::offline_search(plan)),
        other => Err(format!(
            "unknown workload {other:?} (serve_read, serve_ingest, offline_search)"
        )),
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!(
            "#   {:<40} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("esdbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = build_guard(args.trace) {
        eprintln!("esdbench: build guard: {e}");
        return ExitCode::from(2);
    }
    let plan = &args.plan;
    if let Err(e) = std::fs::create_dir_all(&plan.work_dir) {
        eprintln!("esdbench: cannot create {}: {e}", plan.work_dir.display());
        return ExitCode::from(1);
    }
    let before = esd::telemetry::snapshot();
    let outcome = match run_workload(&args.workload, plan) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("esdbench: {e}");
            let _ = std::fs::remove_dir_all(&plan.work_dir);
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} seed {} ops {} phase_s {:.4} threads {}",
        args.workload,
        plan.seed,
        outcome.attempted,
        outcome.phase_s,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        "# fingerprint {} {:016x}",
        args.workload, outcome.fingerprint
    );
    print_metrics("end-to-end", &outcome.metrics);
    let mut problems = outcome.problems.clone();
    let reported = if args.trace {
        let layer = layers::replay(&args.workload, &outcome, plan, &before);
        problems.extend(layer.problems.iter().cloned());
        print_metrics("per-layer", &layer.metrics);
        layer.metrics
    } else {
        outcome.metrics.clone()
    };
    let _ = std::fs::remove_dir_all(&plan.work_dir);
    for p in &problems {
        println!("# INCORRECT: {p}");
    }
    println!(
        "{}",
        json_line(
            problems.is_empty(),
            outcome.attempted,
            outcome.failed,
            &reported
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    /// The feature set cargo resolves for this package, plain and traced,
    /// never arms the audit layer or fault injection.
    #[test]
    fn resolved_features_exclude_strict_invariants() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        for extra in [&[][..], &["--features", "trace"][..]] {
            let out = Command::new(&cargo)
                .args([
                    "tree",
                    "--offline",
                    "-e",
                    "features",
                    "--manifest-path",
                    manifest,
                ])
                .args(extra)
                .output()
                .expect("cargo tree runs");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let tree = String::from_utf8_lossy(&out.stdout);
            assert!(
                tree.contains("esd-core"),
                "the tree lists the stack:\n{tree}"
            );
            assert!(
                !tree.contains("strict-invariants"),
                "strict-invariants resolved:\n{tree}"
            );
            assert!(
                !tree.contains("fault-injection"),
                "fault-injection resolved:\n{tree}"
            );
        }
    }

    /// A shortened script run twice with one seed returns the same
    /// fingerprint and the same replay work counts (`PipelineReport`,
    /// `FamilyApplyReport`, `OnlineStats`, `BuildStats`), with every
    /// correctness check passing.
    #[test]
    fn one_seed_repeats_fingerprints_and_counts() {
        let scratch = std::env::current_exe()
            .expect("test binary path")
            .with_file_name("esdbench-selftest");
        for workload in ["serve_read", "serve_ingest", "offline_search"] {
            let runs: Vec<(u64, Vec<u64>)> = (0..2)
                .map(|i| {
                    let plan = Plan {
                        seed: 7,
                        seconds: 1,
                        tiny: true,
                        work_dir: scratch.join(format!("{workload}-{i}")),
                    };
                    std::fs::create_dir_all(&plan.work_dir).expect("scratch dir");
                    let before = esd::telemetry::snapshot();
                    let outcome = run_workload(workload, &plan).expect("known workload");
                    let layer = layers::replay(workload, &outcome, &plan, &before);
                    let _ = std::fs::remove_dir_all(&plan.work_dir);
                    assert_eq!(outcome.failed, 0, "{workload}");
                    assert!(
                        outcome.problems.is_empty(),
                        "{workload}: {:?}",
                        outcome.problems
                    );
                    assert!(
                        layer.problems.is_empty(),
                        "{workload}: {:?}",
                        layer.problems
                    );
                    assert!(!layer.counts.is_empty(), "{workload}");
                    (outcome.fingerprint, layer.counts)
                })
                .collect();
            assert_eq!(
                runs[0], runs[1],
                "{workload}: one seed, two different results"
            );
        }
    }
}
