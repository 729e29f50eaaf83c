//! `esd` — command-line top-k edge structural diversity search.
//!
//! ```text
//! esd stats  <graph.txt>                         graph statistics (Table I columns)
//! esd topk   <graph.txt> [-k N] [--tau T] [--family F] [--algo online|online+|index]
//! esd build  <graph.txt> -o <index.esdx>         build + persist the index
//! esd query  <index.esdx> [-k N] [--tau T]       query a persisted index
//! esd stream <graph.txt>                         read updates/queries from stdin:
//!                                                  + u v | - u v | ? k tau | family [F] | quit
//! esd serve  <graph.txt> [--port P] [--threads N]  TCP query service (same protocol)
//!            [--shards S] [--wal-dir DIR] [--checkpoint-interval N] [--ack enqueue]
//! esd recover <wal-dir> [-o <out.esdx>]          inspect/replay durable state
//! esd ego    <graph.txt> <u> <v> [-o <out.dot>]  render an edge ego-network
//! esd explain <graph.txt> <u> <v>                score/context breakdown
//! esd audit  <index.esdx> [graph.txt]            structural invariant audit
//! esd bench  [--suite smoke|full] [--json] [-o FILE] [--reps N] [--threads N]
//! esd bench  --check <BENCH.json>                validate a bench report
//! esd bench  gate <BENCH.json> [--baseline F] [--tolerance PCT] [--rebaseline]
//! ```
//!
//! `stream` and `serve` share one engine (`esd-serve`): `stream` runs the
//! protocol session inline on stdin, `serve` puts the same session behind a
//! worker pool and a TCP accept loop, with snapshot isolation, a result
//! cache, and live `metrics`.
//!
//! `audit` runs every structural validator over a persisted index (rank
//! order, list nesting, score monotonicity, …) and — when the source graph
//! is supplied — the full semantic comparison against ground truth
//! recomputed from scratch. It prints one line per violation and exits
//! nonzero if any invariant is broken, so it can gate deployment pipelines.
//!
//! `bench` runs the `esd-bench` suites over bundled surrogate datasets and
//! emits an `esd-bench/v1` JSON report (stage timings and kernel counters
//! from `esd-telemetry`, wall-time distributions from the harness). CI
//! archives one per PR as `BENCH_smoke.json`; `--check` re-validates an
//! existing report against the schema. See `docs/observability.md`.
//!
//! `bench gate` turns those reports into a perf contract: it compares a
//! fresh report against the checked-in `bench/baseline.json` and exits
//! nonzero when any benchmark's wall p50 regressed beyond its tolerance
//! band (or vanished from the report). `--rebaseline` rewrites the baseline
//! from the supplied report — the intentional way to accept a perf change.
//! Bands and methodology are documented in `docs/benchmarking.md`.
//!
//! With `--wal-dir` the serve engine runs durably: every acked update
//! batch is appended to an epoch-stamped, CRC-checked write-ahead log and
//! (by default) fsynced before the ack; periodic full edge-set checkpoints
//! bound replay time. Restarting `esd serve` with the same `--wal-dir`
//! recovers the pre-crash published state; `esd recover` inspects a
//! durable directory offline and can export the recovered index as an
//! ESDX file. See `docs/durability.md`.
//!
//! Graphs are SNAP-style edge lists (`u<ws>v` per line, `#` comments).
//! `topk`/`stream` print the file's original vertex ids; a persisted index
//! stores the dense relabelling (first-appearance order), which `build`
//! writes next to the index as `<index>.ids` so `query` can translate back.

use esd::Error;
use esd_core::online::{online_topk, UpperBound};
use esd_core::{EsdIndex, ScoredEdge};
use esd_graph::io;
use esd_serve::{
    AckPolicy, DurabilityConfig, EngineHandle, IdMap, LineOutcome, RecoveryReport, Server, Service,
    ServiceConfig, Session, ShardConfig, ShardedService,
};
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(err) => {
            eprintln!("error: {err}");
            // Exit-code policy lives in esd::Error: usage mistakes (and only
            // those) get the help text and exit 2; runtime failures exit 1.
            if err.is_usage() {
                eprintln!("{USAGE}");
            }
            ExitCode::from(err.exit_code())
        }
    }
}

const USAGE: &str = "\
usage:
  esd stats  <graph.txt>
  esd topk   <graph.txt> [-k N] [--tau T] [--family F] [--algo online|online+|index]
             F: component (default) | truss | parameter-free | ego-betweenness
  esd build  <graph.txt> -o <index.esdx>
  esd query  <index.esdx> [-k N] [--tau T]
  esd stream <graph.txt> [--pipeline-threads N]
  esd serve  <graph.txt> [--port P] [--threads N] [--pipeline-threads N]
             [--shards S] [--wal-dir DIR] [--checkpoint-interval N] [--ack fsync|enqueue]
  esd recover <wal-dir> [-o <out.esdx>]           inspect/replay durable state
  esd ego    <graph.txt> <u> <v> [-o <out.dot>]   render an edge ego-network
  esd explain <graph.txt> <u> <v>                 score/context breakdown
  esd audit  <index.esdx> [graph.txt]             structural invariant audit
  esd bench  [--suite smoke|full] [--json] [-o FILE] [--reps N] [--threads N]
  esd bench  --check <BENCH.json>                 validate a bench report
  esd bench  gate <BENCH.json> [--baseline FILE] [--tolerance PCT] [--rebaseline]
                                                  perf gate vs bench/baseline.json";

struct Options {
    k: usize,
    tau: u32,
    family: esd_core::Family,
    algo: String,
    output: Option<String>,
    port: u16,
    threads: usize,
    shards: u32,
    pipeline_threads: usize,
    suite: String,
    json: bool,
    reps: usize,
    check: Option<String>,
    baseline: Option<String>,
    tolerance: Option<u64>,
    rebaseline: bool,
    wal_dir: Option<String>,
    checkpoint_interval: u64,
    ack: String,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        k: 10,
        tau: 2,
        family: esd_core::Family::Component,
        algo: "index".into(),
        output: None,
        port: 7687,
        threads: 4,
        shards: 1,
        pipeline_threads: 2,
        suite: "smoke".into(),
        json: false,
        reps: 3,
        check: None,
        baseline: None,
        tolerance: None,
        rebaseline: false,
        wal_dir: None,
        checkpoint_interval: 32,
        ack: "fsync".into(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "-k" => opts.k = value("-k")?.parse().map_err(|e| format!("bad -k: {e}"))?,
            "--tau" => {
                opts.tau = value("--tau")?
                    .parse()
                    .map_err(|e| format!("bad --tau: {e}"))?;
            }
            "--family" => {
                let name = value("--family")?;
                opts.family = esd_core::Family::parse(&name).ok_or_else(|| {
                    format!(
                        "bad --family {name:?} (component | truss | parameter-free \
                         | ego-betweenness)"
                    )
                })?;
            }
            "--algo" => opts.algo = value("--algo")?,
            "-o" | "--output" => opts.output = Some(value("-o")?),
            "--port" => {
                opts.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("bad --port: {e}"))?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--shards" => {
                opts.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?;
            }
            "--pipeline-threads" => {
                opts.pipeline_threads = value("--pipeline-threads")?
                    .parse()
                    .map_err(|e| format!("bad --pipeline-threads: {e}"))?;
            }
            "--suite" => opts.suite = value("--suite")?,
            "--json" => opts.json = true,
            "--reps" => {
                opts.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("bad --reps: {e}"))?;
            }
            "--check" => opts.check = Some(value("--check")?),
            "--baseline" => opts.baseline = Some(value("--baseline")?),
            "--tolerance" => {
                opts.tolerance = Some(
                    value("--tolerance")?
                        .parse()
                        .map_err(|e| format!("bad --tolerance: {e}"))?,
                );
            }
            "--rebaseline" => opts.rebaseline = true,
            "--wal-dir" => opts.wal_dir = Some(value("--wal-dir")?),
            "--checkpoint-interval" => {
                opts.checkpoint_interval = value("--checkpoint-interval")?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-interval: {e}"))?;
            }
            "--ack" => opts.ack = value("--ack")?,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => opts.positional.push(other.to_string()),
        }
    }
    if opts.tau == 0 {
        return Err("--tau must be at least 1".into());
    }
    if opts.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<ExitCode, Error> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    let opts = parse(rest)?;
    let done = |r: Result<(), Error>| r.map(|()| ExitCode::SUCCESS);
    match cmd.as_str() {
        "stats" => done(stats(&opts)),
        "topk" => done(topk(&opts)),
        "build" => done(build(&opts)),
        "query" => done(query(&opts)),
        "stream" => done(stream(&opts)),
        "serve" => done(serve(&opts)),
        "recover" => done(recover(&opts)),
        "ego" => done(ego(&opts)),
        "explain" => done(explain(&opts)),
        "audit" => audit(&opts),
        "bench" => bench(&opts),
        other => Err(format!("unknown subcommand {other:?}").into()),
    }
}

/// Audits a persisted index: every structural validator always, plus the
/// full semantic ground-truth comparison when the source graph is supplied.
/// Exits nonzero (without usage spam) when any invariant is violated.
fn audit(opts: &Options) -> Result<ExitCode, Error> {
    let path = opts
        .positional
        .first()
        .ok_or("missing index file argument")?;
    let index =
        EsdIndex::load(path).map_err(|e| Error::from(e).context(format!("cannot load {path}")))?;
    let violations = match opts.positional.get(1) {
        Some(gpath) => {
            let (g, _) = io::load_edge_list(gpath)
                .map_err(|e| Error::from(e).context(format!("cannot load {gpath}")))?;
            index.validate_against(&g)
        }
        None => index.validate(),
    };
    println!(
        "audit {path}: {} lists, {} entries{}",
        index.num_lists(),
        index.total_entries(),
        if opts.positional.len() > 1 {
            " (checked against graph)"
        } else {
            ""
        },
    );
    if violations.is_empty() {
        println!("OK: every invariant holds");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("FAIL: {} violation(s)", violations.len());
        for v in &violations {
            println!("  - {v}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Runs a benchmark suite and emits the `esd-bench/v1` report, or — with
/// `--check FILE` — validates an existing report against the schema. The
/// check mode exits nonzero on violations so CI can gate on it.
fn bench(opts: &Options) -> Result<ExitCode, Error> {
    use esd_bench::report::{validate, BENCH_SCHEMA};
    use esd_bench::suite::{run, Suite, SuiteConfig};
    use esd_telemetry::json::Json;

    if opts.positional.first().map(String::as_str) == Some("gate") {
        return bench_gate(opts);
    }

    if let Some(path) = &opts.check {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::from(e).context(format!("cannot read {path}")))?;
        // A malformed report is a data failure (exit 1), not a usage
        // mistake — route it through Io rather than the String → Usage lift.
        let doc = Json::parse(&text).map_err(|e| {
            Error::from(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                e.to_string(),
            ))
            .context(format!("invalid bench report {path}"))
        })?;
        let errors = validate(&doc);
        return if errors.is_empty() {
            println!("OK: {path} conforms to {BENCH_SCHEMA}");
            Ok(ExitCode::SUCCESS)
        } else {
            println!("FAIL: {path}: {} schema violation(s)", errors.len());
            for e in &errors {
                println!("  - {e}");
            }
            Ok(ExitCode::FAILURE)
        };
    }

    let suite = Suite::parse(&opts.suite)
        .ok_or_else(|| format!("unknown --suite {:?} (smoke|full)", opts.suite))?;
    if opts.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let cfg = SuiteConfig {
        suite,
        reps: opts.reps,
        threads: opts.threads.max(1),
    };
    if !esd_telemetry::enabled() {
        eprintln!(
            "warning: built without the telemetry feature; the report will \
             carry wall times but no stage timings or counters"
        );
    }
    let report = run(&cfg);
    let text = report.render_pretty();
    if let Some(path) = &opts.output {
        std::fs::write(path, &text)
            .map_err(|e| Error::from(e).context(format!("cannot write {path}")))?;
        println!("wrote {path}");
    } else if opts.json {
        print!("{text}");
    } else {
        print_bench_summary(&report);
    }
    Ok(ExitCode::SUCCESS)
}

/// The `esd bench gate` perf contract: compares a fresh `esd-bench/v1`
/// report against the checked-in baseline (`bench/baseline.json` unless
/// `--baseline` overrides it) and exits nonzero on any regression beyond
/// tolerance or missing benchmark. With `--rebaseline` the baseline file is
/// rewritten from the report instead — the intentional way to accept a
/// perf change. See `docs/benchmarking.md` for the contract details.
fn bench_gate(opts: &Options) -> Result<ExitCode, Error> {
    use esd_telemetry::json::Json;

    let report_path = opts
        .positional
        .get(1)
        .ok_or("bench gate needs a <BENCH.json> report argument")?;
    // Malformed gate inputs are data failures (exit 1), not usage mistakes.
    let data_err =
        |msg: String| Error::from(std::io::Error::new(std::io::ErrorKind::InvalidData, msg));
    let read_json = |path: &str| -> Result<Json, Error> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::from(e).context(format!("cannot read {path}")))?;
        Json::parse(&text)
            .map_err(|e| data_err(e.to_string()).context(format!("invalid JSON in {path}")))
    };
    let report = read_json(report_path)?;
    let baseline_path = opts.baseline.as_deref().unwrap_or("bench/baseline.json");

    if opts.rebaseline {
        let baseline = esd_bench::gate::baseline_from_report(&report, opts.tolerance)
            .map_err(|e| data_err(e).context(format!("cannot baseline {report_path}")))?;
        std::fs::write(baseline_path, baseline.render_pretty())
            .map_err(|e| Error::from(e).context(format!("cannot write {baseline_path}")))?;
        let pinned = baseline
            .get("benchmarks")
            .and_then(Json::as_arr)
            .map_or(0, Vec::len);
        println!("rebaselined {baseline_path}: {pinned} benchmark(s) pinned from {report_path}");
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = read_json(baseline_path)?;
    let outcome = esd_bench::gate::compare(&report, &baseline, opts.tolerance)
        .map_err(|e| data_err(e).context("bench gate"))?;
    for row in &outcome.unbaselined {
        println!("note: {row} (gate ignores it until the next --rebaseline)");
    }
    for row in &outcome.improvements {
        println!("note: {row} — consider re-baselining to tighten the gate");
    }
    if outcome.passed() {
        println!(
            "OK: {} benchmark(s) within tolerance of {baseline_path}",
            outcome.checked
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "FAIL: {} regression(s), {} missing benchmark(s) vs {baseline_path}",
            outcome.regressions.len(),
            outcome.missing.len()
        );
        for row in outcome.regressions.iter().chain(&outcome.missing) {
            println!("  - {row}");
        }
        Ok(ExitCode::FAILURE)
    }
}

/// Human-readable digest of a bench report: one row per benchmark with the
/// wall-time distribution (the JSON carries the full stage/counter detail).
fn print_bench_summary(report: &esd_telemetry::json::Json) {
    use esd_telemetry::json::Json;
    let ms = |b: &Json, field: &str| {
        b.get("wall_ns")
            .and_then(|w| w.get(field))
            .and_then(Json::as_u64)
            .map_or_else(|| "?".into(), |ns| format!("{:.2}", ns as f64 / 1e6))
    };
    let mut table = esd_bench::TextTable::new(&[
        "benchmark",
        "dataset",
        "reps",
        "min ms",
        "p50 ms",
        "max ms",
        "mean ms",
    ]);
    for b in report
        .get("benchmarks")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
    {
        let s = |f: &str| b.get(f).and_then(Json::as_str).unwrap_or("?").to_string();
        let reps = b
            .get("reps")
            .and_then(Json::as_u64)
            .map_or_else(|| "?".into(), |r| r.to_string());
        table.row(vec![
            s("name"),
            s("dataset"),
            reps,
            ms(b, "min"),
            ms(b, "p50"),
            ms(b, "max"),
            ms(b, "mean"),
        ]);
    }
    print!("{}", table.render());
    println!(
        "telemetry: {} (rerun with --json for stage timings and counters)",
        if esd_telemetry::enabled() {
            "enabled"
        } else {
            "disabled"
        }
    );
}

fn load_graph(opts: &Options) -> Result<(esd_graph::Graph, Vec<u64>), Error> {
    let path = opts
        .positional
        .first()
        .ok_or("missing graph file argument")?;
    io::load_edge_list(path).map_err(|e| Error::from(e).context(format!("cannot load {path}")))
}

fn print_results(results: &[ScoredEdge], original: &[u64]) {
    for (rank, s) in results.iter().enumerate() {
        println!(
            "{:>4}  ({}, {})  score {}",
            rank + 1,
            original[s.edge.u as usize],
            original[s.edge.v as usize],
            s.score
        );
    }
    if results.is_empty() {
        println!("(no edge has a component of size ≥ τ)");
    }
}

fn stats(opts: &Options) -> Result<(), Error> {
    let (g, _) = load_graph(opts)?;
    let s = esd_graph::metrics::GraphStats::compute(&g);
    println!("n            {}", s.n);
    println!("m            {}", s.m);
    println!("d_max        {}", s.d_max);
    println!("degeneracy   {}", s.degeneracy);
    println!(
        "arboricity   [{}, {}]",
        s.arboricity_lower, s.arboricity_upper
    );
    println!("triangles    {}", esd_graph::triangles::count_triangles(&g));
    println!(
        "4-cliques    {}",
        esd_graph::cliques::count_four_cliques(&g)
    );
    Ok(())
}

fn topk(opts: &Options) -> Result<(), Error> {
    let (g, original) = load_graph(opts)?;
    if opts.family != esd_core::Family::Component {
        // The non-component families share one maintained suite; `--algo`
        // selects among component algorithms only.
        let suite = esd_core::FamilySuite::new(&g);
        let results = suite.query(opts.family, opts.k, opts.tau);
        println!(
            "top-{} edges by {} diversity{}:",
            opts.k,
            opts.family,
            if opts.family.uses_tau() {
                format!(" (τ = {})", opts.tau)
            } else {
                String::new()
            }
        );
        print_results(&results, &original);
        return Ok(());
    }
    let results = match opts.algo.as_str() {
        "online" => online_topk(&g, opts.k, opts.tau, UpperBound::MinDegree),
        "online+" => online_topk(&g, opts.k, opts.tau, UpperBound::CommonNeighbor),
        "index" => EsdIndex::build_fast(&g).query(opts.k, opts.tau),
        other => return Err(format!("unknown --algo {other:?} (online|online+|index)").into()),
    };
    println!(
        "top-{} edges by structural diversity (τ = {}):",
        opts.k, opts.tau
    );
    print_results(&results, &original);
    Ok(())
}

fn build(opts: &Options) -> Result<(), Error> {
    let (g, original) = load_graph(opts)?;
    let out = opts
        .output
        .as_ref()
        .ok_or("build requires -o <index.esdx>")?;
    let index = EsdIndex::build_fast(&g);
    index
        .save(out)
        .map_err(|e| Error::from(e).context(format!("cannot write {out}")))?;
    // Sidecar with the dense -> original id mapping, one id per line.
    let ids_path = format!("{out}.ids");
    let mut w = std::io::BufWriter::new(
        std::fs::File::create(&ids_path)
            .map_err(|e| Error::from(e).context(format!("cannot write {ids_path}")))?,
    );
    for id in &original {
        writeln!(w, "{id}")?;
    }
    w.flush()?;
    println!(
        "wrote {out} ({} lists, {} entries) and {ids_path}",
        index.num_lists(),
        index.total_entries()
    );
    Ok(())
}

fn query(opts: &Options) -> Result<(), Error> {
    if opts.family != esd_core::Family::Component {
        return Err(format!(
            "a persisted .esdx index stores component-based scores only; \
             run `esd topk <graph.txt> --family {}` against the source graph",
            opts.family
        )
        .into());
    }
    let path = opts
        .positional
        .first()
        .ok_or("missing index file argument")?;
    let index =
        EsdIndex::load(path).map_err(|e| Error::from(e).context(format!("cannot load {path}")))?;
    // Optional sidecar mapping; identity if absent.
    let original: Vec<u64> = match std::fs::read_to_string(format!("{path}.ids")) {
        Ok(text) => text
            .lines()
            .map(|l| l.trim().parse().map_err(|e| format!("bad id line: {e}")))
            .collect::<Result<_, _>>()?,
        Err(_) => {
            // No sidecar: identity mapping covering every vertex the index
            // mentions. Results then show dense ids, which only match the
            // input file when its ids were already 0..n in first-appearance
            // order — warn so nobody misreads them as original ids.
            eprintln!(
                "warning: {path}.ids not found; printing dense vertex ids \
                 (rebuild with `esd build` to restore original ids)"
            );
            let max_vertex = index
                .component_sizes()
                .iter()
                .filter_map(|&c| index.list(c))
                .flatten()
                .map(|s| u64::from(s.edge.v))
                .max()
                .unwrap_or(0);
            (0..=max_vertex).collect()
        }
    };
    let results = index.query(opts.k, opts.tau);
    println!(
        "top-{} edges by structural diversity (τ = {}):",
        opts.k, opts.tau
    );
    print_results(&results, &original);
    Ok(())
}

fn ego(opts: &Options) -> Result<(), Error> {
    let (g, original) = load_graph(opts)?;
    let [_, ou, ov] = opts.positional.as_slice() else {
        return Err("ego needs <graph.txt> <u> <v>".into());
    };
    let parse = |t: &str| t.parse::<u64>().map_err(|e| format!("bad id {t}: {e}"));
    let (ou, ov) = (parse(ou)?, parse(ov)?);
    let find = |o: u64| {
        original
            .iter()
            .position(|&x| x == o)
            .map(|d| d as u32)
            .ok_or_else(|| format!("vertex {o} not in the graph"))
    };
    let (u, v) = (find(ou)?, find(ov)?);
    if !g.has_edge(u, v) {
        return Err(format!("({ou}, {ov}) is not an edge").into());
    }
    let dot = esd_graph::dot::ego_network_dot(&g, u, v, |x| Some(original[x as usize].to_string()));
    match &opts.output {
        Some(path) => {
            std::fs::write(path, &dot)
                .map_err(|e| Error::from(e).context(format!("cannot write {path}")))?;
            let sizes = esd_core::score::component_sizes(&g, u, v);
            println!("wrote {path}: {} components {:?}", sizes.len(), sizes);
        }
        None => print!("{dot}"),
    }
    Ok(())
}

fn explain(opts: &Options) -> Result<(), Error> {
    let (g, original) = load_graph(opts)?;
    let [_, ou, ov] = opts.positional.as_slice() else {
        return Err("explain needs <graph.txt> <u> <v>".into());
    };
    let parse = |t: &str| t.parse::<u64>().map_err(|e| format!("bad id {t}: {e}"));
    let (ou, ov) = (parse(ou)?, parse(ov)?);
    let find = |o: u64| {
        original
            .iter()
            .position(|&x| x == o)
            .map(|d| d as u32)
            .ok_or_else(|| format!("vertex {o} not in the graph"))
    };
    let (u, v) = (find(ou)?, find(ov)?);
    let ex = esd_core::explain::explain_edge(&g, u, v)
        .ok_or_else(|| format!("({ou}, {ov}) is not an edge"))?;
    println!(
        "edge ({ou}, {ov}): {} common neighbours, {} context(s)",
        ex.common_neighbors.len(),
        ex.components.len()
    );
    for (i, comp) in ex.components.iter().enumerate() {
        let names: Vec<String> = comp
            .iter()
            .map(|&w| original[w as usize].to_string())
            .collect();
        println!("  context {}: {}", i + 1, names.join(", "));
    }
    for (i, &score) in ex.scores_by_tau.iter().enumerate() {
        println!(
            "  τ = {}: score {} (CN bound {}, min-degree bound {})",
            i + 1,
            score,
            ex.common_neighbor_bound(i as u32 + 1),
            ex.min_degree_bound
        );
    }
    Ok(())
}

/// Streaming maintenance on stdin: the same [`Session`] logic as `esd
/// serve`, run inline on the calling thread (`workers: 0`), so every
/// update/query response carries its per-op latency and epoch.
fn stream(opts: &Options) -> Result<(), Error> {
    let (g, original) = load_graph(opts)?;
    let service = Service::start(
        &g,
        &ServiceConfig {
            workers: 0,
            pipeline_threads: opts.pipeline_threads.max(1),
            ..ServiceConfig::default()
        },
    );
    let session = Session::new(service.handle(), Arc::new(IdMap::from_original(original)));
    println!(
        "ready: {} vertices, {} edges (+ u v | - u v | ? k tau | family [name] | metrics | telemetry | quit)",
        g.num_vertices(),
        g.num_edges()
    );
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        match session.handle_line(&line) {
            LineOutcome::Respond(text) => {
                print!("{text}");
                std::io::stdout().flush()?;
            }
            LineOutcome::Quit => break,
        }
    }
    service.shutdown();
    Ok(())
}

/// TCP query service: the engine behind `stream`, behind a worker pool and
/// an accept loop. With `--shards S` (S > 1) the same server runs over a
/// [`ShardedService`] — `S` engines, per-shard WAL subdirectories, the
/// identical protocol. Runs until stdin sees `quit` or EOF, then prints
/// the final metrics registry.
fn serve(opts: &Options) -> Result<(), Error> {
    let (g, original) = load_graph(opts)?;
    let ids = Arc::new(IdMap::from_original(original));
    let per_shard = ServiceConfig {
        workers: opts.threads,
        pipeline_threads: opts.pipeline_threads.max(1),
        durability: durability_config(opts)?,
        ..ServiceConfig::default()
    };
    if opts.shards > 1 {
        let service = ShardedService::try_start(
            &g,
            &ShardConfig {
                shards: opts.shards,
                per_shard,
            },
        )
        .map_err(|e| Error::from(e).context("cannot open durable state"))?;
        for (i, report) in service.recovery_reports().into_iter().enumerate() {
            if let Some(report) = report {
                print_recovery(&format!("shard {i}: "), report);
            }
        }
        let handle = service.handle();
        let server = Server::start(("127.0.0.1", opts.port), service.handle(), ids)
            .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", opts.port))?;
        serve_until_quit(&server, opts, opts.shards)?;
        server.stop();
        print!("{}", handle.metrics_text());
        service.shutdown();
        return Ok(());
    }
    let service = Service::try_start(&g, &per_shard)
        .map_err(|e| Error::from(e).context("cannot open durable state"))?;
    if let Some(report) = service.recovery_report() {
        print_recovery("", report);
    }
    let server = Server::start(("127.0.0.1", opts.port), service.handle(), ids)
        .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", opts.port))?;
    serve_until_quit(&server, opts, 1)?;
    server.stop();
    print!("{}", service.handle().metrics_text());
    service.shutdown();
    Ok(())
}

fn print_recovery(prefix: &str, report: &RecoveryReport) {
    println!(
        "{prefix}recovered durable state: epoch {} (checkpoint {}, {} WAL record(s) replayed{})",
        report.recovered_epoch,
        report.checkpoint_epoch,
        report.wal_records_replayed,
        if report.wal_truncated {
            ", torn tail truncated"
        } else {
            ""
        }
    );
}

/// Prints the listening banner and blocks on stdin until `quit` or EOF.
fn serve_until_quit(server: &Server, opts: &Options, shards: u32) -> Result<(), Error> {
    println!(
        "listening on {} ({} shard(s) × {} worker thread(s); protocol: + u v | - u v | ? k tau | family [name] | hello | shards | metrics | telemetry | quit)",
        server.local_addr(),
        shards,
        opts.threads
    );
    // Piped stdout is block-buffered; tests (and scripts) need the banner
    // before the first connection attempt.
    std::io::stdout().flush()?;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        if matches!(line.trim(), "quit" | "q" | "exit") {
            break;
        }
    }
    Ok(())
}

/// Translates the `--wal-dir` / `--checkpoint-interval` / `--ack` flags
/// into a [`DurabilityConfig`]; `None` when `--wal-dir` was not given.
fn durability_config(opts: &Options) -> Result<Option<DurabilityConfig>, Error> {
    let Some(dir) = &opts.wal_dir else {
        return Ok(None);
    };
    let mut cfg = DurabilityConfig::new(dir);
    cfg.ack_policy = match opts.ack.as_str() {
        "fsync" => AckPolicy::Fsync,
        "enqueue" => AckPolicy::Enqueue,
        other => return Err(format!("unknown --ack {other:?} (fsync|enqueue)").into()),
    };
    if opts.checkpoint_interval == 0 {
        return Err("--checkpoint-interval must be at least 1".into());
    }
    cfg.checkpoint_interval = opts.checkpoint_interval;
    Ok(Some(cfg))
}

/// Offline recovery: loads the newest valid checkpoint from a durable
/// directory, replays the WAL tail onto its edge set, prints the report,
/// and — with `-o` — builds the recovered state's ESDX index (the only
/// construction pass) and exports it.
fn recover(opts: &Options) -> Result<(), Error> {
    let dir = opts
        .positional
        .first()
        .ok_or("missing durable directory argument")?;
    let replayed = esd_serve::durability::replay(std::path::Path::new(dir))
        .map_err(|e| Error::from(e).context(format!("cannot recover {dir}")))?
        .ok_or_else(|| {
            // A dir without durable state is a runtime failure (exit 1),
            // not a usage mistake — don't take the String → Usage lift.
            Error::from(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{dir} holds no valid durable state"),
            ))
        })?;
    let report = &replayed.report;
    println!("recovered {dir}:");
    println!("  checkpoint epoch        {}", report.checkpoint_epoch);
    println!("  wal records replayed    {}", report.wal_records_replayed);
    println!("  wal segments scanned    {}", report.wal_segments);
    println!(
        "  wal torn tail           {}",
        if report.wal_truncated {
            "yes (truncated at last valid record)"
        } else {
            "no"
        }
    );
    println!(
        "  invalid checkpoints     {}",
        report.skipped_invalid_checkpoints
    );
    println!("  recovered epoch         {}", report.recovered_epoch);
    let g = &replayed.graph;
    println!(
        "  state                   {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
    if let Some(out) = &opts.output {
        let index = EsdIndex::build_fast(&g.to_graph());
        index
            .save(out)
            .map_err(|e| Error::from(e).context(format!("cannot write {out}")))?;
        println!(
            "wrote {out} ({} lists, {} entries)",
            index.num_lists(),
            index.total_entries()
        );
    }
    Ok(())
}
