//! End-to-end tests of the `esd` binary: every subcommand over temp files,
//! including error paths.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_esd"))
}

/// The calling test's own directory, named after it: tests run in parallel
/// and each writes its inputs by fixed file names.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esd_cli_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The paper's Fig 1(a) graph as an edge list with offset original ids
/// (so the dense relabelling is exercised).
fn write_fig1(dir: &std::path::Path) -> PathBuf {
    let (g, _) = esd_core::fixtures::fig1();
    let path = dir.join("fig1.txt");
    let mut text = String::from("# fig 1(a)\n");
    for e in g.edges() {
        text.push_str(&format!("{} {}\n", e.u + 100, e.v + 100));
    }
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn stats_reports_counts() {
    let dir = temp_dir("stats_reports_counts");
    let graph = write_fig1(&dir);
    let out = bin()
        .args(["stats", graph.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("n            16"), "{text}");
    assert!(text.contains("m            40"), "{text}");
}

#[test]
fn topk_prints_original_ids_for_every_algo() {
    let dir = temp_dir("topk_prints_original_ids_for_every_algo");
    let graph = write_fig1(&dir);
    let mut outputs = Vec::new();
    for algo in ["online", "online+", "index"] {
        let out = bin()
            .args([
                "topk",
                graph.to_str().unwrap(),
                "-k",
                "3",
                "--tau",
                "2",
                "--algo",
                algo,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("score 2"), "{algo}: {text}");
        // Original ids are offset by 100.
        assert!(
            text.contains("(105, 106)") || text.contains("(107, 108)"),
            "{algo}: {text}"
        );
        outputs.push(text);
    }
    assert_eq!(outputs[0], outputs[1]);
    // Index output has a different header line order? No — identical results.
    assert_eq!(
        outputs[0].lines().skip(1).collect::<Vec<_>>(),
        outputs[2].lines().skip(1).collect::<Vec<_>>()
    );
}

#[test]
fn build_then_query_roundtrip() {
    let dir = temp_dir("build_then_query_roundtrip");
    let graph = write_fig1(&dir);
    let index = dir.join("fig1.esdx");
    let out = bin()
        .args([
            "build",
            graph.to_str().unwrap(),
            "-o",
            index.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(index.exists());
    assert!(dir.join("fig1.esdx.ids").exists());

    let out = bin()
        .args(["query", index.to_str().unwrap(), "-k", "3", "--tau", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // τ=5 answers: (u,p), (u,q), (p,q) = dense (11,13),(11,14),(13,14) → +100.
    assert!(text.contains("(111, 113)"), "{text}");
    assert!(text.contains("(113, 114)"), "{text}");
}

#[test]
fn stream_updates_and_queries() {
    let dir = temp_dir("stream_updates_and_queries");
    let graph = write_fig1(&dir);
    let mut child = bin()
        .args(["stream", graph.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // Example 7: delete (u,k) = original (111, 110); then query τ=3.
    let stdin = child.stdin.as_mut().unwrap();
    writeln!(stdin, "- 111 110").unwrap();
    writeln!(stdin, "? 5 3").unwrap();
    writeln!(stdin, "- 111 110").unwrap(); // now a no-op
    writeln!(stdin, "bogus line").unwrap();
    writeln!(stdin, "quit").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("- (111, 110): ok"), "{text}");
    assert!(text.contains("- (111, 110): no-op"), "{text}");
    assert!(text.contains("(109, 110)"), "(j,k) appears in H(3): {text}");
    assert!(text.contains("unrecognised"), "{text}");
}

/// Without the `.ids` sidecar, `query` still succeeds: it warns on stderr
/// and prints dense ids (fig1's original ids are dense ids + 100).
#[test]
fn query_without_ids_sidecar_warns_and_uses_dense_ids() {
    let dir = temp_dir("query_without_ids_sidecar_warns_and_uses_dense_ids");
    let graph = write_fig1(&dir);
    let index = dir.join("nosidecar.esdx");
    let out = bin()
        .args([
            "build",
            graph.to_str().unwrap(),
            "-o",
            index.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_file(dir.join("nosidecar.esdx.ids")).unwrap();

    let out = bin()
        .args(["query", index.to_str().unwrap(), "-k", "3", "--tau", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("warning"), "{err}");
    assert!(err.contains(".ids not found"), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    // Same answers as build_then_query_roundtrip, minus the +100 offset.
    assert!(text.contains("(11, 13)"), "{text}");
    assert!(text.contains("(13, 14)"), "{text}");
}

/// `esd serve` end to end: bind an ephemeral port, query and update over
/// TCP with original ids, then shut down via stdin and check the final
/// metrics dump.
#[test]
fn serve_answers_over_tcp() {
    let dir = temp_dir("serve_answers_over_tcp");
    let graph = write_fig1(&dir);
    let mut child = bin()
        .args([
            "serve",
            graph.to_str().unwrap(),
            "--port",
            "0",
            "--threads",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // The banner names the bound address (port 0 → ephemeral).
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    child_out.read_line(&mut banner).unwrap();
    assert!(banner.starts_with("listening on "), "{banner}");
    let addr = banner
        .trim_start_matches("listening on ")
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    let mut conn = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    // The server greets with the protocol banner before the first request.
    let mut hello = String::new();
    reader.read_line(&mut hello).unwrap();
    assert_eq!(hello, "# esd-protocol/2 shards=1\n");
    writeln!(conn, "? 3 3").unwrap();
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "unexpected EOF");
        let done = line.starts_with("# ");
        lines.push(line);
        if done {
            break;
        }
    }
    let text = lines.concat();
    // Original (offset) ids, and the framing summary line.
    assert!(text.contains("(109, 110)"), "{text}");
    assert!(text.contains("result(s)"), "{text}");
    writeln!(conn, "- 111 110").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("- (111, 110): ok"), "{line}");
    writeln!(conn, "quit").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "bye");

    // `quit` on stdin stops the server and dumps final metrics.
    child.stdin.as_mut().unwrap().write_all(b"quit\n").unwrap();
    let status = child.wait().unwrap();
    assert!(status.success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut child_out, &mut rest).unwrap();
    assert!(rest.contains("queries_served"), "{rest}");
    assert!(rest.contains("updates_applied"), "{rest}");
}

/// `esd serve --shards 2` speaks the identical protocol: the banner
/// advertises the shard count, query summaries carry the epoch vector,
/// and answers match what the unsharded server gives.
#[test]
fn sharded_serve_answers_over_tcp() {
    let dir = temp_dir("sharded_serve_answers_over_tcp");
    let graph = write_fig1(&dir);
    let mut child = bin()
        .args([
            "serve",
            graph.to_str().unwrap(),
            "--port",
            "0",
            "--threads",
            "1",
            "--shards",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    child_out.read_line(&mut banner).unwrap();
    assert!(banner.starts_with("listening on "), "{banner}");
    assert!(banner.contains("2 shard(s)"), "{banner}");
    let addr = banner
        .trim_start_matches("listening on ")
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    let mut conn = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut hello = String::new();
    reader.read_line(&mut hello).unwrap();
    assert_eq!(hello, "# esd-protocol/2 shards=2\n");
    writeln!(conn, "? 3 3").unwrap();
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "unexpected EOF");
        let done = line.starts_with("# ");
        lines.push(line);
        if done {
            break;
        }
    }
    let text = lines.concat();
    // The same answers the unsharded server gives, with an epoch vector.
    assert!(text.contains("(109, 110)"), "{text}");
    assert!(text.contains("epoch [0, 0]"), "{text}");
    writeln!(conn, "- 111 110").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("- (111, 110): ok"), "{line}");
    assert!(line.contains("epoch [1, 1]"), "{line}");
    writeln!(conn, "shards").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "# shards=2 epochs=[1, 1]\n");
    writeln!(conn, "quit").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "bye");

    child.stdin.as_mut().unwrap().write_all(b"quit\n").unwrap();
    let status = child.wait().unwrap();
    assert!(status.success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut child_out, &mut rest).unwrap();
    assert!(rest.contains("-- shard 1 --"), "{rest}");
}

/// `esd serve --wal-dir` then `esd recover -o`: the offline report names
/// the checkpoint and the replayed WAL tail, and the exported index ranks
/// exactly like a fresh build of the served graph.
#[test]
fn recover_exports_the_served_state() {
    let dir = temp_dir("recover_exports_the_served_state");
    let graph = write_fig1(&dir);
    let wal = dir.join("wal");
    let _ = std::fs::remove_dir_all(&wal);
    let mut child = bin()
        .args([
            "serve",
            graph.to_str().unwrap(),
            "--port",
            "0",
            "--wal-dir",
            wal.to_str().unwrap(),
            "--checkpoint-interval",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    child_out.read_line(&mut banner).unwrap();
    assert!(banner.starts_with("listening on "), "{banner}");
    let addr = banner
        .trim_start_matches("listening on ")
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    // The served graph in dense ids, and three writes that each publish:
    // two removals and one insertion, in original ids.
    let (g, ids) = esd_graph::io::load_edge_list(&graph).unwrap();
    let mut served = esd_graph::DynamicGraph::from_graph(&g);
    let edges = g.edges();
    let absent = (0..g.num_vertices() as u32)
        .flat_map(|u| (u + 1..g.num_vertices() as u32).map(move |v| (u, v)))
        .find(|&(u, v)| !served.has_edge(u, v))
        .unwrap();
    let writes = [
        ('-', edges[0].u, edges[0].v),
        ('-', edges[3].u, edges[3].v),
        ('+', absent.0, absent.1),
    ];
    let mut conn = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // protocol banner
    for &(op, u, v) in &writes {
        writeln!(conn, "{op} {} {}", ids[u as usize], ids[v as usize]).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(": ok"), "{line}");
        let changed = if op == '+' {
            served.insert_edge(u, v)
        } else {
            served.remove_edge(u, v)
        };
        assert!(changed);
    }
    writeln!(conn, "quit").unwrap();
    child.stdin.as_mut().unwrap().write_all(b"quit\n").unwrap();
    assert!(child.wait().unwrap().success());

    let out_path = dir.join("recovered.esdx");
    let out = bin()
        .args([
            "recover",
            wal.to_str().unwrap(),
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let expected = esd_core::EsdIndex::build_fast(&served.to_graph());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!(
            "recovered {wal}:\n\
             \x20 checkpoint epoch        2\n\
             \x20 wal records replayed    1\n\
             \x20 wal segments scanned    1\n\
             \x20 wal torn tail           no\n\
             \x20 invalid checkpoints     0\n\
             \x20 recovered epoch         3\n\
             \x20 state                   {} vertices, {} edges\n\
             wrote {out} ({} lists, {} entries)\n",
            served.num_vertices(),
            served.num_edges(),
            expected.num_lists(),
            expected.total_entries(),
            wal = wal.display(),
            out = out_path.display(),
        )
    );
    let recovered = esd_core::EsdIndex::load(&out_path).unwrap();
    for k in [1, 3, 10, 100] {
        for tau in 1..=4 {
            assert_eq!(
                recovered.query(k, tau),
                expected.query(k, tau),
                "k={k} tau={tau}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ego_renders_dot() {
    let dir = temp_dir("ego_renders_dot");
    let graph = write_fig1(&dir);
    // (f, g) = dense (5, 6) → original (105, 106): two ego components.
    let out = bin()
        .args(["ego", graph.to_str().unwrap(), "105", "106"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dot = String::from_utf8(out.stdout).unwrap();
    assert!(dot.contains("graph ego"), "{dot}");
    assert!(
        dot.contains("cluster_1") && !dot.contains("cluster_2"),
        "{dot}"
    );
    // Writing to a file reports the component sizes.
    let path = dir.join("ego.dot");
    let out = bin()
        .args([
            "ego",
            graph.to_str().unwrap(),
            "105",
            "106",
            "-o",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("2 components [2, 2]"));
    assert!(path.exists());
    // Non-edge is rejected.
    let out = bin()
        .args(["ego", graph.to_str().unwrap(), "100", "115"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn explain_breaks_down_scores() {
    let dir = temp_dir("explain_breaks_down_scores");
    let graph = write_fig1(&dir);
    // (j, k) = original (109, 110): contexts {h,i} and {u,v,p,q}.
    let out = bin()
        .args(["explain", graph.to_str().unwrap(), "109", "110"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("6 common neighbours"), "{text}");
    assert!(text.contains("2 context(s)"), "{text}");
    assert!(
        text.contains("111, 112, 113, 114"),
        "the K6 context: {text}"
    );
    assert!(text.contains("τ = 4: score 1"), "{text}");
    // Non-edge rejected.
    let out = bin()
        .args(["explain", graph.to_str().unwrap(), "100", "115"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn error_paths() {
    // Unknown subcommand.
    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    // Missing file.
    let out = bin()
        .args(["stats", "/nonexistent/graph.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Bad tau.
    let dir = temp_dir("error_paths");
    let graph = write_fig1(&dir);
    let out = bin()
        .args(["topk", graph.to_str().unwrap(), "--tau", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Corrupt index file.
    let bogus = dir.join("bogus.esdx");
    std::fs::write(&bogus, b"not an index").unwrap();
    let out = bin()
        .args(["query", bogus.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ESDX"));
}

/// The exit-code policy (`esd::Error::exit_code`), table-driven over the
/// real binary: usage mistakes exit 2 and print the help text after the
/// error line; runtime failures exit 1 and do NOT spam the usage block.
#[test]
fn exit_code_policy_table() {
    let dir = temp_dir("exit_code_policy_table");
    let graph_path = write_fig1(&dir);
    let graph = graph_path.to_str().unwrap();
    let corrupt = dir.join("corrupt.esdx");
    std::fs::write(&corrupt, b"definitely not an index").unwrap();
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json {").unwrap();

    struct Case {
        name: &'static str,
        args: Vec<String>,
        code: i32,
        usage: bool,
    }
    let case = |name, args: &[&str], code, usage| Case {
        name,
        args: args.iter().map(|s| (*s).to_string()).collect(),
        code,
        usage,
    };
    let cases = [
        // Usage mistakes: exit 2, the help text follows the error line.
        case("no subcommand", &[], 2, true),
        case("unknown subcommand", &["frobnicate"], 2, true),
        case("missing positional", &["stats"], 2, true),
        case("unknown flag", &["topk", graph, "--frobnicate"], 2, true),
        case("flag needs value", &["topk", graph, "-k"], 2, true),
        case("tau zero", &["topk", graph, "--tau", "0"], 2, true),
        case("bad suite", &["bench", "--suite", "bogus"], 2, true),
        case("zero reps", &["bench", "--reps", "0"], 2, true),
        // Runtime failures: exit 1, no usage spam.
        case(
            "missing graph file",
            &["stats", "/nonexistent/esd/g.txt"],
            1,
            false,
        ),
        case(
            "corrupt index",
            &["query", corrupt.to_str().unwrap()],
            1,
            false,
        ),
        case(
            "garbage bench report",
            &["bench", "--check", garbage.to_str().unwrap()],
            1,
            false,
        ),
    ];
    for c in &cases {
        let out = bin().args(&c.args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(c.code),
            "{}: wrong exit code\nstderr: {stderr}",
            c.name
        );
        assert!(
            stderr.contains("error:"),
            "{}: every failure names itself\nstderr: {stderr}",
            c.name
        );
        assert_eq!(
            stderr.contains("usage:"),
            c.usage,
            "{}: usage help iff usage error\nstderr: {stderr}",
            c.name
        );
    }
}

#[test]
fn bench_report_round_trips_through_check() {
    let dir = temp_dir("bench_report_round_trips_through_check");
    let path = dir.join("BENCH_smoke.json");
    // Produce a smoke report (1 rep keeps this test fast).
    let out = bin()
        .args([
            "bench",
            "--suite",
            "smoke",
            "--reps",
            "1",
            "--threads",
            "2",
            "-o",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"esd-bench/v1\""), "{text}");
    assert!(text.contains("\"build_parallel\""), "{text}");
    assert!(text.contains("\"work_balance\""), "{text}");
    // The default CLI build arms telemetry, so stage rows must be present.
    assert!(text.contains("\"build.enumerate\""), "{text}");
    assert!(text.contains("\"cliques.enumerated\""), "{text}");

    // The validator accepts the freshly written report…
    let out = bin()
        .args(["bench", "--check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    // …and rejects a corrupted one, with a nonzero exit for CI.
    let broken = dir.join("broken.json");
    std::fs::write(
        &broken,
        text.replace("\"esd-bench/v1\"", "\"esd-bench/v0\""),
    )
    .unwrap();
    let out = bin()
        .args(["bench", "--check", broken.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("schema"));

    // A file that is not JSON at all is a DATA failure: exit 1, no usage
    // help — the request was well-formed, the report wasn't.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json {").unwrap();
    let out = bin()
        .args(["bench", "--check", garbage.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid bench report"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");

    // Unknown suite names are flagged before any work happens.
    let out = bin().args(["bench", "--suite", "bogus"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--suite"));
}

#[test]
fn bench_human_summary_prints_a_table() {
    let out = bin()
        .args(["bench", "--suite", "smoke", "--reps", "1", "--threads", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("benchmark"), "{text}");
    assert!(text.contains("online_topk"), "{text}");
    assert!(text.contains("telemetry: enabled"), "{text}");
}
