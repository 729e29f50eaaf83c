//! `--self-test`: proves each pass can actually catch its violation.
//!
//! A static-analysis gate that silently stops matching anything is worse
//! than no gate. For every pass this module builds a tiny in-memory
//! workspace seeded with exactly one violation, runs the pass, and
//! requires (a) the violation is reported with the right pass name and
//! location, and (b) a clean twin workspace produces no findings.

use crate::passes::{self, Finding};
use crate::scan::{SourceFile, Workspace};

/// One seeded scenario: a violating workspace, its clean twin, and where
/// the seeded violation lives.
struct Scenario {
    pass: &'static str,
    violating: Workspace,
    clean: Workspace,
    expect_file: &'static str,
    run: fn(&Workspace) -> Vec<Finding>,
}

fn ws(files: Vec<SourceFile>, doc: Option<&str>) -> Workspace {
    ws_with_kernels(files, doc, None)
}

fn ws_with_kernels(files: Vec<SourceFile>, doc: Option<&str>, kernels: Option<&str>) -> Workspace {
    Workspace {
        files,
        observability_doc: doc.map(|d| ("docs/observability.md".to_owned(), d.to_owned())),
        kernels_doc: kernels.map(|d| ("docs/kernels.md".to_owned(), d.to_owned())),
        allowlist: Vec::new(),
    }
}

fn scenarios() -> Vec<Scenario> {
    let telemetry_lib = "crates/telemetry/src/lib.rs";
    let faults = "crates/serve/src/faults.rs";

    let catalogue = |entries: &str| {
        format!("macro_rules! catalogue {{ () => {{}}; }}\ncatalogue! {{\n    Stage {{\n{entries}    }}\n}}\n")
    };
    let doc_ok = "| Stage | Where |\n|---|---|\n| `alpha.one` | here |\n| `beta.two` | there |\n";
    let doc_bad =
        "| Stage | Where |\n|---|---|\n| `alpha.one` | here |\n| `gamma.three` | nowhere |\n";

    vec![
        Scenario {
            pass: "docs-sync",
            violating: ws(
                vec![SourceFile::from_text(
                    telemetry_lib,
                    &catalogue("        A => \"alpha.one\",\n        B => \"beta.two\",\n"),
                )],
                Some(doc_bad),
            ),
            clean: ws(
                vec![SourceFile::from_text(
                    telemetry_lib,
                    &catalogue("        A => \"alpha.one\",\n        B => \"beta.two\",\n"),
                )],
                Some(doc_ok),
            ),
            expect_file: telemetry_lib,
            run: passes::docs_sync,
        },
        // The kernel-counter arm of docs-sync: an `intersect.*` label that
        // docs/observability.md documents must STILL be flagged when
        // docs/kernels.md omits it.
        Scenario {
            pass: "docs-sync",
            violating: ws_with_kernels(
                vec![SourceFile::from_text(
                    telemetry_lib,
                    &catalogue("        M => \"intersect.merge\",\n"),
                )],
                Some("| Counter | Where |\n|---|---|\n| `intersect.merge` | dispatcher |\n"),
                Some("# Kernels\n\nNo counter table here.\n"),
            ),
            clean: ws_with_kernels(
                vec![SourceFile::from_text(
                    telemetry_lib,
                    &catalogue("        M => \"intersect.merge\",\n"),
                )],
                Some("| Counter | Where |\n|---|---|\n| `intersect.merge` | dispatcher |\n"),
                Some("# Kernels\n\nDispatch is counted by `intersect.merge`.\n"),
            ),
            expect_file: telemetry_lib,
            run: passes::docs_sync,
        },
        Scenario {
            pass: "fault-coverage",
            violating: ws(
                vec![
                    SourceFile::from_text(
                        faults,
                        "pub enum FaultPoint {\n    SnapshotPublish,\n    WriterApply,\n    \
                         WalAppend,\n    WalFsync,\n    CheckpointWrite,\n}\n",
                    ),
                    // Every durability point but WalFsync is exercised —
                    // the pass must flag exactly the uncovered one.
                    SourceFile::from_text(
                        "tests/chaos_serve.rs",
                        "fn scenario() { let _ = (FaultPoint::SnapshotPublish, \
                         FaultPoint::WriterApply, FaultPoint::WalAppend, \
                         FaultPoint::CheckpointWrite); }\n",
                    ),
                ],
                None,
            ),
            clean: ws(
                vec![
                    SourceFile::from_text(
                        faults,
                        "pub enum FaultPoint {\n    SnapshotPublish,\n    WriterApply,\n    \
                         WalAppend,\n    WalFsync,\n    CheckpointWrite,\n}\n",
                    ),
                    SourceFile::from_text(
                        "tests/chaos_serve.rs",
                        "fn scenario() { let _ = (FaultPoint::SnapshotPublish, \
                         FaultPoint::WriterApply, FaultPoint::WalAppend, \
                         FaultPoint::WalFsync, FaultPoint::CheckpointWrite); }\n",
                    ),
                ],
                None,
            ),
            expect_file: faults,
            run: passes::fault_coverage,
        },
        // The shard extension of docs-sync: the `shard.*` merge telemetry
        // is part of the catalogue like any other label, so dropping its
        // documentation row must be flagged.
        Scenario {
            pass: "docs-sync",
            violating: ws(
                vec![SourceFile::from_text(
                    telemetry_lib,
                    &catalogue("        G => \"shard.gather\",\n        R => \"shard.route\",\n"),
                )],
                Some("| Stage | Where |\n|---|---|\n| `shard.route` | fan_out |\n"),
            ),
            clean: ws(
                vec![SourceFile::from_text(
                    telemetry_lib,
                    &catalogue("        G => \"shard.gather\",\n        R => \"shard.route\",\n"),
                )],
                Some(
                    "| Stage | Where |\n|---|---|\n| `shard.gather` | scatter_gather |\n\
                     | `shard.route` | fan_out |\n",
                ),
            ),
            expect_file: telemetry_lib,
            run: passes::docs_sync,
        },
        // The query-family extension of docs-sync: the `family.*` suite
        // telemetry is part of the catalogue like any other label, so a
        // missing documentation row must be flagged.
        Scenario {
            pass: "docs-sync",
            violating: ws(
                vec![SourceFile::from_text(
                    telemetry_lib,
                    &catalogue(
                        "        A => \"family.apply\",\n        Q => \"family.queries\",\n",
                    ),
                )],
                Some("| Stage | Where |\n|---|---|\n| `family.apply` | FamilySuite |\n"),
            ),
            clean: ws(
                vec![SourceFile::from_text(
                    telemetry_lib,
                    &catalogue(
                        "        A => \"family.apply\",\n        Q => \"family.queries\",\n",
                    ),
                )],
                Some(
                    "| Stage | Where |\n|---|---|\n| `family.apply` | FamilySuite |\n\
                     | `family.queries` | FamilySuite::query |\n",
                ),
            ),
            expect_file: telemetry_lib,
            run: passes::docs_sync,
        },
        // The shard extension of fault-coverage: a fault point whose only
        // chaos coverage lives in tests/chaos_shard.rs counts as covered
        // (any tests/*chaos*.rs file does), and losing that file brings
        // the flag back.
        Scenario {
            pass: "fault-coverage",
            violating: ws(
                vec![
                    SourceFile::from_text(
                        faults,
                        "pub enum FaultPoint {\n    WriterApply,\n    WalFsync,\n}\n",
                    ),
                    SourceFile::from_text(
                        "tests/chaos_serve.rs",
                        "fn scenario() { let _ = FaultPoint::WriterApply; }\n",
                    ),
                ],
                None,
            ),
            clean: ws(
                vec![
                    SourceFile::from_text(
                        faults,
                        "pub enum FaultPoint {\n    WriterApply,\n    WalFsync,\n}\n",
                    ),
                    SourceFile::from_text(
                        "tests/chaos_serve.rs",
                        "fn scenario() { let _ = FaultPoint::WriterApply; }\n",
                    ),
                    SourceFile::from_text(
                        "tests/chaos_shard.rs",
                        "fn scenario() { let _ = FaultPoint::WalFsync; }\n",
                    ),
                ],
                None,
            ),
            expect_file: faults,
            run: passes::fault_coverage,
        },
        Scenario {
            pass: "lock-unwrap",
            violating: ws(
                vec![SourceFile::from_text(
                    "crates/core/src/bad.rs",
                    "fn f() { let _g = M.lock()\n        .unwrap(); }\n",
                )],
                None,
            ),
            clean: ws(
                vec![SourceFile::from_text(
                    "crates/core/src/good.rs",
                    "fn f(buf: &mut [u8]) { let _g = M.lock().unpoison(); file.read(buf).unwrap(); }\n",
                )],
                None,
            ),
            expect_file: "crates/core/src/bad.rs",
            run: passes::lock_unwrap,
        },
        Scenario {
            pass: "allow-reason",
            violating: ws(
                vec![SourceFile::from_text(
                    "crates/core/src/bad.rs",
                    "#[allow(dead_code)]\nfn f() {}\n",
                )],
                None,
            ),
            clean: ws(
                vec![SourceFile::from_text(
                    "crates/core/src/good.rs",
                    "#[allow(dead_code, reason = \"exercised only by the slow suite\")]\nfn f() {}\n",
                )],
                None,
            ),
            expect_file: "crates/core/src/bad.rs",
            run: passes::allow_reason,
        },
        Scenario {
            pass: "zst-disarmed",
            violating: ws(
                vec![SourceFile::from_text(
                    "crates/serve/src/bad.rs",
                    "#[cfg(not(feature = \"x\"))]\n#[derive(Debug)]\npub struct Disarmed {\n    leftover: u64,\n}\n",
                )],
                None,
            ),
            clean: ws(
                vec![SourceFile::from_text(
                    "crates/serve/src/good.rs",
                    "#[cfg(not(feature = \"x\"))]\npub struct Disarmed;\npub struct Guard {\n    #[cfg(feature = \"x\")]\n    state: u64,\n    #[cfg(feature = \"x\")]\n    start: u64,\n}\n",
                )],
                None,
            ),
            expect_file: "crates/serve/src/bad.rs",
            run: passes::zst_disarmed,
        },
    ]
}

/// Runs every scenario; prints one line per pass; `true` when all hold.
pub(crate) fn run(json: bool) -> bool {
    let mut all_ok = true;
    let mut rows = Vec::new();
    for s in scenarios() {
        let caught = (s.run)(&s.violating);
        let hit = caught
            .iter()
            .find(|f| f.pass == s.pass && f.file == s.expect_file);
        let false_alarms = (s.run)(&s.clean);
        let ok = hit.is_some() && false_alarms.is_empty();
        all_ok &= ok;
        let detail = match (hit, false_alarms.is_empty()) {
            (Some(f), true) => format!("caught seeded violation at {}:{}", f.file, f.line),
            (None, _) => "MISSED the seeded violation".to_owned(),
            (_, false) => format!("false alarm on clean fixture: {:?}", false_alarms[0]),
        };
        rows.push((s.pass, ok, detail));
    }
    if json {
        use esd_telemetry::json::Json;
        let obj = Json::obj(vec![
            ("schema", Json::str(crate::SCHEMA)),
            ("self_test", Json::Bool(true)),
            ("ok", Json::Bool(all_ok)),
            (
                "passes",
                Json::Arr(
                    rows.iter()
                        .map(|(pass, ok, detail)| {
                            Json::obj(vec![
                                ("pass", Json::str(*pass)),
                                ("ok", Json::Bool(*ok)),
                                ("detail", Json::str(detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", obj.render_compact());
    } else {
        for (pass, ok, detail) in &rows {
            println!(
                "self-test {pass}: {} — {detail}",
                if *ok { "ok" } else { "FAIL" }
            );
        }
    }
    all_ok
}
