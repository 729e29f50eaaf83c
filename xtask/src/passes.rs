//! The analyze passes: each encodes one project-specific invariant that
//! `rustc`/`clippy` cannot check, and each reports findings as
//! `(pass, file, line, message)` rows.
//!
//! | pass | invariant |
//! |------|-----------|
//! | `docs-sync` | telemetry catalogue ↔ `docs/observability.md`, both directions; `intersect.*` kernel counters additionally documented in `docs/kernels.md` |
//! | `fault-coverage` | every named fault point exercised by ≥1 chaos scenario |
//! | `sync-facade` | no direct `std::sync` / `std::thread::sleep` / `std::time::Instant` in serve/telemetry outside the `sync` facades |
//! | `lock-unwrap` | no `.unwrap()` / `.expect()` on lock results (use `Unpoison`) |
//! | `allow-reason` | every `#[allow(...)]` carries a `reason = "..."` |
//! | `zst-disarmed` | feature-disarmed types are zero-sized (unit structs or all-fields-gated) |

use crate::scan::{line_of, matching_close, SourceFile, Workspace};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Finding {
    /// The pass that produced it (stable kebab-case name).
    pub(crate) pass: &'static str,
    /// Repo-relative file.
    pub(crate) file: String,
    /// 1-based line.
    pub(crate) line: usize,
    /// What is wrong and how to fix it.
    pub(crate) message: String,
}

/// Stable pass names, in execution order.
pub(crate) const PASS_NAMES: &[&str] = &[
    "docs-sync",
    "fault-coverage",
    "sync-facade",
    "lock-unwrap",
    "allow-reason",
    "zst-disarmed",
];

/// Runs every pass over `ws`, dropping allowlisted findings.
pub(crate) fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(docs_sync(ws));
    findings.extend(fault_coverage(ws));
    findings.extend(sync_facade(ws));
    findings.extend(lock_unwrap(ws));
    findings.extend(allow_reason(ws));
    findings.extend(zst_disarmed(ws));
    findings.retain(|f| !ws.allowed(f.pass, &f.file));
    findings.sort_by(|a, b| (a.pass, &a.file, a.line).cmp(&(b.pass, &b.file, b.line)));
    findings
}

const TELEMETRY_LIB: &str = "crates/telemetry/src/lib.rs";
const FAULTS_FILE: &str = "crates/serve/src/faults.rs";

/// Extracts the `=> "label"` entries of every `catalogue!` invocation,
/// with the byte offset of each label.
fn catalogue_labels(file: &SourceFile) -> Vec<(String, usize)> {
    let mut labels = Vec::new();
    let mut search = 0;
    while let Some(found) = file.masked[search..].find("catalogue!") {
        let at = search + found;
        let Some(open_rel) = file.masked[at..].find('{') else {
            break;
        };
        let open = at + open_rel;
        let close = matching_close(&file.masked, open).unwrap_or(file.masked.len() - 1);
        // Labels are string literals, blanked in the mask — locate the
        // `=> "` anchors on the mask, read the contents from the raw text.
        let mut pos = open;
        while let Some(arrow_rel) = file.masked[pos..close].find("=> \"") {
            let quote = pos + arrow_rel + 3;
            let Some(end_rel) = file.raw[quote + 1..].find('"') else {
                break;
            };
            labels.push((file.raw[quote + 1..quote + 1 + end_rel].to_owned(), quote));
            pos = quote + 1 + end_rel;
        }
        search = close;
    }
    labels
}

/// First-column backticked dotted tokens of the doc's tables, with their
/// byte offsets: `| \`graph.csr\` | ... |` rows.
fn doc_tokens(doc: &str) -> Vec<(String, usize)> {
    let mut tokens = Vec::new();
    let mut offset = 0;
    for line in doc.lines() {
        if let Some(rest) = line.trim_start().strip_prefix('|') {
            let cell = rest.split('|').next().unwrap_or("").trim();
            if let Some(token) = cell
                .strip_prefix('`')
                .and_then(|c| c.strip_suffix('`'))
                .filter(|t| {
                    t.contains('.')
                        && t.chars().all(|c| {
                            c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)
                        })
                })
            {
                tokens.push((token.to_owned(), offset));
            }
        }
        offset += line.len() + 1;
    }
    tokens
}

/// `docs-sync`: the Stage/Metric catalogue and `docs/observability.md`
/// must agree in both directions.
pub(crate) fn docs_sync(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(lib) = ws.file(TELEMETRY_LIB) else {
        return findings; // fixture workspaces without telemetry skip this
    };
    let Some((doc_rel, doc)) = &ws.observability_doc else {
        findings.push(Finding {
            pass: "docs-sync",
            file: TELEMETRY_LIB.to_owned(),
            line: 1,
            message: "docs/observability.md is missing but the telemetry catalogue exists"
                .to_owned(),
        });
        return findings;
    };
    let labels = catalogue_labels(lib);
    for (label, offset) in &labels {
        if !doc.contains(&format!("`{label}`")) {
            findings.push(Finding {
                pass: "docs-sync",
                file: lib.rel.clone(),
                line: lib.line_of(*offset),
                message: format!("catalogue entry \"{label}\" is not documented in {doc_rel}"),
            });
        }
    }
    for (token, offset) in doc_tokens(doc) {
        if !labels.iter().any(|(l, _)| *l == token) {
            findings.push(Finding {
                pass: "docs-sync",
                file: doc_rel.clone(),
                line: line_of(doc, offset),
                message: format!(
                    "documented name \"{token}\" has no Stage/Metric catalogue entry in {TELEMETRY_LIB}"
                ),
            });
        }
    }
    // The kernel-dispatch counters are docs/kernels.md's subject matter:
    // every `intersect.*` catalogue label must additionally appear there,
    // so the kernel taxonomy can never silently drift from the telemetry.
    let kernel_labels: Vec<_> = labels
        .iter()
        .filter(|(l, _)| l.starts_with("intersect."))
        .collect();
    if !kernel_labels.is_empty() {
        match &ws.kernels_doc {
            Some((kernels_rel, kernels)) => {
                for (label, offset) in kernel_labels {
                    if !kernels.contains(&format!("`{label}`")) {
                        findings.push(Finding {
                            pass: "docs-sync",
                            file: lib.rel.clone(),
                            line: lib.line_of(*offset),
                            message: format!(
                                "kernel counter \"{label}\" is not documented in {kernels_rel}"
                            ),
                        });
                    }
                }
            }
            None => findings.push(Finding {
                pass: "docs-sync",
                file: lib.rel.clone(),
                line: lib.line_of(kernel_labels[0].1),
                message: "docs/kernels.md is missing but the catalogue declares intersect.* \
                          kernel counters"
                    .to_owned(),
            }),
        }
    }
    findings
}

/// The variant identifiers of `pub enum FaultPoint`, with offsets.
fn fault_point_variants(file: &SourceFile) -> Vec<(String, usize)> {
    let Some(at) = file.masked.find("enum FaultPoint") else {
        return Vec::new();
    };
    let Some(open) = file.masked[at..].find('{').map(|r| at + r) else {
        return Vec::new();
    };
    let close = matching_close(&file.masked, open).unwrap_or(file.masked.len() - 1);
    let body = &file.masked[open + 1..close];
    let mut variants = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        let trimmed = line.trim();
        if let Some(ident) = trimmed.strip_suffix(',') {
            if !ident.is_empty()
                && ident.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && ident.chars().all(|c| c.is_ascii_alphanumeric())
            {
                // Offset of this line within the file.
                let line_offset =
                    open + 1 + body.lines().take(idx).map(|l| l.len() + 1).sum::<usize>();
                variants.push((ident.to_owned(), line_offset));
            }
        }
    }
    variants
}

/// `fault-coverage`: every `FaultPoint` variant must be referenced by at
/// least one chaos scenario (a root `tests/*chaos*.rs` file).
pub(crate) fn fault_coverage(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(faults) = ws.file(FAULTS_FILE) else {
        return findings;
    };
    let variants = fault_point_variants(faults);
    let chaos_files: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| f.rel.starts_with("tests/") && f.rel.contains("chaos"))
        .collect();
    if chaos_files.is_empty() {
        findings.push(Finding {
            pass: "fault-coverage",
            file: faults.rel.clone(),
            line: 1,
            message:
                "no chaos scenario file (tests/*chaos*.rs) exists to exercise the fault points"
                    .to_owned(),
        });
        return findings;
    }
    for (variant, offset) in variants {
        let needle = format!("FaultPoint::{variant}");
        if !chaos_files.iter().any(|f| f.masked.contains(&needle)) {
            findings.push(Finding {
                pass: "fault-coverage",
                file: faults.rel.clone(),
                line: faults.line_of(offset),
                message: format!(
                    "fault point {needle} is not referenced by any chaos scenario in tests/"
                ),
            });
        }
    }
    findings
}

/// Files the facade discipline applies to: serve, telemetry, and
/// durability sources, minus the facades themselves (they are the one
/// sanctioned doorway).
fn facade_scoped(file: &SourceFile) -> bool {
    (file.rel.starts_with("crates/serve/src/")
        || file.rel.starts_with("crates/telemetry/src/")
        || file.rel.starts_with("crates/durability/src/"))
        && !file.rel.ends_with("/sync.rs")
}

/// `sync-facade`: inside serve/telemetry, synchronisation primitives come
/// from the crate's `sync` facade, never from `std` directly — otherwise
/// loom model checking silently loses coverage of that site.
pub(crate) fn sync_facade(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in ws.files.iter().filter(|f| facade_scoped(f)) {
        for (idx, line) in file.masked.lines().enumerate() {
            let hit = if line.contains("std::sync") {
                Some("std::sync")
            } else if line.contains("std::thread::sleep") {
                Some("std::thread::sleep")
            } else if line.contains("std::time::") && line.contains("Instant") {
                Some("std::time::Instant")
            } else {
                None
            };
            if let Some(what) = hit {
                findings.push(Finding {
                    pass: "sync-facade",
                    file: file.rel.clone(),
                    line: idx + 1,
                    message: format!(
                        "direct use of {what}; import it from the crate's `sync` facade so \
                         loom model checking covers this site"
                    ),
                });
            }
        }
    }
    findings
}

/// `lock-unwrap`: `.unwrap()`/`.expect()` on a lock result either panics
/// on poison (crashing the service for a contained fault) or hides a
/// poisoning-policy decision; the facades' `Unpoison` makes the policy
/// explicit.
pub(crate) fn lock_unwrap(ws: &Workspace) -> Vec<Finding> {
    const LOCK_CALLS: &[&str] = &[
        ".lock()",
        ".read()",
        ".write()",
        ".try_lock()",
        ".try_read()",
        ".try_write()",
    ];
    let mut findings = Vec::new();
    for file in &ws.files {
        for call in LOCK_CALLS {
            let mut search = 0;
            while let Some(found) = file.masked[search..].find(call) {
                let at = search + found;
                search = at + call.len();
                let rest = file.masked[search..].trim_start();
                if rest.starts_with(".unwrap(") || rest.starts_with(".expect(") {
                    findings.push(Finding {
                        pass: "lock-unwrap",
                        file: file.rel.clone(),
                        line: file.line_of(at),
                        message: format!(
                            "`{}` followed by unwrap/expect on the lock result; use the sync \
                             facade's `.unpoison()` instead",
                            &call[1..call.len() - 2]
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// `allow-reason`: every `#[allow(...)]` / `#![allow(...)]` must carry a
/// `reason = "..."` so suppressions stay auditable.
pub(crate) fn allow_reason(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        for anchor in ["#[allow(", "#![allow("] {
            let mut search = 0;
            while let Some(found) = file.masked[search..].find(anchor) {
                let at = search + found;
                let open = at + anchor.len() - 1;
                let close = matching_close(&file.masked, open).unwrap_or(file.masked.len() - 1);
                if !file.raw[open..=close].contains("reason") {
                    findings.push(Finding {
                        pass: "allow-reason",
                        file: file.rel.clone(),
                        line: file.line_of(at),
                        message: "#[allow(...)] without a `reason = \"...\"`; justify the \
                                  suppression or remove it"
                            .to_owned(),
                    });
                }
                search = close;
            }
        }
    }
    findings
}

/// `zst-disarmed`: a struct compiled only when a feature is *off* is the
/// disarmed stand-in for an armed subsystem and must be zero-sized — a
/// unit struct, an empty braces struct, or a struct whose every field is
/// itself feature-gated. Exceptions go in `xtask/analyze_allow.txt`.
pub(crate) fn zst_disarmed(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in ws.files.iter().filter(|f| {
        f.rel.starts_with("crates/serve/src/")
            || f.rel.starts_with("crates/telemetry/src/")
            || f.rel.starts_with("crates/durability/src/")
    }) {
        findings.extend(zst_disarmed_in(file));
        findings.extend(gated_fields_consistent(file));
    }
    findings
}

/// Structs directly under `#[cfg(not(feature = ...))]` must be fieldless.
fn zst_disarmed_in(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut search = 0;
    while let Some(found) = file.masked[search..].find("#[cfg(not(feature") {
        let at = search + found;
        let open = at + "#[cfg".len();
        let close = matching_close(&file.masked, open).unwrap_or(file.masked.len() - 1);
        search = close;
        // Skip trailing `]`, whitespace, and any further attributes or
        // (masked) doc comments, then see what item follows.
        let mut pos = close + 1;
        let bytes = file.masked.as_bytes();
        loop {
            while pos < bytes.len() && (bytes[pos] as char).is_whitespace()
                || pos < bytes.len() && bytes[pos] == b']'
            {
                pos += 1;
            }
            if file.masked[pos..].starts_with("#[") || file.masked[pos..].starts_with("#![") {
                let attr_open = pos + file.masked[pos..].find('[').unwrap_or(0);
                pos = matching_close(&file.masked, attr_open).unwrap_or(pos) + 1;
            } else {
                break;
            }
        }
        let item = &file.masked[pos..];
        let after_vis = item
            .strip_prefix("pub")
            .map(|r| {
                let r = r.trim_start_matches(|c: char| c == '(' || c == ')' || c.is_alphanumeric());
                r.trim_start()
            })
            .unwrap_or(item);
        let Some(rest) = after_vis.strip_prefix("struct ") else {
            continue; // only structs are pattern-checked
        };
        // Unit struct (`struct X;`) or empty braces are zero-sized.
        let body_start = pos + (item.len() - rest.len());
        let Some(delim_rel) = file.masked[body_start..].find(['{', ';', '(']) else {
            continue;
        };
        let delim = body_start + delim_rel;
        match file.masked.as_bytes()[delim] {
            b';' => {}
            b'{' | b'(' => {
                let body_close = matching_close(&file.masked, delim).unwrap_or(delim);
                let body = &file.masked[delim + 1..body_close];
                let has_field = body.lines().any(field_like);
                if has_field {
                    findings.push(Finding {
                        pass: "zst-disarmed",
                        file: file.rel.clone(),
                        line: file.line_of(at),
                        message: "struct under #[cfg(not(feature = ...))] carries fields; the \
                                  disarmed stand-in must be a ZST (or be allowlisted in \
                                  xtask/analyze_allow.txt)"
                            .to_owned(),
                    });
                }
            }
            _ => {}
        }
    }
    findings
}

/// A masked line that declares a named struct field.
fn field_like(line: &str) -> bool {
    let t = line.trim();
    let t = t.strip_prefix("pub").map_or(t, |r| {
        r.trim_start_matches(|c: char| c == '(' || c == ')' || c.is_alphanumeric())
            .trim_start()
    });
    let mut chars = t.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_lowercase() || c == '_')
        && t.contains(':')
        && !t.contains("::")
        && !t.starts_with("fn ")
}

/// Structs mixing `#[cfg(feature = ...)]`-gated and ungated fields are not
/// ZSTs when the feature is off — every field must be gated (the
/// `SpanGuard` pattern) or none.
fn gated_fields_consistent(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut search = 0;
    while let Some(found) = file.masked[search..].find("struct ") {
        let at = search + found;
        search = at + "struct ".len();
        // Require a word boundary before `struct`.
        if at > 0 {
            let prev = file.masked.as_bytes()[at - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let Some(open_rel) = file.masked[at..].find(['{', ';']) else {
            continue;
        };
        let open = at + open_rel;
        if file.masked.as_bytes()[open] != b'{' {
            continue;
        }
        let close = matching_close(&file.masked, open).unwrap_or(open);
        let body = &file.masked[open + 1..close];
        let mut gated = 0usize;
        let mut ungated = 0usize;
        let mut pending_cfg = false;
        for line in body.lines() {
            let t = line.trim();
            if t.starts_with("#[cfg(feature") {
                pending_cfg = true;
            } else if field_like(t) {
                if pending_cfg {
                    gated += 1;
                } else {
                    ungated += 1;
                }
                pending_cfg = false;
            } else if t.starts_with("#[") {
                // derives etc. — keep any pending cfg for the next field
            } else if !t.is_empty() {
                pending_cfg = false;
            }
        }
        if gated > 0 && ungated > 0 {
            findings.push(Finding {
                pass: "zst-disarmed",
                file: file.rel.clone(),
                line: file.line_of(at),
                message: format!(
                    "struct mixes {gated} feature-gated field(s) with {ungated} ungated \
                     field(s); disarmed builds would not be zero-sized"
                ),
            });
        }
        search = close;
    }
    findings
}
