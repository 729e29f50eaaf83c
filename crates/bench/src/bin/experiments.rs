//! Regenerates every table and figure of the paper's evaluation (§VI).
//!
//! ```text
//! experiments [--scale tiny|small|bench] [--csv <dir>]
//!             [table1|fig5|fig6|fig7|fig8|fig9|fig10|fig11|case_dblp|case_words|ablation|churn|serve|all]
//! ```
//!
//! `--csv <dir>` additionally writes each table as `<dir>/<name>.csv`. The
//! output here is human-oriented text/CSV; the machine-readable JSON perf
//! baseline (stage timings + kernel counters) comes from `esd bench --json`
//! instead (see `docs/observability.md`).
//!
//! Each experiment prints a paper-style text table. Absolute numbers differ
//! from the paper (1-core container, synthetic surrogates — see DESIGN.md
//! §7); the comparisons the paper draws (who wins, by what order of
//! magnitude, how curves move with k/τ/size) are the reproduction target
//! and are recorded against the paper in EXPERIMENTS.md.

use esd_bench::{fmt_bytes, fmt_duration, time, TextTable};
use esd_core::online::{online_topk_with_stats, UpperBound};
use esd_core::{EsdIndex, MaintainedIndex};
use esd_datasets::{dblp_case::dblp_case, load, specs, words::word_association, Scale};
use esd_graph::{metrics::GraphStats, subgraph, Graph};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Duration;

const KS: [usize; 6] = [1, 10, 50, 100, 150, 200];
const TAUS: [u32; 6] = [1, 2, 3, 4, 5, 6];
const DEFAULT_K: usize = 100;
const DEFAULT_TAU: u32 = 3;

/// Directory for `--csv` table dumps (None = stdout only).
static CSV_DIR: std::sync::OnceLock<Option<std::path::PathBuf>> = std::sync::OnceLock::new();

/// Prints a table and, under `--csv <dir>`, also writes `<dir>/<name>.csv`.
fn emit(name: &str, heading: &str, t: &TextTable) {
    println!("{heading}\n{}", t.render());
    if let Some(Some(dir)) = CSV_DIR.get().map(|d| d.as_ref()) {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, t.to_csv()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => {
                let dir = std::path::PathBuf::from(it.next().expect("--csv needs a directory"));
                std::fs::create_dir_all(&dir).expect("create --csv directory");
                csv_dir = Some(dir);
            }
            "--scale" => {
                let v = it.next().expect("--scale needs a value");
                scale = match v.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "bench" => Scale::Bench,
                    other => panic!("unknown scale {other:?}"),
                };
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        wanted = [
            "table1",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "case_dblp",
            "case_words",
            "ablation",
            "churn",
            "serve",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
    }
    CSV_DIR.set(csv_dir).expect("csv dir set once");
    println!("# ESD experiments (scale = {scale:?})\n");
    for w in wanted {
        match w.as_str() {
            "table1" => table1(scale),
            "fig5" => fig5(scale),
            "fig6" | "fig6a" | "fig6b" => fig6(scale),
            "fig7" => fig7(scale),
            "fig8" => fig8(scale),
            "fig9" => fig9(scale),
            "fig10" => fig10(scale),
            "fig11" => fig11(scale),
            "case_dblp" => case_dblp(),
            "case_words" => case_words(),
            "ablation" => {
                ablation(scale);
                ablation_topk(scale);
            }
            "churn" => churn(scale),
            "serve" => serve(scale),
            other => eprintln!("unknown experiment {other:?} — skipping"),
        }
    }
}

/// Table I: dataset statistics (surrogate vs original).
fn table1(scale: Scale) {
    println!("## Table I — datasets (surrogates at {scale:?} scale vs the paper's originals)\n");
    let mut t = TextTable::new(&[
        "Dataset",
        "n",
        "m",
        "d_max",
        "δ",
        "paper n",
        "paper m",
        "paper d_max",
        "paper δ",
    ]);
    for spec in specs() {
        let g = load(spec.name, scale);
        let s = GraphStats::compute(&g);
        t.row(vec![
            spec.name.into(),
            s.n.to_string(),
            s.m.to_string(),
            s.d_max.to_string(),
            s.degeneracy.to_string(),
            spec.paper_n.to_string(),
            spec.paper_m.to_string(),
            spec.paper_dmax.to_string(),
            spec.paper_delta.to_string(),
        ]);
    }
    emit("table1", "", &t);
}

fn run_online(
    g: &Graph,
    k: usize,
    tau: u32,
    which: UpperBound,
) -> (
    Vec<esd_core::ScoredEdge>,
    esd_core::online::OnlineStats,
    Duration,
) {
    let ((r, s), d) = time(|| online_topk_with_stats(g, k, tau, which));
    (r, s, d)
}

/// Fig 5: OnlineBFS vs OnlineBFS+ with varying k and τ (Pokec, LiveJournal).
fn fig5(scale: Scale) {
    println!("## Fig 5 — OnlineBFS vs OnlineBFS+ (dequeue-twice with each bound)\n");
    for name in ["Pokec", "LiveJournal"] {
        let g = load(name, scale);
        let mut t = TextTable::new(&[
            "k (τ=3)",
            "OnlineBFS",
            "OnlineBFS+",
            "speedup",
            "exact evals BFS",
            "exact evals BFS+",
        ]);
        for k in KS {
            let (r1, s1, d1) = run_online(&g, k, DEFAULT_TAU, UpperBound::MinDegree);
            let (r2, s2, d2) = run_online(&g, k, DEFAULT_TAU, UpperBound::CommonNeighbor);
            assert_eq!(r1, r2, "variants must agree");
            t.row(vec![
                k.to_string(),
                fmt_duration(d1),
                fmt_duration(d2),
                format!("{:.1}x", d1.as_secs_f64() / d2.as_secs_f64().max(1e-9)),
                s1.exact_evaluations.to_string(),
                s2.exact_evaluations.to_string(),
            ]);
        }
        emit(
            &format!("fig5_{name}_k"),
            &format!("### {name}, varying k"),
            &t,
        );

        let mut t = TextTable::new(&["τ (k=100)", "OnlineBFS", "OnlineBFS+", "speedup"]);
        for tau in TAUS {
            let (_, _, d1) = run_online(&g, DEFAULT_K, tau, UpperBound::MinDegree);
            let (_, _, d2) = run_online(&g, DEFAULT_K, tau, UpperBound::CommonNeighbor);
            t.row(vec![
                tau.to_string(),
                fmt_duration(d1),
                fmt_duration(d2),
                format!("{:.1}x", d1.as_secs_f64() / d2.as_secs_f64().max(1e-9)),
            ]);
        }
        emit(
            &format!("fig5_{name}_tau"),
            &format!("### {name}, varying τ"),
            &t,
        );
    }
}

/// Fig 6: (a) index vs graph size; (b) ESDIndex vs ESDIndex+ build time.
fn fig6(scale: Scale) {
    println!("## Fig 6 — ESDIndex size and construction time\n");
    let mut ta = TextTable::new(&[
        "Dataset",
        "graph size",
        "index size",
        "ratio",
        "entries",
        "|C|",
    ]);
    let mut tb = TextTable::new(&[
        "Dataset",
        "ESDIndex (Alg 2)",
        "ESDIndex+ (Alg 3)",
        "speedup",
        "components: BFS / 4-clique",
        "shared list fill",
    ]);
    for spec in specs() {
        let g = load(spec.name, scale);
        // Phase breakdown: the component computation is where Algorithms 2
        // and 3 differ; the H(c) list fill is identical for both.
        let (comps_bfs, d_comp_bfs) = time(|| esd_core::index::EdgeComponents::by_bfs(&g));
        let (comps_fc, d_comp_fc) = time(|| esd_core::index::EdgeComponents::by_four_cliques(&g));
        let (index_fast, d_fill) = time(|| esd_core::index::assemble_index(&g, &comps_fc));
        let _ = &comps_bfs;
        let d_basic = d_comp_bfs + d_fill;
        let d_fast = d_comp_fc + d_fill;
        ta.row(vec![
            spec.name.into(),
            fmt_bytes(g.byte_size()),
            fmt_bytes(index_fast.byte_size()),
            format!(
                "{:.1}x",
                index_fast.byte_size() as f64 / g.byte_size() as f64
            ),
            index_fast.total_entries().to_string(),
            index_fast.num_lists().to_string(),
        ]);
        tb.row(vec![
            spec.name.into(),
            fmt_duration(d_basic),
            fmt_duration(d_fast),
            format!(
                "{:.1}x",
                d_basic.as_secs_f64() / d_fast.as_secs_f64().max(1e-9)
            ),
            format!("{} / {}", fmt_duration(d_comp_bfs), fmt_duration(d_comp_fc)),
            fmt_duration(d_fill),
        ]);
    }
    emit("fig6a", "### (a) index size vs graph size", &ta);
    emit(
        "fig6b",
        "### (b) construction time (components phase + shared fill)",
        &tb,
    );
}

/// Fig 7: PESDIndex+ speedup with increasing thread count.
fn fig7(scale: Scale) {
    println!("## Fig 7 — parallel index construction (PESDIndex+)\n");
    println!(
        "note: this machine exposes {} CPU core(s); wall-clock speedup is\n\
         hardware-capped, so per-worker balance is reported alongside.\n",
        std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(1)
    );
    for name in ["Pokec", "LiveJournal"] {
        let g = load(name, scale);
        let (_, base) = time(|| EsdIndex::build_fast(&g));
        let mut t = TextTable::new(&[
            "threads",
            "PESDIndex+ time",
            "speedup vs Alg 3",
            "cliques/worker (min..max)",
        ]);
        for threads in [1usize, 2, 4, 8, 16, 20] {
            let ((_, report), d) = time(|| EsdIndex::build_parallel_with_report(&g, threads));
            let (min, max) = (
                report.cliques_per_worker.iter().min().copied().unwrap_or(0),
                report.cliques_per_worker.iter().max().copied().unwrap_or(0),
            );
            t.row(vec![
                threads.to_string(),
                fmt_duration(d),
                format!("{:.2}x", base.as_secs_f64() / d.as_secs_f64().max(1e-9)),
                format!("{min}..{max}"),
            ]);
        }
        emit(&format!("fig7_{name}"), &format!("### {name}"), &t);
    }
}

/// Fig 8: OnlineBFS+ vs IndexSearch across datasets, varying k and τ.
fn fig8(scale: Scale) {
    println!("## Fig 8 — OnlineBFS+ vs IndexSearch\n");
    for spec in specs() {
        let g = load(spec.name, scale);
        let index = EsdIndex::build_fast(&g);
        let mut t = TextTable::new(&["param", "OnlineBFS+", "IndexSearch", "speedup"]);
        for k in KS {
            let (online, _, d_on) = run_online(&g, k, DEFAULT_TAU, UpperBound::CommonNeighbor);
            let (fast, d_ix) = time(|| index.query(k, DEFAULT_TAU));
            assert_eq!(online, fast, "IndexSearch must agree with OnlineBFS+");
            t.row(vec![
                format!("k={k} (τ=3)"),
                fmt_duration(d_on),
                fmt_duration(d_ix),
                format!("{:.0}x", d_on.as_secs_f64() / d_ix.as_secs_f64().max(1e-9)),
            ]);
        }
        for tau in TAUS {
            let (online, _, d_on) = run_online(&g, DEFAULT_K, tau, UpperBound::CommonNeighbor);
            let (fast, d_ix) = time(|| index.query(DEFAULT_K, tau));
            assert_eq!(online, fast);
            t.row(vec![
                format!("τ={tau} (k=100)"),
                fmt_duration(d_on),
                fmt_duration(d_ix),
                format!("{:.0}x", d_on.as_secs_f64() / d_ix.as_secs_f64().max(1e-9)),
            ]);
        }
        emit(
            &format!("fig8_{}", spec.name),
            &format!("### {}", spec.name),
            &t,
        );
    }
}

/// Fig 9: scalability on LiveJournal subgraphs (20%–100% of edges/vertices).
fn fig9(scale: Scale) {
    println!("## Fig 9 — scalability (LiveJournal subgraphs)\n");
    let g = load("LiveJournal", scale);
    type Sampler = fn(&Graph, f64, u64) -> Graph;
    let samplers: [(&str, Sampler); 2] = [
        ("edges", subgraph::sample_edges),
        ("vertices", subgraph::sample_vertices),
    ];
    for (label, sample) in samplers {
        let mut t = TextTable::new(&["fraction", "m", "OnlineBFS+", "index build", "IndexSearch"]);
        for pct in [20, 40, 60, 80, 100] {
            let sub = if pct == 100 {
                g.clone()
            } else {
                sample(&g, f64::from(pct) / 100.0, 0x5CA1E)
            };
            let (_, _, d_on) = run_online(&sub, DEFAULT_K, DEFAULT_TAU, UpperBound::CommonNeighbor);
            let (index, d_build) = time(|| EsdIndex::build_fast(&sub));
            let (_, d_ix) = time(|| index.query(DEFAULT_K, DEFAULT_TAU));
            t.row(vec![
                format!("{pct}%"),
                sub.num_edges().to_string(),
                fmt_duration(d_on),
                fmt_duration(d_build),
                fmt_duration(d_ix),
            ]);
        }
        emit(
            &format!("fig9_{label}"),
            &format!("### sampling {label}"),
            &t,
        );
    }
}

/// Fig 10: PESDIndex+ scalability (1 thread vs 20 threads) on subgraphs.
fn fig10(scale: Scale) {
    println!("## Fig 10 — PESDIndex+ scalability (LiveJournal subgraphs)\n");
    let g = load("LiveJournal", scale);
    let mut t = TextTable::new(&["fraction", "m", "t=1", "t=20", "speedup"]);
    for pct in [20, 40, 60, 80, 100] {
        let sub = if pct == 100 {
            g.clone()
        } else {
            subgraph::sample_edges(&g, f64::from(pct) / 100.0, 0x5CA1E)
        };
        let (_, d1) = time(|| EsdIndex::build_parallel(&sub, 1));
        let (_, d20) = time(|| EsdIndex::build_parallel(&sub, 20));
        t.row(vec![
            format!("{pct}%"),
            sub.num_edges().to_string(),
            fmt_duration(d1),
            fmt_duration(d20),
            format!("{:.2}x", d1.as_secs_f64() / d20.as_secs_f64().max(1e-9)),
        ]);
    }
    emit("fig10", "", &t);
}

/// Fig 11: average time of 1000 edge insertions and deletions per dataset.
fn fig11(scale: Scale) {
    println!("## Fig 11 — index maintenance (1000 insertions / 1000 deletions)\n");
    let mut t = TextTable::new(&[
        "Dataset",
        "avg Insertion",
        "avg Deletion",
        "full build",
        "build / deletion",
    ]);
    for spec in specs() {
        let g = load(spec.name, scale);
        let (_, d_build) = time(|| EsdIndex::build_fast(&g));
        let mut index = MaintainedIndex::new(&g);
        let mut rng = StdRng::seed_from_u64(0xF1611);
        // 1000 random existing edges, each deleted then re-inserted (the
        // graph is unchanged overall, matching the paper's protocol).
        let m = g.num_edges();
        let victims: Vec<esd_graph::Edge> = (0..1000.min(m))
            .map(|_| g.edge(rng.gen_range(0..m) as u32))
            .collect();
        let (mut del, mut ins) = (Duration::ZERO, Duration::ZERO);
        let mut performed = 0u32;
        for e in &victims {
            let (removed, d1) = time(|| index.remove_edge(e.u, e.v));
            if !removed {
                continue; // duplicate pick already deleted
            }
            let (_, d2) = time(|| index.insert_edge(e.u, e.v));
            del += d1;
            ins += d2;
            performed += 1;
        }
        let avg_del = del / performed.max(1);
        t.row(vec![
            spec.name.into(),
            fmt_duration(ins / performed.max(1)),
            fmt_duration(avg_del),
            fmt_duration(d_build),
            format!(
                "{:.0}x",
                d_build.as_secs_f64() / avg_del.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    emit("fig11", "", &t);
}

/// Exp-7 / Fig 12: the DBLP-style case study (ESD vs CN vs BT).
fn case_dblp() {
    println!("## Fig 12 — case study: collaboration bridges (τ = 2)\n");
    let case = dblp_case(6, 40, 3);
    let g = &case.graph;
    let index = EsdIndex::build_fast(g);
    let mut t = TextTable::new(&[
        "method",
        "rank",
        "edge",
        "common nbrs",
        "components",
        "areas spanned",
    ]);
    let describe = |u: u32, v: u32| {
        let members = g.common_neighbors(u, v);
        let sizes = esd_core::score::component_sizes(g, u, v);
        let mut areas: Vec<usize> = members
            .iter()
            .map(|&w| case.area_of[w as usize])
            .filter(|&a| a != usize::MAX)
            .collect();
        areas.sort_unstable();
        areas.dedup();
        (members.len(), sizes.len(), areas.len())
    };
    let mut add = |method: &str, rank: usize, u: u32, v: u32| {
        let (cn, comps, areas) = describe(u, v);
        t.row(vec![
            method.into(),
            (rank + 1).to_string(),
            esd_graph::Edge::new(u, v).to_string(),
            cn.to_string(),
            comps.to_string(),
            areas.to_string(),
        ]);
    };
    for (rank, s) in index.query(2, 2).iter().enumerate() {
        add("ESD", rank, s.edge.u, s.edge.v);
    }
    for (rank, s) in esd_core::baselines::topk_common_neighbors(g, 2)
        .iter()
        .enumerate()
    {
        add("CN", rank, s.edge.u, s.edge.v);
    }
    for (rank, s) in esd_core::baselines::topk_betweenness(g, 2)
        .iter()
        .enumerate()
    {
        add("BT", rank, s.edge.u, s.edge.v);
    }
    emit("fig12", "", &t);
    // Under --csv, also render the top edges' ego-networks as Graphviz DOT
    // (the actual Fig 12 artwork).
    if let Some(Some(dir)) = CSV_DIR.get().map(|d| d.as_ref()) {
        for (method, edge) in [
            ("esd", index.query(1, 2).first().map(|s| s.edge)),
            (
                "cn",
                esd_core::baselines::topk_common_neighbors(g, 1)
                    .first()
                    .map(|s| s.edge),
            ),
            (
                "bt",
                esd_core::baselines::topk_betweenness(g, 1)
                    .first()
                    .map(|s| s.edge),
            ),
        ] {
            if let Some(e) = edge {
                let dot = esd_graph::dot::ego_network_dot(g, e.u, e.v, |_| None);
                let path = dir.join(format!("fig12_{method}_top_edge.dot"));
                if let Err(err) = std::fs::write(&path, dot) {
                    eprintln!("warning: cannot write {}: {err}", path.display());
                }
            }
        }
    }
    println!(
        "reading: ESD edges have many shared collaborators split across many\n\
         areas (strong multi-context ties); CN edges sit inside one area; BT\n\
         edges are weak barbell links with few or no shared collaborators.\n"
    );
}

/// Exp-8 / Fig 13: the word-association case study.
fn case_words() {
    println!("## Fig 13 — case study: word associations (τ = 2, k = 2)\n");
    let net = word_association(1_000, 7);
    let index = EsdIndex::build_fast(&net.graph);
    for s in index.query(2, 2) {
        println!(
            "(\"{}\", \"{}\") — structural diversity {}",
            net.word(s.edge.u),
            net.word(s.edge.v),
            s.score
        );
        let members = net.graph.common_neighbors(s.edge.u, s.edge.v);
        let sizes = esd_core::score::component_sizes(&net.graph, s.edge.u, s.edge.v);
        println!(
            "  {} shared words in components of sizes {:?}",
            members.len(),
            sizes
        );
    }
    println!(
        "\nreading: each ego-network component of (\"bank\", \"money\") is a\n\
         distinct shared context (accounts, lending, robbery, …) — Fig 13's\n\
         finding reproduced.\n"
    );
}

/// Ablations over the design choices DESIGN.md calls out: on-disk
/// persistence, intersection kernel, and DAG orientation for the 4-clique
/// enumerator.
fn ablation(scale: Scale) {
    println!("## Ablations\n");

    // (a) Persistence: save/load round-trip of the index.
    let mut ta = TextTable::new(&["Dataset", "file size", "save", "load"]);
    for spec in specs() {
        let g = load(spec.name, scale);
        let index = EsdIndex::build_fast(&g);
        let mut buf = Vec::new();
        let (_, d_save) = time(|| index.write_to(&mut buf).expect("serialise"));
        let (loaded, d_load) = time(|| EsdIndex::read_from(buf.as_slice()).expect("load"));
        assert_eq!(loaded, index);
        ta.row(vec![
            spec.name.into(),
            fmt_bytes(buf.len()),
            fmt_duration(d_save),
            fmt_duration(d_load),
        ]);
    }
    emit(
        "ablation_persist",
        "### (a) index persistence (ESDX format)",
        &ta,
    );

    // (b) Intersection kernel for the neighbourhood phase.
    let mut tb = TextTable::new(&["Dataset", "merge only", "adaptive (merge+gallop)"]);
    for name in ["WikiTalk", "Pokec"] {
        let g = load(name, scale);
        let (_, d_merge) = time(|| {
            let mut out = Vec::new();
            let mut total = 0usize;
            for e in g.edges() {
                out.clear();
                esd_graph::intersect::intersect_merge(g.neighbors(e.u), g.neighbors(e.v), &mut out);
                total += out.len();
            }
            total
        });
        let (_, d_adaptive) = time(|| {
            let mut out = Vec::new();
            let mut total = 0usize;
            for e in g.edges() {
                out.clear();
                esd_graph::intersect::intersect_into(g.neighbors(e.u), g.neighbors(e.v), &mut out);
                total += out.len();
            }
            total
        });
        tb.row(vec![
            name.into(),
            fmt_duration(d_merge),
            fmt_duration(d_adaptive),
        ]);
    }
    emit(
        "ablation_intersect",
        "### (b) common-neighbourhood intersection kernel",
        &tb,
    );

    // (c) DAG orientation for 4-clique enumeration.
    let mut tc = TextTable::new(&[
        "Dataset",
        "degree ordering",
        "degeneracy ordering",
        "max out-degree (deg/degen)",
    ]);
    for name in ["DBLP", "LiveJournal"] {
        let g = load(name, scale);
        let count_with = |dag: &esd_graph::OrientedGraph| {
            let mut count = 0u64;
            esd_graph::cliques::for_each_four_clique(dag, 0..dag.num_edges(), |_, _, _, _, _| {
                count += 1;
            });
            count
        };
        let dag_deg = esd_graph::OrientedGraph::by_degree(&g);
        let dag_degen = esd_graph::OrientedGraph::by_degeneracy(&g);
        let (c1, d_deg) = time(|| count_with(&dag_deg));
        let (c2, d_degen) = time(|| count_with(&dag_degen));
        assert_eq!(c1, c2, "orientation must not change the clique count");
        tc.row(vec![
            name.into(),
            fmt_duration(d_deg),
            fmt_duration(d_degen),
            format!(
                "{}/{}",
                dag_deg.max_out_degree(),
                dag_degen.max_out_degree()
            ),
        ]);
    }
    emit(
        "ablation_orientation",
        "### (c) orientation for the 4-clique enumerator",
        &tc,
    );
}

/// Ablation (d): one-shot top-k strategy — dequeue-twice pruning vs scoring
/// everything with the 4-clique pass. Appended to the `ablation` output by
/// `main` when requested via `ablation_topk`.
fn ablation_topk(scale: Scale) {
    let mut t = TextTable::new(&[
        "Dataset",
        "τ",
        "OnlineBFS+ (pruned)",
        "batch 4-clique (exact-all)",
    ]);
    for name in ["DBLP", "Pokec"] {
        let g = load(name, scale);
        for tau in [1u32, 3, 6] {
            let (a, d_online) = time(|| {
                esd_core::online::online_topk(&g, DEFAULT_K, tau, UpperBound::CommonNeighbor)
            });
            let (b, d_batch) = time(|| esd_core::score::batch_topk(&g, DEFAULT_K, tau));
            assert_eq!(a, b, "strategies must agree");
            t.row(vec![
                name.into(),
                tau.to_string(),
                fmt_duration(d_online),
                fmt_duration(d_batch),
            ]);
        }
    }
    emit("ablation_topk", "### (d) one-shot top-k strategy", &t);
}

/// Extended maintenance experiment (beyond Fig 11): replay a realistic
/// temporal churn trace — growth, triadic closure, decay — against the
/// maintained index, and verify the final state against a rebuild.
fn churn(scale: Scale) {
    println!("## Churn — maintenance under a realistic temporal workload\n");
    let mut t = TextTable::new(&[
        "Dataset",
        "events",
        "inserts",
        "deletes",
        "avg insert",
        "avg delete",
        "total",
        "verified",
    ]);
    for name in ["Youtube", "DBLP"] {
        let g = load(name, scale);
        let trace = esd_datasets::churn::churn_trace(
            &g,
            2000,
            esd_datasets::churn::ChurnMix::default(),
            0xC0,
        );
        let mut index = MaintainedIndex::new(&g);
        let (mut d_ins, mut d_del) = (Duration::ZERO, Duration::ZERO);
        let (mut n_ins, mut n_del) = (0u32, 0u32);
        for &ev in &trace {
            match ev {
                esd_datasets::churn::ChurnEvent::Insert(a, b) => {
                    let (ok, d) = time(|| index.insert_edge(a, b));
                    assert!(ok);
                    d_ins += d;
                    n_ins += 1;
                }
                esd_datasets::churn::ChurnEvent::Remove(a, b) => {
                    let (ok, d) = time(|| index.remove_edge(a, b));
                    assert!(ok);
                    d_del += d;
                    n_del += 1;
                }
            }
        }
        // Verify against a from-scratch rebuild of the final graph.
        let rebuilt = EsdIndex::build_fast(&index.graph().to_graph());
        let verified = (1..=3).all(|tau| index.query(50, tau) == rebuilt.query(50, tau));
        t.row(vec![
            name.into(),
            trace.len().to_string(),
            n_ins.to_string(),
            n_del.to_string(),
            fmt_duration(d_ins / n_ins.max(1)),
            fmt_duration(d_del / n_del.max(1)),
            fmt_duration(d_ins + d_del),
            verified.to_string(),
        ]);
        assert!(verified, "maintained index diverged from rebuild on {name}");
    }
    emit("churn", "", &t);
}

/// Serving experiment (beyond the paper): a mixed query/update stream
/// against the maintained index, contrasted with the rebuild-on-write
/// strategy a static index would force. Read:write ratios span
/// read-heavy to write-heavy regimes.
fn serve(scale: Scale) {
    println!("## Serve — mixed query/update throughput\n");
    let g = load("Pokec", scale);
    let mut t = TextTable::new(&[
        "read:write",
        "ops",
        "maintained ops/s",
        "rebuild-per-write ops/s",
        "advantage",
    ]);
    for (reads, writes) in [(99usize, 1usize), (90, 10), (50, 50)] {
        let trace = esd_datasets::churn::churn_trace(
            &g,
            400 * writes / 100 + 40,
            esd_datasets::churn::ChurnMix::default(),
            0x5E,
        );
        let total_ops = 400usize;
        let mut rng = StdRng::seed_from_u64(0x5EED);

        // Strategy A: maintained index.
        let mut maintained = MaintainedIndex::new(&g);
        let mut write_cursor = 0;
        let (_, d_maintained) = time(|| {
            for op in 0..total_ops {
                if op % 100 < reads {
                    let k = 1 + rng.gen_range(0..100);
                    let tau = 1 + rng.gen_range(0..4);
                    std::hint::black_box(maintained.query(k, tau));
                } else if write_cursor < trace.len() {
                    match trace[write_cursor] {
                        esd_datasets::churn::ChurnEvent::Insert(a, b) => {
                            maintained.insert_edge(a, b);
                        }
                        esd_datasets::churn::ChurnEvent::Remove(a, b) => {
                            maintained.remove_edge(a, b);
                        }
                    }
                    write_cursor += 1;
                }
            }
        });

        // Strategy B: static index, rebuilt on every write. One rebuild is
        // timed and amortised analytically to keep the experiment short.
        let index = EsdIndex::build_fast(&g);
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (_, d_reads) = time(|| {
            for _ in 0..total_ops {
                let k = 1 + rng.gen_range(0..100);
                let tau = 1 + rng.gen_range(0..4);
                std::hint::black_box(index.query(k, tau));
            }
        });
        let (_, d_rebuild) = time(|| EsdIndex::build_fast(&g));
        let writes_done = write_cursor.max(1) as u32;
        let d_static = d_reads + d_rebuild * writes_done;

        let tput_a = total_ops as f64 / d_maintained.as_secs_f64();
        let tput_b = total_ops as f64 / d_static.as_secs_f64();
        t.row(vec![
            format!("{reads}:{writes}"),
            total_ops.to_string(),
            format!("{tput_a:.0}"),
            format!("{tput_b:.0}"),
            format!("{:.0}x", tput_a / tput_b.max(1e-9)),
        ]);
    }
    emit("serve", "", &t);
}
