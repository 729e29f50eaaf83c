//! Integration: the extension surfaces — ESDX persistence, vertex
//! structural diversity index, truss baseline — on real surrogates.

use esd::core::vertex_sd::{vertex_topk, VertexSdIndex};
use esd::core::{baselines, EsdIndex, MaintainedIndex};
use esd::datasets::{load, Scale};

#[test]
fn index_persistence_roundtrip_on_surrogates() {
    for name in ["Youtube", "DBLP"] {
        let g = load(name, Scale::Tiny);
        let index = EsdIndex::build_fast(&g);
        let mut buf = Vec::new();
        index.write_to(&mut buf).unwrap();
        let loaded = EsdIndex::read_from(buf.as_slice()).unwrap();
        assert_eq!(loaded, index, "{name}");
    }
}

#[test]
fn static_index_of_maintained_state() {
    // A static index built from the maintained graph after updates answers
    // exactly what the maintained index answers.
    let g = load("Pokec", Scale::Tiny);
    let mut live = MaintainedIndex::new(&g);
    let victims = live.query(5, 2);
    for s in &victims {
        live.remove_edge(s.edge.u, s.edge.v);
    }
    let snapshot = live.graph().to_graph();
    let index = EsdIndex::build_fast(&snapshot);
    for tau in [1, 2, 3] {
        assert_eq!(index.query(30, tau), live.query(30, tau), "τ={tau}");
    }
}

#[test]
fn vertex_index_agrees_with_online_on_surrogates() {
    for name in ["WikiTalk", "DBLP", "LiveJournal"] {
        let g = load(name, Scale::Tiny);
        let index = VertexSdIndex::build(&g);
        for tau in [1, 2, 3] {
            assert_eq!(
                index.query(15, tau),
                vertex_topk(&g, 15, tau),
                "{name} τ={tau}"
            );
        }
    }
}

#[test]
fn rankings_are_semantically_distinct() {
    // ESD, CN, TR and BT should not collapse into the same ranking on a
    // community-structured graph (each captures a different notion).
    let case = esd::datasets::dblp_case::dblp_case(6, 40, 3);
    let g = &case.graph;
    let esd_top: Vec<_> = EsdIndex::build_fast(g)
        .query(5, 2)
        .iter()
        .map(|s| s.edge)
        .collect();
    let cn_top: Vec<_> = baselines::topk_common_neighbors(g, 5)
        .iter()
        .map(|s| s.edge)
        .collect();
    let tr_top: Vec<_> = baselines::topk_trussness(g, 5)
        .iter()
        .map(|s| s.edge)
        .collect();
    let bt_top: Vec<_> = baselines::topk_betweenness_sampled(g, 5, 120, 1)
        .iter()
        .map(|s| s.edge)
        .collect();
    assert_ne!(esd_top, cn_top);
    assert_ne!(esd_top, tr_top);
    assert_ne!(esd_top, bt_top);
    // And the planted bridge is an ESD exclusive among the four.
    let bridge = case.bridges[1];
    assert!(esd_top.contains(&bridge));
    assert!(!cn_top.contains(&bridge));
    assert!(!bt_top.contains(&bridge));
}

#[test]
fn truss_and_esd_relationship() {
    // Trussness t means the edge has ≥ t-2 common neighbours, so the CN
    // upper bound caps ESD at τ=1 relative to support — sanity-check the
    // kernels against each other on a surrogate.
    let g = load("DBLP", Scale::Tiny);
    let truss = esd::graph::truss::truss_decomposition(&g);
    for (id, e) in g.edges().iter().enumerate().step_by(17) {
        let support = g.common_neighbor_count(e.u, e.v) as u32;
        assert!(truss[id] <= support + 2, "trussness exceeds support+2");
    }
}
