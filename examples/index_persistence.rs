//! Build once, ship the index: the ESDX persistence workflow.
//!
//! A production deployment builds the ESDIndex offline, writes it next to
//! the graph, and serves queries from the loaded artifact — with
//! checksummed loading that refuses corrupted files.
//!
//! Run with: `cargo run --release --example index_persistence`

use esd::core::EsdIndex;
use esd::graph::generators;
use std::time::Instant;

fn main() {
    let g = generators::clique_overlap(5_000, 4_000, 6, 7);
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // Offline: build + save.
    let start = Instant::now();
    let index = EsdIndex::build_fast(&g);
    println!(
        "built ESDIndex in {:?} ({} entries, {} bytes)",
        start.elapsed(),
        index.total_entries(),
        index.byte_size()
    );
    let path = std::env::temp_dir().join("esd_example.esdx");
    index.save(&path).expect("save index");
    println!(
        "saved to {} ({} bytes on disk)",
        path.display(),
        std::fs::metadata(&path).unwrap().len()
    );

    // Online: load + serve.
    let start = Instant::now();
    let served = EsdIndex::load(&path).expect("load index");
    println!("loaded in {:?}", start.elapsed());
    let start = Instant::now();
    let reps = 10_000;
    let mut checksum = 0u64;
    for i in 0..reps {
        let tau = 1 + (i % 4) as u32;
        for s in served.query_slice(10, tau) {
            checksum = checksum.wrapping_add(s.edge.key());
        }
    }
    let elapsed = start.elapsed();
    println!(
        "{reps} queries in {:?} ({:.2} µs/query, checksum {checksum:x})",
        elapsed,
        elapsed.as_secs_f64() * 1e6 / f64::from(reps)
    );
    assert_eq!(served, index, "loaded == built");

    // Corruption is rejected, never silently misread.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    let corrupted = std::env::temp_dir().join("esd_example_corrupt.esdx");
    std::fs::write(&corrupted, &bytes).unwrap();
    match EsdIndex::load(&corrupted) {
        Err(e) => println!("corrupted copy rejected: {e}"),
        Ok(_) => unreachable!("checksum must catch the flip"),
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&corrupted).ok();
}
