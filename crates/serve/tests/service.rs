//! Concurrency and end-to-end tests of the query service.
//!
//! Runs with `strict-invariants` armed (dev-dependency feature), so every
//! batch the writer applies re-validates the index before the snapshot is
//! published — the isolation tests below double as audit-under-concurrency
//! tests.

use esd_core::maintain::{GraphUpdate, MutationBatch};
use esd_core::{MaintainedIndex, ScoredEdge};
use esd_graph::{generators, Graph};
use esd_serve::server::MAX_LINE_BYTES;
use esd_serve::{IdMap, QueryRequest, ServeError, Server, Service, ServiceConfig};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const K: usize = 25;
const TAU: u32 = 2;

fn test_graph() -> Graph {
    generators::clique_overlap(250, 200, 5, 0xE5D)
}

/// A batch of random inserts+removes over the same vertex universe.
fn random_batch(n: u32, len: usize, seed: u64) -> Vec<GraphUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = Vec::with_capacity(len);
    while batch.len() < len {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a == b {
            continue;
        }
        batch.push(if rng.gen_bool(0.7) {
            GraphUpdate::Insert(a, b)
        } else {
            GraphUpdate::Remove(a, b)
        });
    }
    batch
}

/// Concurrent readers during a writer batch must see only fully-published
/// snapshots: every response matches either the pre-batch or the
/// post-batch ground truth, never a mix.
#[test]
fn readers_see_only_published_snapshots() {
    let g = test_graph();
    let batch = random_batch(250, 1000, 7);

    // Ground truth before and after, computed on private copies.
    let before: Vec<ScoredEdge> = MaintainedIndex::new(&g).query(K, TAU);
    let after: Vec<ScoredEdge> = {
        let mut scratch = MaintainedIndex::new(&g);
        scratch.apply_batch(&batch);
        scratch.query(K, TAU)
    };
    assert_ne!(before, after, "the batch must change the top-k");

    let service = Service::start(
        &g,
        &ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let writer_done = Arc::new(AtomicBool::new(false));
    // 4 readers + the writer: the barrier guarantees every reader completes
    // at least one query strictly before the batch starts.
    let barrier = Arc::new(std::sync::Barrier::new(5));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let handle = handle.clone();
            let done = Arc::clone(&writer_done);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut responses = vec![handle
                    .execute(QueryRequest::new(K, TAU))
                    .expect("query failed")];
                barrier.wait();
                while !done.load(Ordering::Relaxed) {
                    responses.push(
                        handle
                            .execute(QueryRequest::new(K, TAU))
                            .expect("query failed"),
                    );
                    std::thread::sleep(Duration::from_micros(100));
                }
                // One more after the writer finished: must be post-batch.
                responses.push(
                    handle
                        .execute(QueryRequest::new(K, TAU))
                        .expect("query failed"),
                );
                responses
            })
        })
        .collect();

    barrier.wait();
    let outcome = handle
        .submit(MutationBatch::from_raw(batch))
        .expect("batch apply failed");
    assert!(outcome.applied > 0);
    writer_done.store(true, Ordering::Relaxed);

    let mut total = 0usize;
    let mut saw_pre = false;
    let mut saw_post = false;
    for reader in readers {
        let responses = reader.join().unwrap();
        let last_epoch = responses.last().unwrap().epoch;
        assert_eq!(last_epoch, outcome.epoch, "final read is post-publication");
        for resp in responses {
            total += 1;
            if *resp.results == before {
                saw_pre = true;
                assert!(resp.epoch < outcome.epoch, "pre-batch data ⇒ old epoch");
            } else if *resp.results == after {
                saw_post = true;
                assert!(resp.epoch >= outcome.epoch, "post-batch data ⇒ new epoch");
            } else {
                panic!("response matches neither pre- nor post-batch ground truth");
            }
        }
    }
    assert!(saw_pre, "some reads should land before publication");
    assert!(saw_post, "final reads land after publication");
    assert!(total >= 8);
    service.shutdown();
}

/// Publication of a new snapshot invalidates the cache: the same `(k, τ)`
/// stops hitting and returns the updated answer.
#[test]
fn cache_is_invalidated_by_publication() {
    let g = test_graph();
    let service = Service::start(
        &g,
        &ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();

    let first = handle.execute(QueryRequest::new(K, TAU)).unwrap();
    assert!(!first.cache_hit);
    let second = handle.execute(QueryRequest::new(K, TAU)).unwrap();
    assert!(second.cache_hit, "identical query against same epoch hits");
    assert_eq!(*first.results, *second.results);
    assert!(handle.metrics().cache_hits.get() >= 1);

    let batch = random_batch(250, 400, 11);
    let expected = {
        let mut scratch = MaintainedIndex::new(&g);
        scratch.apply_batch(&batch);
        scratch.query(K, TAU)
    };
    let outcome = handle.submit(MutationBatch::from_raw(batch)).unwrap();
    assert!(outcome.applied > 0);

    let third = handle.execute(QueryRequest::new(K, TAU)).unwrap();
    assert!(!third.cache_hit, "new epoch ⇒ cache miss");
    assert_eq!(third.epoch, outcome.epoch);
    assert_eq!(*third.results, expected, "post-update answer is fresh");
    service.shutdown();
}

/// An already-expired deadline yields `DeadlineExceeded` — promptly, not by
/// hanging — on both the query and the update path.
#[test]
fn expired_deadlines_error_instead_of_hanging() {
    let g = test_graph();
    let service = Service::start(
        &g,
        &ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let past = Instant::now() - Duration::from_millis(1);

    let started = Instant::now();
    let q = handle.execute(QueryRequest::new(K, TAU).before(past));
    assert!(matches!(q, Err(ServeError::DeadlineExceeded)), "{q:?}");
    let u = handle.submit_before(
        MutationBatch::from_raw(vec![GraphUpdate::Insert(0, 249)]),
        Some(past),
    );
    assert!(matches!(u, Err(ServeError::DeadlineExceeded)), "{u:?}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline errors must be prompt"
    );
    assert!(handle.metrics().deadline_exceeded.get() >= 2);

    // The service still works afterwards.
    assert!(handle.execute(QueryRequest::new(K, TAU)).is_ok());
    service.shutdown();
}

fn read_query_response(reader: &mut impl BufRead) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "unexpected EOF");
        let done = line.starts_with("# ");
        lines.push(line.trim_end().to_string());
        if done {
            return lines;
        }
    }
}

/// A request line may be `MAX_LINE_BYTES` long; one byte more is refused
/// with `error: line too long` and the connection is closed, while other
/// connections keep being served.
#[test]
fn tcp_server_refuses_over_long_lines() {
    let g = test_graph();
    let service = Service::start(&g, &ServiceConfig::default());
    let ids = Arc::new(IdMap::from_original((0..250).collect()));
    let server = Server::start("127.0.0.1:0", service.handle(), ids).unwrap();
    let connect = || {
        let conn = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut banner = String::new();
        reader.read_line(&mut banner).unwrap();
        assert!(banner.starts_with("# esd-protocol/2"), "{banner}");
        (conn, reader)
    };

    // A query padded with spaces to exactly the limit is answered.
    let (mut conn, mut reader) = connect();
    let query = format!("? 5 {TAU}");
    let padded = format!("{query}{}\n", " ".repeat(MAX_LINE_BYTES - query.len()));
    conn.write_all(padded.as_bytes()).unwrap();
    let lines = read_query_response(&mut reader);
    assert!(lines.last().unwrap().contains("result(s)"), "{lines:?}");

    // One byte more is refused and the server closes the connection. The
    // line is sent without a terminator, so the server reads every byte
    // sent and the close is a clean end of stream.
    conn.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "error: line too long\n");
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");

    // The server itself is unaffected.
    let (mut conn, mut reader) = connect();
    writeln!(conn, "? 5 {TAU}").unwrap();
    let lines = read_query_response(&mut reader);
    assert!(lines.last().unwrap().contains("result(s)"), "{lines:?}");
    writeln!(conn, "quit").unwrap();
    server.stop();
    service.shutdown();
}

/// Full TCP round trip: queries, updates, metrics, quit — two concurrent
/// connections sharing one engine and id map.
#[test]
fn tcp_server_round_trip() {
    let g = test_graph();
    let expected = MaintainedIndex::new(&g).query(5, TAU);
    let service = Service::start(&g, &ServiceConfig::default());
    let ids = Arc::new(IdMap::from_original((0..250).collect()));
    let server = Server::start("127.0.0.1:0", service.handle(), Arc::clone(&ids)).unwrap();
    let addr = server.local_addr();

    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    // The server greets with the protocol banner.
    let mut banner = String::new();
    reader.read_line(&mut banner).unwrap();
    assert_eq!(banner, "# esd-protocol/2 shards=1\n");

    writeln!(conn, "? 5 {TAU}").unwrap();
    let lines = read_query_response(&mut reader);
    assert_eq!(lines.len(), expected.len() + 1);
    assert!(lines.last().unwrap().contains("result(s)"));
    let top = &expected[0];
    assert!(
        lines[0].contains(&format!("({}, {})", top.edge.u, top.edge.v)),
        "{lines:?}"
    );

    // A second connection updates; this connection sees the new epoch.
    {
        let mut other = TcpStream::connect(addr).unwrap();
        let mut other_reader = BufReader::new(other.try_clone().unwrap());
        let mut line = String::new();
        other_reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("# esd-protocol/2"), "{line}");
        writeln!(other, "+ 0 249").unwrap();
        line.clear();
        other_reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("+ (0, 249): ok"), "{line}");
        writeln!(other, "quit").unwrap();
        line.clear();
        other_reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "bye");
    }

    writeln!(conn, "? 5 {TAU}").unwrap();
    let lines = read_query_response(&mut reader);
    assert!(
        lines.last().unwrap().contains("epoch 1"),
        "update published a new epoch: {lines:?}"
    );

    // Malformed input errors without killing the connection.
    writeln!(conn, "what is this").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("error: unrecognised"), "{line}");

    // Metrics block is framed.
    writeln!(conn, "metrics").unwrap();
    let mut saw = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        let done = line.starts_with("-- end metrics --");
        saw.push(line);
        if done {
            break;
        }
    }
    let metrics_text = saw.concat();
    assert!(metrics_text.contains("queries_served"), "{metrics_text}");
    assert!(metrics_text.contains("updates_applied"), "{metrics_text}");
    assert!(metrics_text.contains("query_p99_us"), "{metrics_text}");

    writeln!(conn, "quit").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "bye");

    server.stop();
    service.shutdown();
}

/// Sequential consistency across many small batches: interleaved queries
/// always equal a from-scratch index over the same prefix of updates.
#[test]
fn interleaved_updates_and_queries_agree_with_rebuild() {
    let g = generators::clique_overlap(80, 60, 5, 3);
    let service = Service::start(
        &g,
        &ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let mut mirror = MaintainedIndex::new(&g);
    for round in 0..10 {
        let batch = random_batch(80, 20, 1000 + round);
        mirror.apply_batch(&batch);
        handle.submit(MutationBatch::from_raw(batch)).unwrap();
        let resp = handle.execute(QueryRequest::new(15, 1)).unwrap();
        assert_eq!(*resp.results, mirror.query(15, 1), "round {round}");
    }
    service.shutdown();
}

/// A query racing an epoch bump must never return a result stamped with
/// an epoch older than one its caller had already observed — monotonic
/// reads through the epoch-keyed result cache. The only sanctioned
/// exception is an explicitly `degraded` shed response, which advertises
/// its staleness.
#[test]
fn cache_never_serves_pre_publication_epochs() {
    let g = test_graph();
    let service = Service::start(
        &g,
        &ServiceConfig {
            workers: 2,
            queue_capacity: 256,
            cache_capacity: 512,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4u64)
        .map(|r| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xCACE ^ r);
                let mut cache_hits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = [5usize, 10, K][rng.gen_range(0..3)];
                    let tau = [1u32, TAU][rng.gen_range(0..2)];
                    // Observing the epoch FIRST is the point: any answer
                    // the service now gives must be at least this fresh.
                    let observed = handle.snapshot().epoch();
                    match handle.execute(QueryRequest::new(k, tau)) {
                        Ok(resp) => {
                            assert!(
                                resp.degraded || resp.epoch >= observed,
                                "non-degraded answer stamped epoch {} after \
                                 the reader already observed epoch {observed}",
                                resp.epoch,
                            );
                            if resp.cache_hit && !resp.degraded {
                                cache_hits += 1;
                            }
                        }
                        // Backpressure is fine; staleness is not.
                        Err(ServeError::QueueFull | ServeError::DeadlineExceeded) => {}
                        Err(e) => panic!("reader {r}: unexpected error {e}"),
                    }
                }
                cache_hits
            })
        })
        .collect();

    // The writer bumps the epoch as fast as strict-invariants validation
    // allows, maximising the publish/lookup races above.
    let mut last_epoch = 0;
    for round in 0..40 {
        let outcome = handle
            .submit(MutationBatch::from_raw(random_batch(250, 20, 2000 + round)))
            .unwrap();
        last_epoch = outcome.epoch;
    }
    stop.store(true, Ordering::Relaxed);
    let cache_hits: u64 = readers.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(last_epoch >= 30, "most rounds must publish a new epoch");
    assert!(cache_hits > 0, "the cache path must actually be exercised");
    service.shutdown();
}

/// The sharded generalisation of
/// [`cache_never_serves_pre_publication_epochs`]: under churn racing the
/// scatter-gather read path, a non-degraded merged answer must be
/// componentwise at-least-as-fresh as any epoch **vector** its caller had
/// already observed — per-shard monotonic reads, not just monotonicity of
/// the composite scalar.
#[test]
fn sharded_reads_are_componentwise_monotonic() {
    use esd_serve::{EngineHandle, ShardConfig, ShardedService};

    let g = test_graph();
    let service = ShardedService::start(
        &g,
        &ShardConfig {
            shards: 2,
            per_shard: ServiceConfig {
                workers: 2,
                queue_capacity: 256,
                cache_capacity: 512,
                ..ServiceConfig::default()
            },
        },
    );
    let handle = service.handle();
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4u64)
        .map(|r| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5AD0 ^ r);
                let mut merged = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = [5usize, 10, K][rng.gen_range(0..3)];
                    let tau = [1u32, TAU][rng.gen_range(0..2)];
                    // Observing the vector FIRST is the point: any answer
                    // the fleet now gives must dominate it componentwise.
                    let observed = handle.epochs();
                    match handle.execute(QueryRequest::new(k, tau)) {
                        Ok(resp) => {
                            assert_eq!(resp.epochs.shards(), 2);
                            assert!(
                                resp.degraded || resp.epochs.componentwise_ge(&observed),
                                "non-degraded answer stamped {} after the \
                                 reader already observed {observed}",
                                resp.epochs,
                            );
                            merged += 1;
                        }
                        Err(ServeError::QueueFull | ServeError::DeadlineExceeded) => {}
                        Err(e) => panic!("reader {r}: unexpected error {e}"),
                    }
                }
                merged
            })
        })
        .collect();

    let mut last = None;
    for round in 0..40 {
        let outcome = handle
            .submit(MutationBatch::from_raw(random_batch(250, 20, 3000 + round)))
            .unwrap();
        last = Some(outcome.epochs);
    }
    stop.store(true, Ordering::Relaxed);
    let merged: u64 = readers.into_iter().map(|t| t.join().unwrap()).sum();
    let last = last.unwrap();
    assert_eq!(last.shards(), 2);
    assert!(last.sum() >= 60, "most rounds must publish on both shards");
    assert!(merged > 0, "the scatter-gather path must be exercised");
    assert!(
        handle.epochs().componentwise_ge(&last),
        "the published vector never regresses"
    );
    service.shutdown();
}
