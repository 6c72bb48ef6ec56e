//! Deterministic loopback integration tests for the framed TCP
//! front-end over the work-stealing sharded server: steal accounting,
//! slow-client isolation, graceful drain (final GOODBYE frame), and
//! malformed-frame connection drops that leave the shards healthy.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use generic_hdc::encoding::GenericEncoderSpec;
use generic_hdc::net::{read_frame, write_frame, NetFrontend};
use generic_hdc::runtime::{CheckpointStore, OnlineRuntime, RetryPolicy, RuntimeConfig};
use generic_hdc::serve::{ServeConfig, Server};
use generic_hdc::{Frame, HdcPipeline, NetStatus};

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "ghdc-net-{tag}-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("temp dir is creatable");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const N_FEATURES: usize = 6;

fn sample_features(i: usize) -> Vec<f64> {
    (0..N_FEATURES).map(|j| ((i * 3 + j) % 7) as f64).collect()
}

fn sample_pipeline(seed: u64) -> HdcPipeline {
    let features: Vec<Vec<f64>> = (0..24).map(sample_features).collect();
    let labels: Vec<usize> = (0..24).map(|i| i % 2).collect();
    let spec = GenericEncoderSpec::new(256, N_FEATURES).with_seed(seed);
    HdcPipeline::train(spec, &features, &labels, 2, 3).expect("valid inputs")
}

fn runtime_in(dir: &Path) -> OnlineRuntime {
    let store = CheckpointStore::open(dir, 3, RetryPolicy::default()).expect("dir is creatable");
    let config = RuntimeConfig {
        checkpoint_every: 0,
        ..RuntimeConfig::default()
    };
    OnlineRuntime::new(sample_pipeline(7), store, config).expect("valid config")
}

fn quick_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        batch_max: 4,
        restart_backoff: Duration::from_millis(1),
        restart_backoff_max: Duration::from_millis(10),
        ..ServeConfig::default()
    }
}

fn connect(frontend: &NetFrontend) -> TcpStream {
    let conn = TcpStream::connect(frontend.local_addr()).expect("front-end accepts");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout is settable");
    conn
}

/// A stalled shard's queue is drained by its sibling, and the steals
/// surface in the merged [`generic_hdc::runtime::RuntimeStats`] of the
/// drain report.
#[test]
fn stalled_shard_queue_is_stolen_by_sibling() {
    let dir = TempDir::new("steal");
    let server = Server::start(runtime_in(dir.path()), quick_config(2)).expect("server starts");
    let handle = server.handle();

    // Shard 0 sleeps before its next pop: anything in its queue beyond
    // the (at most) one batch it already holds must be served by shard 1
    // stealing across.
    handle.chaos_stall_shard(0, Duration::from_millis(1500));
    let tickets: Vec<_> = (0..64)
        .map(|i| handle.submit(sample_features(i), None).expect("admitted"))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("admitted requests are answered");
    }

    let report = server.drain().expect("drain succeeds");
    assert_eq!(report.workers.answered, 64);
    assert!(
        report.workers.steals > 0,
        "sibling shard should have stolen from the stalled queue: {:?}",
        report.workers
    );
    assert_eq!(report.serve.shard_panics, 0);
}

/// A client that submits a pipeline of requests but never reads its
/// responses does not stall other connections: per-connection writer
/// threads are independent, so a prompt client gets every answer while
/// the slow one idles.
#[test]
fn slow_client_does_not_stall_other_connections() {
    let dir = TempDir::new("slow");
    let server = Server::start(runtime_in(dir.path()), quick_config(2)).expect("server starts");
    let frontend = NetFrontend::bind("127.0.0.1:0", server.handle()).expect("loopback binds");

    // The slow client floods requests and never reads a byte back.
    let mut slow = connect(&frontend);
    for i in 0..32u64 {
        write_frame(
            &mut slow,
            &Frame::Infer {
                request_id: i,
                deadline_us: 0,
                tenant: None,
                features: sample_features(i as usize),
            },
        )
        .expect("request writes");
    }

    // The prompt client gets all of its answers, in order, while the
    // slow client's responses sit unread.
    let mut prompt = connect(&frontend);
    for i in 100..108u64 {
        write_frame(
            &mut prompt,
            &Frame::Infer {
                request_id: i,
                deadline_us: 0,
                tenant: None,
                features: sample_features(i as usize),
            },
        )
        .expect("request writes");
    }
    for i in 100..108u64 {
        match read_frame(&mut prompt).expect("answer arrives") {
            Some(Frame::Answer { request_id, .. }) => assert_eq!(request_id, i),
            other => panic!("expected Answer {i}, got {other:?}"),
        }
    }

    drop(prompt);
    drop(slow);
    let stats = frontend.shutdown();
    assert_eq!(stats.connections, 2);
    server.drain().expect("drain succeeds");
}

/// Graceful shutdown closes every connection with a final GOODBYE
/// status frame, then EOF — a client can distinguish drain from a
/// connection fault.
#[test]
fn graceful_shutdown_says_goodbye_before_eof() {
    let dir = TempDir::new("goodbye");
    let server = Server::start(runtime_in(dir.path()), quick_config(2)).expect("server starts");
    let frontend = NetFrontend::bind("127.0.0.1:0", server.handle()).expect("loopback binds");

    let mut conn = connect(&frontend);
    // One answered request proves the connection was live first.
    write_frame(
        &mut conn,
        &Frame::Infer {
            request_id: 1,
            deadline_us: 0,
            tenant: None,
            features: sample_features(1),
        },
    )
    .expect("request writes");
    assert!(matches!(
        read_frame(&mut conn).expect("answer arrives"),
        Some(Frame::Answer { request_id: 1, .. })
    ));

    let shutdown = std::thread::spawn(move || frontend.shutdown());
    match read_frame(&mut conn).expect("goodbye arrives") {
        Some(Frame::Goodbye) => {}
        other => panic!("expected Goodbye, got {other:?}"),
    }
    assert!(
        matches!(read_frame(&mut conn), Ok(None)),
        "clean EOF after GOODBYE"
    );
    let stats = shutdown.join().expect("shutdown joins");
    assert_eq!(stats.answered, 1);
    server.drain().expect("drain succeeds");
}

/// A connection sending a corrupt frame is refused (Malformed) and
/// dropped — without poisoning the shards: a fresh connection is still
/// answered and the drain report shows no supervision events.
#[test]
fn malformed_frame_drops_the_connection_not_the_shard() {
    let dir = TempDir::new("malformed");
    let server = Server::start(runtime_in(dir.path()), quick_config(2)).expect("server starts");
    let frontend = NetFrontend::bind("127.0.0.1:0", server.handle()).expect("loopback binds");

    // CRC-tamper a valid frame: flip a bit in the trailer.
    let mut bytes = Frame::Ping { request_id: 9 }.encode();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    let mut bad = connect(&frontend);
    bad.write_all(&bytes).expect("bytes write");
    match read_frame(&mut bad).expect("refusal arrives") {
        Some(Frame::Refusal { status, .. }) => assert_eq!(status, NetStatus::Malformed),
        other => panic!("expected Refusal, got {other:?}"),
    }
    let mut rest = Vec::new();
    let eof = bad.read_to_end(&mut rest);
    assert!(
        eof.is_ok() && rest.is_empty(),
        "malformed connection should be dropped"
    );

    // The shards are untouched: a fresh connection gets a real answer.
    let mut good = connect(&frontend);
    write_frame(
        &mut good,
        &Frame::Infer {
            request_id: 10,
            deadline_us: 0,
            tenant: None,
            features: sample_features(3),
        },
    )
    .expect("request writes");
    assert!(matches!(
        read_frame(&mut good).expect("answer arrives"),
        Some(Frame::Answer { request_id: 10, .. })
    ));

    drop(good);
    let stats = frontend.shutdown();
    assert_eq!(stats.malformed, 1);
    assert_eq!(stats.answered, 1);
    let report = server.drain().expect("drain succeeds");
    assert_eq!(report.serve.shard_panics, 0);
    assert_eq!(report.serve.circuit_opens, 0);
}
