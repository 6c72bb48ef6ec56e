//! Load generator for the supervised sharded serving runtime: drives a
//! closed-loop client fleet against [`Server`] at 1 shard and at N
//! shards, then a **netload** stage — the same fleet pipelined (window
//! B = 64) in-process and over real loopback TCP sockets through
//! [`NetFrontend`] — and writes `BENCH_serve.json` with QPS and latency
//! percentiles per configuration.
//!
//! Acceptance gates:
//! - multi-shard QPS ≥ 2× single-shard (enforced in full mode, ≥ 4
//!   cores; always recorded)
//! - loopback socket QPS ≥ 0.5× in-process QPS at B = 64 (enforced in
//!   full mode, ≥ 2 cores; always recorded)
//! - netload answered > 0 with zero scalar-oracle divergences (always
//!   enforced — every socket answer is replayed against the pinned
//!   model at the tier the worker reported)
//!
//! Usage: `cargo run -p generic-bench --release --bin serve
//! [seed] [--smoke]`

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use generic_bench::cli;
use generic_hdc::encoding::GenericEncoderSpec;
use generic_hdc::net::{read_frame, write_frame, NetFrontend};
use generic_hdc::runtime::{CheckpointStore, OnlineRuntime, RetryPolicy, RuntimeConfig};
use generic_hdc::{
    Frame, HdcPipeline, NetStatus, NormMode, PredictOptions, ServeConfig, Server, ServerHandle,
    SubmitError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_FEATURES: usize = 10;
const N_CLASSES: usize = 3;

/// Pipeline window for the netload stage: each client keeps up to this
/// many requests in flight per connection.
const NET_WINDOW: usize = 64;

/// Distinct feature vectors the netload stage cycles through (shared by
/// the clients and the oracle replay cache).
const POOL_SIZE: usize = 256;

struct Config {
    dim: usize,
    bootstrap_samples: usize,
    requests: usize,
    clients: usize,
}

impl Config {
    fn full() -> Self {
        Config {
            dim: 2048,
            bootstrap_samples: 240,
            requests: 24_000,
            clients: 8,
        }
    }

    fn smoke() -> Self {
        Config {
            dim: 512,
            bootstrap_samples: 90,
            requests: 3_000,
            clients: 4,
        }
    }
}

/// One measured server configuration.
struct Run {
    shards: usize,
    answered: u64,
    wall: Duration,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    max_us: f64,
}

fn sample(rng: &mut StdRng, class: usize) -> Vec<f64> {
    (0..N_FEATURES)
        .map(|j| {
            let band = j / (N_FEATURES / N_CLASSES).max(1);
            let base = if band == class { 8.0 } else { 1.0 };
            base + rng.random_range(-0.5..0.5)
        })
        .collect()
}

fn scratch_dir(seed: u64, shards: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ghdc-serve-bench-{}-{seed}-{shards}",
        std::process::id()
    ))
}

fn percentile_us(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let index = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[index].as_secs_f64() * 1e6
}

/// One closed-loop measurement: `clients` threads each submit and wait,
/// one request at a time, until the shared budget is spent.
fn measure(pipeline: &HdcPipeline, config: &Config, shards: usize, seed: u64) -> Run {
    let dir = scratch_dir(seed, shards);
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        CheckpointStore::open(&dir, 2, RetryPolicy::default()).expect("scratch dir is creatable");
    let rt_config = RuntimeConfig {
        checkpoint_every: 0,
        ..RuntimeConfig::default()
    };
    let runtime =
        OnlineRuntime::new(pipeline.clone(), store, rt_config).expect("valid runtime config");
    let serve_config = ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    let server = Server::start(runtime, serve_config).expect("server starts");
    let handle = server.handle();

    // Warm-up: fill every shard's ladder estimate before the clock runs.
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..64 {
        let class = rng.random_range(0..N_CLASSES);
        if let Ok(ticket) = handle.submit(sample(&mut rng, class), None) {
            let _ = ticket.wait();
        }
    }

    let remaining = AtomicU64::new(config.requests as u64);
    let start = Instant::now();
    let latencies: Vec<Vec<Duration>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|client| {
                let handle: ServerHandle = handle.clone();
                let remaining = &remaining;
                scope.spawn(move || client_loop(&handle, remaining, seed ^ (client as u64 + 1)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread completes"))
            .collect()
    });
    let wall = start.elapsed();
    let report = server.drain().expect("drain joins the fleet");
    let _ = std::fs::remove_dir_all(&dir);

    let mut all: Vec<Duration> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let answered = all.len() as u64;
    assert_eq!(
        report.workers.answered,
        answered + 64, // the warm-up requests
        "every admitted request must be answered"
    );
    Run {
        shards,
        answered,
        wall,
        qps: answered as f64 / wall.as_secs_f64(),
        p50_us: percentile_us(&all, 0.50),
        p99_us: percentile_us(&all, 0.99),
        p999_us: percentile_us(&all, 0.999),
        max_us: percentile_us(&all, 1.0),
    }
}

fn client_loop(handle: &ServerHandle, remaining: &AtomicU64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut latencies = Vec::new();
    loop {
        if remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_err()
        {
            return latencies;
        }
        let class = rng.random_range(0..N_CLASSES);
        let features = sample(&mut rng, class);
        loop {
            match handle.submit(features.clone(), None) {
                Ok(ticket) => {
                    let answer = ticket.wait().expect("unbudgeted request is answered");
                    latencies.push(answer.elapsed);
                    break;
                }
                Err(SubmitError::QueueFull) => {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) => panic!("clean request refused: {e}"),
            }
        }
    }
}

/// The shared request pool for the pipelined stages: `POOL_SIZE`
/// deterministic vectors cycled by every client, so the netload oracle
/// can cache its replays by (pool index, tier) instead of re-encoding
/// every answer.
fn request_pool(seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    (0..POOL_SIZE)
        .map(|i| sample(&mut rng, i % N_CLASSES))
        .collect()
}

/// Closed-loop **pipelined** in-process measurement: each client keeps
/// up to [`NET_WINDOW`] tickets in flight and redeems them in FIFO
/// order, measuring client-side submit→answer latency. This is the
/// apples-to-apples baseline for the socket stage (same window, same
/// request pool, same accounting).
fn measure_pipelined(pipeline: &HdcPipeline, config: &Config, shards: usize, seed: u64) -> Run {
    let dir = scratch_dir(seed, shards + 100);
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        CheckpointStore::open(&dir, 2, RetryPolicy::default()).expect("scratch dir is creatable");
    let rt_config = RuntimeConfig {
        checkpoint_every: 0,
        ..RuntimeConfig::default()
    };
    let runtime =
        OnlineRuntime::new(pipeline.clone(), store, rt_config).expect("valid runtime config");
    let server = Server::start(
        runtime,
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    let pool = request_pool(seed);

    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..64 {
        if let Ok(ticket) = handle.submit(pool[rng.random_range(0..POOL_SIZE)].clone(), None) {
            let _ = ticket.wait();
        }
    }

    let remaining = AtomicU64::new(config.requests as u64);
    let start = Instant::now();
    let latencies: Vec<Vec<Duration>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|client| {
                let handle: ServerHandle = handle.clone();
                let remaining = &remaining;
                let pool = &pool;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (client as u64 + 1));
                    let mut latencies = Vec::new();
                    let mut inflight: std::collections::VecDeque<(Instant, _)> =
                        std::collections::VecDeque::new();
                    loop {
                        // Fill the window while budget remains.
                        while inflight.len() < NET_WINDOW
                            && remaining
                                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                                    n.checked_sub(1)
                                })
                                .is_ok()
                        {
                            let features = pool[rng.random_range(0..POOL_SIZE)].clone();
                            loop {
                                match handle.submit(features.clone(), None) {
                                    Ok(ticket) => {
                                        inflight.push_back((Instant::now(), ticket));
                                        break;
                                    }
                                    Err(SubmitError::QueueFull) => {
                                        std::thread::sleep(Duration::from_micros(50));
                                    }
                                    Err(e) => panic!("clean request refused: {e}"),
                                }
                            }
                        }
                        // Redeem the oldest; empty window means done.
                        match inflight.pop_front() {
                            Some((sent, ticket)) => {
                                ticket.wait().expect("unbudgeted request is answered");
                                latencies.push(sent.elapsed());
                            }
                            None => return latencies,
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread completes"))
            .collect()
    });
    let wall = start.elapsed();
    let report = server.drain().expect("drain joins the fleet");
    let _ = std::fs::remove_dir_all(&dir);

    let mut all: Vec<Duration> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let answered = all.len() as u64;
    assert_eq!(
        report.workers.answered,
        answered + 64,
        "every admitted request must be answered"
    );
    Run {
        shards,
        answered,
        wall,
        qps: answered as f64 / wall.as_secs_f64(),
        p50_us: percentile_us(&all, 0.50),
        p99_us: percentile_us(&all, 0.99),
        p999_us: percentile_us(&all, 0.999),
        max_us: percentile_us(&all, 1.0),
    }
}

/// The **netload** measurement: the same pipelined fleet, but every
/// request travels the framed TCP protocol over a real loopback socket
/// through [`NetFrontend`] — one connection per client, window
/// [`NET_WINDOW`], client-side latency from frame write to answer read.
///
/// Every answer is replayed against the scalar oracle (the model is
/// pinned: no learn traffic) at the `dims_used` tier the worker
/// reported; the second return value counts divergences (must be 0).
fn measure_netload(
    pipeline: &HdcPipeline,
    config: &Config,
    shards: usize,
    seed: u64,
) -> (Run, u64) {
    let dir = scratch_dir(seed, shards + 200);
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        CheckpointStore::open(&dir, 2, RetryPolicy::default()).expect("scratch dir is creatable");
    let rt_config = RuntimeConfig {
        checkpoint_every: 0,
        ..RuntimeConfig::default()
    };
    let runtime =
        OnlineRuntime::new(pipeline.clone(), store, rt_config).expect("valid runtime config");
    let server = Server::start(
        runtime,
        ServeConfig {
            shards,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let handle = server.handle();
    let frontend = NetFrontend::bind("127.0.0.1:0", handle.clone()).expect("loopback binds");
    let addr = frontend.local_addr();
    let pool = request_pool(seed);

    // Warm-up in-process: fills every shard's ladder estimate without
    // counting against the socket clock.
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..64 {
        if let Ok(ticket) = handle.submit(pool[rng.random_range(0..POOL_SIZE)].clone(), None) {
            let _ = ticket.wait();
        }
    }

    let remaining = AtomicU64::new(config.requests as u64);
    let start = Instant::now();
    let results: Vec<(Vec<Duration>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients)
            .map(|client| {
                let remaining = &remaining;
                let pool = &pool;
                scope.spawn(move || {
                    net_client_loop(addr, remaining, pool, pipeline, seed ^ (client as u64 + 1))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("net client completes"))
            .collect()
    });
    let wall = start.elapsed();
    let net_stats = frontend.shutdown();
    let report = server.drain().expect("drain joins the fleet");
    let _ = std::fs::remove_dir_all(&dir);

    let mut all = Vec::new();
    let mut divergences = 0u64;
    for (latencies, diverged) in results {
        all.extend(latencies);
        divergences += diverged;
    }
    all.sort_unstable();
    let answered = all.len() as u64;
    assert_eq!(net_stats.answered, answered, "socket answer accounting");
    assert_eq!(
        report.workers.answered,
        answered + 64,
        "every admitted request must be answered"
    );
    (
        Run {
            shards,
            answered,
            wall,
            qps: answered as f64 / wall.as_secs_f64(),
            p50_us: percentile_us(&all, 0.50),
            p99_us: percentile_us(&all, 0.99),
            p999_us: percentile_us(&all, 0.999),
            max_us: percentile_us(&all, 1.0),
        },
        divergences,
    )
}

/// One netload client: a single framed TCP connection pipelining up to
/// [`NET_WINDOW`] requests, replaying every answer against the scalar
/// oracle (cached by pool index × tier).
fn net_client_loop(
    addr: SocketAddr,
    remaining: &AtomicU64,
    pool: &[Vec<f64>],
    pipeline: &HdcPipeline,
    seed: u64,
) -> (Vec<Duration>, u64) {
    let stream = TcpStream::connect(addr).expect("loopback connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout is settable");
    let mut writer = stream.try_clone().expect("stream clones");
    let mut reader = BufReader::new(stream);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut latencies = Vec::new();
    let mut divergences = 0u64;
    // request id → (write instant, pool index)
    let mut inflight: HashMap<u64, (Instant, usize)> = HashMap::new();
    let mut next_id = 0u64;
    // (pool index, dims_used) → oracle label; encodes each pool entry
    // at most once.
    let mut encoded_cache: HashMap<usize, _> = HashMap::new();
    let mut oracle_cache: HashMap<(usize, u32), usize> = HashMap::new();

    let send = |id: &mut u64,
                pool_idx: usize,
                writer: &mut TcpStream,
                inflight: &mut HashMap<u64, (Instant, usize)>| {
        let frame = Frame::Infer {
            request_id: *id,
            deadline_us: 0,
            tenant: None,
            features: pool[pool_idx].clone(),
        };
        inflight.insert(*id, (Instant::now(), pool_idx));
        *id += 1;
        write_frame(writer, &frame).expect("request writes");
    };

    loop {
        while inflight.len() < NET_WINDOW
            && remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        {
            let pool_idx = rng.random_range(0..pool.len());
            send(&mut next_id, pool_idx, &mut writer, &mut inflight);
        }
        if inflight.is_empty() {
            return (latencies, divergences);
        }
        match read_frame(&mut reader).expect("response arrives") {
            Some(Frame::Answer {
                request_id,
                label,
                dims_used,
                ..
            }) => {
                let (sent, pool_idx) = inflight
                    .remove(&request_id)
                    .expect("answer matches an in-flight request");
                latencies.push(sent.elapsed());
                let oracle = *oracle_cache
                    .entry((pool_idx, dims_used))
                    .or_insert_with(|| {
                        let encoded = encoded_cache.entry(pool_idx).or_insert_with(|| {
                            pipeline.encode(&pool[pool_idx]).expect("clean row encodes")
                        });
                        let opts = PredictOptions::reduced(dims_used as usize, NormMode::Updated);
                        pipeline
                            .model()
                            .try_predict_with(encoded, opts)
                            .expect("oracle scores")
                    });
                if oracle as u64 != label {
                    divergences += 1;
                }
            }
            Some(Frame::Refusal {
                request_id,
                status: NetStatus::QueueFull,
                ..
            }) => {
                // Backpressure: retry the same pool entry, like the
                // in-process clients do.
                let (_, pool_idx) = inflight
                    .remove(&request_id)
                    .expect("refusal matches an in-flight request");
                std::thread::sleep(Duration::from_micros(50));
                send(&mut next_id, pool_idx, &mut writer, &mut inflight);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
}

fn main() {
    let seed = cli::seed_arg(42);
    let smoke = cli::smoke_flag();
    let config = if smoke {
        Config::smoke()
    } else {
        Config::full()
    };
    let cores = cli::default_threads();
    let multi_shards = cores.clamp(2, 4);
    println!(
        "serve bench: dim={} requests={} clients={} cores={cores} shards=[1, {multi_shards}] \
         seed={seed} mode={}",
        config.dim,
        config.requests,
        config.clients,
        if smoke { "smoke" } else { "full" }
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let features: Vec<Vec<f64>> = (0..config.bootstrap_samples)
        .map(|i| sample(&mut rng, i % N_CLASSES))
        .collect();
    let labels: Vec<usize> = (0..config.bootstrap_samples)
        .map(|i| i % N_CLASSES)
        .collect();
    let spec = GenericEncoderSpec::new(config.dim, N_FEATURES).with_seed(seed);
    let pipeline = HdcPipeline::train(spec, &features, &labels, N_CLASSES, 5)
        .expect("separable bootstrap data");

    let runs: Vec<Run> = [1, multi_shards]
        .iter()
        .map(|&shards| {
            let run = measure(&pipeline, &config, shards, seed);
            println!(
                "  {} shard(s): {:.0} QPS ({} answered in {:.2} s), p50 {:.1} µs, \
                 p99 {:.1} µs, p999 {:.1} µs, max {:.1} µs",
                run.shards,
                run.qps,
                run.answered,
                run.wall.as_secs_f64(),
                run.p50_us,
                run.p99_us,
                run.p999_us,
                run.max_us
            );
            run
        })
        .collect();

    let speedup = runs[1].qps / runs[0].qps;
    // The 2× scaling gate is a perf gate: enforce it only on full runs
    // with enough cores to host 4 shards + clients; always record it.
    let enforced = !smoke && cores >= 4;
    let passed = speedup >= 2.0;
    println!(
        "multi-shard speedup: {speedup:.2}× ({} shards vs 1) — gate {}{}",
        multi_shards,
        if passed { "PASS" } else { "FAIL" },
        if enforced { "" } else { " (not enforced)" }
    );

    // Netload stage: the same fleet pipelined at B = NET_WINDOW,
    // in-process vs. over real loopback sockets.
    let inproc = measure_pipelined(&pipeline, &config, multi_shards, seed);
    println!(
        "  inproc  B={NET_WINDOW}: {:.0} QPS ({} answered in {:.2} s), p50 {:.1} µs, \
         p99 {:.1} µs, p999 {:.1} µs, max {:.1} µs",
        inproc.qps,
        inproc.answered,
        inproc.wall.as_secs_f64(),
        inproc.p50_us,
        inproc.p99_us,
        inproc.p999_us,
        inproc.max_us
    );
    let (loopback, divergences) = measure_netload(&pipeline, &config, multi_shards, seed);
    println!(
        "  netload B={NET_WINDOW}: {:.0} QPS ({} answered in {:.2} s), p50 {:.1} µs, \
         p99 {:.1} µs, p999 {:.1} µs, max {:.1} µs, oracle divergences {divergences}",
        loopback.qps,
        loopback.answered,
        loopback.wall.as_secs_f64(),
        loopback.p50_us,
        loopback.p99_us,
        loopback.p999_us,
        loopback.max_us
    );

    // Socket-transport overhead gate: the framed protocol over loopback
    // must keep at least half the in-process pipelined throughput. A
    // perf gate, so enforced only with ≥ 2 cores (one can't host the
    // fleet and the socket threads at once); always recorded.
    let net_ratio = loopback.qps / inproc.qps;
    let net_ratio_enforced = !smoke && cores >= 2;
    let net_ratio_passed = net_ratio >= 0.5;
    println!(
        "loopback/in-process ratio: {net_ratio:.2} — gate {}{}",
        if net_ratio_passed { "PASS" } else { "FAIL" },
        if net_ratio_enforced {
            ""
        } else {
            " (not enforced)"
        }
    );
    // Correctness gate, always enforced: the socket path answered real
    // traffic and never diverged from the scalar oracle.
    let net_answered_passed = loopback.answered > 0 && divergences == 0;
    println!(
        "netload correctness: answered {} with {divergences} divergence(s) — gate {}",
        loopback.answered,
        if net_answered_passed { "PASS" } else { "FAIL" }
    );

    let net = NetSection {
        inproc,
        loopback,
        divergences,
        ratio: net_ratio,
        ratio_enforced: net_ratio_enforced,
        ratio_passed: net_ratio_passed,
        answered_passed: net_answered_passed,
    };
    let json = render_json(
        &config, seed, smoke, cores, &runs, speedup, enforced, passed, &net,
    );
    generic_bench::report::write_record("serve", smoke, &json);

    let mut failed = false;
    if enforced && !passed {
        eprintln!("GATE FAILED: multi-shard QPS must be >= 2x single-shard");
        failed = true;
    }
    if net_ratio_enforced && !net_ratio_passed {
        eprintln!("GATE FAILED: loopback QPS must be >= 0.5x in-process at B={NET_WINDOW}");
        failed = true;
    }
    if !net_answered_passed {
        eprintln!("GATE FAILED: netload must answer traffic with zero oracle divergences");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Everything the netload stage contributes to `BENCH_serve.json`.
struct NetSection {
    inproc: Run,
    loopback: Run,
    divergences: u64,
    ratio: f64,
    ratio_enforced: bool,
    ratio_passed: bool,
    answered_passed: bool,
}

fn render_run_json(run: &Run) -> String {
    format!(
        "{{\"shards\": {}, \"qps\": {:.1}, \"answered\": {}, \"wall_s\": {:.4}, \
         \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"p999_us\": {:.2}, \"max_us\": {:.2}}}",
        run.shards,
        run.qps,
        run.answered,
        run.wall.as_secs_f64(),
        run.p50_us,
        run.p99_us,
        run.p999_us,
        run.max_us
    )
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    config: &Config,
    seed: u64,
    smoke: bool,
    cores: usize,
    runs: &[Run],
    speedup: f64,
    enforced: bool,
    passed: bool,
    net: &NetSection,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str(&format!("  \"cores\": {cores},\n"));
    s.push_str(&format!(
        "  \"config\": {{\"dim\": {}, \"requests\": {}, \"clients\": {}}},\n",
        config.dim, config.requests, config.clients
    ));
    s.push_str("  \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"shards\": {}, \"qps\": {:.1}, \"answered\": {}, \"wall_s\": {:.4}, \
             \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"p999_us\": {:.2}, \"max_us\": {:.2}}}{}\n",
            run.shards,
            run.qps,
            run.answered,
            run.wall.as_secs_f64(),
            run.p50_us,
            run.p99_us,
            run.p999_us,
            run.max_us,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"network\": {{\n    \"window\": {NET_WINDOW},\n    \"inproc\": {},\n    \
         \"loopback\": {},\n    \"divergences\": {}\n  }},\n",
        render_run_json(&net.inproc),
        render_run_json(&net.loopback),
        net.divergences
    ));
    s.push_str(&format!(
        "  \"gates\": {{\n    \"multi_shard_2x\": {{\"passed\": {passed}, \"enforced\": {enforced}, \
         \"speedup\": {speedup:.3}}},\n    \"net_half_inproc\": {{\"passed\": {}, \"enforced\": {}, \
         \"ratio\": {:.3}}},\n    \"net_answered\": {{\"passed\": {}, \"enforced\": true, \
         \"answered\": {}, \"divergences\": {}}}\n  }}\n",
        net.ratio_passed,
        net.ratio_enforced,
        net.ratio,
        net.answered_passed,
        net.loopback.answered,
        net.divergences
    ));
    s.push_str("}\n");
    s
}
