//! Chaos tests for the supervised sharded serving runtime: shard kills
//! mid-batch, restart backoff, circuit breaking, backpressure, writer
//! stalls, injected checkpoint failures, graceful drain, and the
//! lossless dead-letter export.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use generic_hdc::encoding::GenericEncoderSpec;
use generic_hdc::runtime::{
    read_dead_letters_csv, write_dead_letters_csv, CheckpointStore, OnlineRuntime, RetryPolicy,
    RuntimeConfig, RuntimeStats,
};
use generic_hdc::serve::{ServeConfig, ServeError, Server, SubmitError};
use generic_hdc::{FsOp, HdcPipeline, NormMode, PredictOptions};

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "ghdc-serve-{tag}-{}-{}",
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
        restart_backoff: Duration::from_millis(1),
        restart_backoff_max: Duration::from_millis(10),
        ..ServeConfig::default()
    }
}

/// Every admitted request is answered, and every answer is bit-identical
/// to the scalar oracle replayed against the exact snapshot and tier
/// the worker used.
#[test]
fn answers_match_the_scalar_oracle() {
    let dir = TempDir::new("oracle");
    let server = Server::start(runtime_in(dir.path()), quick_config(2)).expect("server starts");
    let handle = server.handle();

    let tickets: Vec<_> = (0..200)
        .map(|i| {
            handle
                .submit(sample_features(i), None)
                .expect("no overload without deadlines")
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let answer = ticket.wait().expect("admitted requests are answered");
        let pipeline = answer.snapshot.pipeline();
        let encoded = pipeline.encode(&sample_features(i)).expect("clean row");
        let opts = PredictOptions::reduced(answer.dims_used, NormMode::Updated);
        let oracle = pipeline
            .model()
            .try_predict_with(&encoded, opts)
            .expect("oracle scores");
        assert_eq!(answer.label, oracle, "request {i} diverged from oracle");
    }

    let report = server.drain().expect("drain succeeds");
    assert_eq!(report.workers.answered, 200);
    assert_eq!(report.serve.admitted, 200);
    assert_eq!(report.serve.canceled, 0);
    assert!(report.final_checkpoint_ok);
}

/// A shard killed mid-batch loses nothing: its in-flight batch is
/// requeued and re-answered, and the shard restarts.
#[test]
fn shard_kill_recovers_in_flight_requests() {
    let dir = TempDir::new("kill");
    let server = Server::start(runtime_in(dir.path()), quick_config(2)).expect("server starts");
    let handle = server.handle();

    handle.chaos_kill_shard(0);
    let tickets: Vec<_> = (0..300)
        .map(|i| handle.submit(sample_features(i), None).expect("admitted"))
        .collect();
    for ticket in tickets {
        ticket
            .wait_timeout(Duration::from_secs(20))
            .expect("every admitted request is still answered after the kill");
    }

    let stats = handle.stats();
    assert_eq!(stats.shard_panics, 1, "exactly the injected kill");
    assert_eq!(stats.shard_restarts, 1, "the killed shard restarted");
    assert!(stats.requeued >= 1, "the in-flight batch was requeued");
    assert_eq!(handle.live_shards(), 2);

    let report = server.drain().expect("drain succeeds");
    assert_eq!(
        report.workers.answered + report.serve.canceled,
        report.serve.admitted,
        "admitted = answered + canceled, nothing vanished"
    );
    assert_eq!(report.serve.canceled, 0);
}

/// A shard that keeps panicking exhausts its restart budget and trips
/// its circuit breaker; the rest of the fleet keeps serving. When every
/// shard is broken, admission fails fast with `Unavailable`.
#[test]
fn restart_budget_opens_the_circuit() {
    let dir = TempDir::new("circuit");
    let config = ServeConfig {
        restart_budget: 2,
        ..quick_config(1)
    };
    let server = Server::start(runtime_in(dir.path()), config).expect("server starts");
    let handle = server.handle();

    // Kill the lone shard through its whole restart budget (2 restarts
    // → the 3rd panic opens the circuit).
    for round in 0..3 {
        handle.chaos_kill_shard(0);
        let deadline = Instant::now() + Duration::from_secs(20);
        // Feed requests until the panic is observed.
        while handle.stats().shard_panics <= round {
            let _ = handle.submit(sample_features(0), None).map(|t| {
                let _ = t.wait_timeout(Duration::from_millis(200));
            });
            assert!(Instant::now() < deadline, "kill {round} was never honoured");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.live_shards() > 0 {
        assert!(Instant::now() < deadline, "circuit never opened");
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = handle.stats();
    assert_eq!(stats.circuit_opens, 1);
    assert_eq!(stats.shard_panics, 3);
    assert_eq!(stats.shard_restarts, 2, "budget-limited restarts");
    assert!(matches!(
        handle.submit(sample_features(0), None),
        Err(SubmitError::Unavailable | SubmitError::ShuttingDown)
    ));

    let report = server.drain().expect("drain succeeds even after outage");
    assert_eq!(
        report.workers.answered + report.serve.canceled,
        report.serve.admitted,
        "every admitted request was answered or explicitly canceled"
    );
}

/// When the last circuit opens, the work still queued is canceled at
/// once: every admitted ticket resolves `Canceled` before `drain` is
/// called, instead of waiting on a fleet that cannot answer.
#[test]
fn total_outage_cancels_queued_work_before_drain() {
    let dir = TempDir::new("outage");
    let config = ServeConfig {
        restart_budget: 0,
        ..quick_config(1)
    };
    let server = Server::start(runtime_in(dir.path()), config).expect("server starts");
    let handle = server.handle();

    // Park the lone shard so requests queue up behind it; the batch it
    // gathers when it wakes panics, and with no budget its circuit opens.
    // The assertions hold under any interleaving: the pause only makes
    // a backed-up queue the usual case.
    handle.chaos_stall_shard(0, Duration::from_millis(100));
    std::thread::sleep(Duration::from_millis(20));
    handle.chaos_kill_shard(0);
    let tickets: Vec<_> = (0..8)
        .filter_map(|i| handle.submit(sample_features(i), None).ok())
        .collect();
    let admitted = tickets.len() as u64;
    assert!(admitted >= 1, "the first request is admitted");

    let started = Instant::now();
    for ticket in tickets {
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(5)).err(),
            Some(ServeError::Canceled)
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a ticket ran into its timeout instead of being canceled"
    );
    let stats = handle.stats();
    assert_eq!(stats.admitted, admitted);
    assert_eq!(
        stats.canceled, admitted,
        "the outage canceled every admitted request"
    );
    assert_eq!(stats.circuit_opens, 1);
    assert_eq!(handle.live_shards(), 0);

    let report = server.drain().expect("drain succeeds after an outage");
    assert_eq!(
        report.serve.canceled, admitted,
        "drain found nothing left to cancel"
    );
}

/// The bounded work queue rejects with `QueueFull` instead of buffering
/// unboundedly, and malformed rows are rejected synchronously.
#[test]
fn admission_backpressure_and_sanitization() {
    let dir = TempDir::new("admission");
    let config = ServeConfig {
        queue_depth: 4,
        ..quick_config(1)
    };
    let server = Server::start(runtime_in(dir.path()), config).expect("server starts");
    let handle = server.handle();

    // Park the lone shard on a chaos kill so the queue backs up.
    handle.chaos_kill_shard(0);
    let mut overflowed = false;
    let mut tickets = Vec::new();
    for i in 0..200 {
        match handle.submit(sample_features(i), None) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::QueueFull) => {
                overflowed = true;
                break;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(overflowed, "a depth-4 queue must overflow");

    // Malformed rows never reach the queue.
    assert!(matches!(
        handle.submit(vec![1.0; N_FEATURES + 1], None),
        Err(SubmitError::Rejected(_))
    ));
    assert!(matches!(
        handle.submit(vec![f64::NAN; N_FEATURES], None),
        Err(SubmitError::Rejected(_))
    ));
    let stats = handle.stats();
    assert!(stats.rejected_queue_full >= 1);
    assert_eq!(stats.rejected_malformed, 2);

    for ticket in tickets {
        ticket
            .wait_timeout(Duration::from_secs(20))
            .expect("queued requests are answered after the restart");
    }
    server.drain().expect("drain succeeds");
}

/// A stalled writer backs the bounded learn queue up against its bound
/// (visible backpressure) without disturbing the read path, and learning
/// resumes once the stall clears.
#[test]
fn writer_stall_causes_learn_backpressure_not_outage() {
    let dir = TempDir::new("stall");
    let config = ServeConfig {
        learn_queue_depth: 8,
        publish_every: 1,
        ..quick_config(1)
    };
    let server = Server::start(runtime_in(dir.path()), config).expect("server starts");
    let handle = server.handle();

    handle.chaos_stall_writer(Duration::from_millis(300));
    let mut rejected = 0u64;
    for i in 0..64 {
        if handle.submit_learn(sample_features(i), i % 2).is_err() {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "a stalled writer must surface backpressure");

    // Reads keep flowing from the last published snapshot meanwhile.
    let answer = handle
        .submit(sample_features(1), None)
        .expect("read path unaffected")
        .wait_timeout(Duration::from_secs(10))
        .expect("answered during the stall");
    assert!(answer.label < 2);

    let report = server.drain().expect("drain flushes the learn queue");
    assert_eq!(report.serve.writer_stalls, 1);
    assert!(
        report.writer.learned + report.writer.held_out > 0,
        "accepted learn samples were applied after the stall"
    );
    assert_eq!(
        report.writer.learned + report.writer.held_out + report.writer.quarantined,
        report.serve.learn_submitted - report.serve.learn_rejected,
        "every accepted learn sample is accounted for"
    );
}

/// Injected checkpoint-write failures are absorbed by the retry policy
/// when transient and surface as a failed-but-non-fatal final checkpoint
/// when persistent; serving continues either way.
#[test]
fn checkpoint_failures_are_retried_then_degraded() {
    let dir = TempDir::new("ckptfail");
    let store = CheckpointStore::open(
        dir.path(),
        3,
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter: false,
        },
    )
    .expect("dir is creatable");
    // The fs handle shares its injection counters with the store the
    // runtime owns — chaos can arm failures while the server runs.
    let fs = store.fs();
    let config = RuntimeConfig {
        checkpoint_every: 0,
        ..RuntimeConfig::default()
    };
    let runtime = OnlineRuntime::new(sample_pipeline(7), store, config).expect("valid config");
    let server = Server::start(runtime, quick_config(1)).expect("server starts");
    let handle = server.handle();

    for i in 0..20 {
        handle
            .submit_learn(sample_features(i), i % 2)
            .expect("learn queue has room");
    }
    // Two transient failures: the final checkpoint's 3-attempt budget
    // absorbs them.
    fs.fail_next(FsOp::Create, 2);
    let report = server.drain().expect("drain succeeds");
    assert!(
        report.final_checkpoint_ok,
        "two transient failures fit the retry budget"
    );
    assert_eq!(report.writer.checkpoint_retries, 2);
    assert_eq!(report.writer.checkpoint_failures, 0);
}

/// Quarantined rows survive the full path — writer quarantine → drain
/// report → CSV export → reimport — losslessly.
#[test]
fn dead_letters_round_trip_through_drain_and_csv() {
    let dir = TempDir::new("deadletter");
    let server = Server::start(runtime_in(dir.path()), quick_config(1)).expect("server starts");
    let handle = server.handle();

    let poison = vec![
        (vec![1.0, f64::NAN, 2.0, 3.0, 4.0, 5.0], 0),
        (vec![1.0, 2.0], 1),
        (sample_features(3), 99),
    ];
    for (features, label) in &poison {
        handle
            .submit_learn(features.clone(), *label)
            .expect("learn queue has room");
    }
    for i in 0..10 {
        handle
            .submit_learn(sample_features(i), i % 2)
            .expect("learn queue has room");
    }

    let report = server.drain().expect("drain succeeds");
    assert_eq!(report.writer.quarantined, poison.len() as u64);
    assert_eq!(report.dead_letters.len(), poison.len());

    let mut csv = Vec::new();
    write_dead_letters_csv(&mut csv, &report.dead_letters).expect("in-memory write");
    let text = String::from_utf8(csv).expect("csv is utf-8");
    let reimported = read_dead_letters_csv(&text).expect("export parses");
    assert_eq!(reimported.len(), report.dead_letters.len());
    for (exported, reimported) in report.dead_letters.iter().zip(&reimported) {
        assert_eq!(exported.label, reimported.label);
        assert_eq!(exported.reason, reimported.reason);
        assert_eq!(exported.features.len(), reimported.features.len());
        for (a, b) in exported.features.iter().zip(&reimported.features) {
            if a.is_nan() {
                assert!(b.is_nan(), "NaN survives the round trip");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-exact features");
            }
        }
    }
}

/// Per-shard stats merged on drain sum exactly: with requests fanned
/// across shards concurrently, the aggregated counters match the
/// client-side ledger.
#[test]
fn shard_stats_aggregate_exactly_under_concurrency() {
    let dir = TempDir::new("stats");
    let server = Server::start(runtime_in(dir.path()), quick_config(3)).expect("server starts");
    let handle = server.handle();

    let workers: Vec<_> = (0..4)
        .map(|w| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let mut answered = 0u64;
                for i in 0..100 {
                    if let Ok(ticket) = handle.submit(sample_features(w * 100 + i), None) {
                        if ticket.wait_timeout(Duration::from_secs(20)).is_ok() {
                            answered += 1;
                        }
                    }
                }
                answered
            })
        })
        .collect();
    let client_answered: u64 = workers
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .sum();

    let report = server.drain().expect("drain succeeds");
    assert_eq!(client_answered, 400, "no deadline → nothing refused");
    assert_eq!(report.workers.answered, 400);
    assert_eq!(report.serve.admitted, 400);

    // The merge operation itself is associative: merging the report
    // into an accumulator twice doubles every counter.
    let mut acc = RuntimeStats::default();
    acc.merge(&report.workers);
    acc.merge(&report.workers);
    assert_eq!(acc.answered, 2 * report.workers.answered);
    assert_eq!(acc.infer_requests, 2 * report.workers.infer_requests);
}

/// Deadline-aware admission sheds hopeless requests once the floor
/// estimate is warm, and every shed is visible in the stats.
#[test]
fn hopeless_deadlines_are_shed_at_admission() {
    let dir = TempDir::new("shed");
    let server = Server::start(runtime_in(dir.path()), quick_config(1)).expect("server starts");
    let handle = server.handle();

    // Warm the ladder estimates.
    for i in 0..50 {
        let _ = handle
            .submit(sample_features(i), None)
            .expect("admitted")
            .wait_timeout(Duration::from_secs(10));
    }
    // A 1 ns budget is hopeless at any tier.
    let mut shed = 0;
    for i in 0..20 {
        match handle.submit(sample_features(i), Some(Duration::from_nanos(1))) {
            Err(SubmitError::DeadlineHopeless { .. }) => shed += 1,
            Ok(ticket) => {
                let _ = ticket.wait_timeout(Duration::from_secs(10));
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(shed > 0, "warm estimates must shed 1 ns budgets");
    assert_eq!(handle.stats().rejected_deadline, shed);
    server.drain().expect("drain succeeds");
}

/// After drain, late submissions are refused and tickets from canceled
/// work resolve to `Canceled`, not a hang.
#[test]
fn drain_refuses_new_work() {
    let dir = TempDir::new("drainrefuse");
    let server = Server::start(runtime_in(dir.path()), quick_config(2)).expect("server starts");
    let handle = server.handle();
    let answer = handle
        .submit(sample_features(0), None)
        .expect("admitted")
        .wait_timeout(Duration::from_secs(10));
    assert!(answer.is_ok());
    server.drain().expect("drain succeeds");
    assert!(matches!(
        handle.submit(sample_features(1), None),
        Err(SubmitError::ShuttingDown)
    ));
    assert!(matches!(
        handle.submit_learn(sample_features(1), 0),
        Err(SubmitError::ShuttingDown)
    ));
    let _ = ServeError::Canceled; // referenced: the cancel contract above
}

/// Tenant-routed requests score their own mapped models, bit-identically
/// to the heap-packed oracle, while shared-snapshot traffic interleaves
/// on the same shards; unknown tenants are refused at admission with a
/// typed reason.
#[test]
fn tenant_requests_score_their_mapped_models() {
    use generic_hdc::{DegradationLadder, IntHv, ModelRegistry, QuantizedModel, RegistryConfig};
    use std::sync::Arc;

    let dir = TempDir::new("tenant");
    let reg_dir = TempDir::new("tenant-reg");
    let registry = Arc::new(
        ModelRegistry::open(
            reg_dir.path(),
            RegistryConfig {
                byte_budget: 1 << 20,
                dim: 256,
                ..RegistryConfig::default()
            },
        )
        .expect("registry opens"),
    );
    // Two tenants with distinct class memories (different training seeds)
    // behind the one shared encoder the server owns.
    let model_a = QuantizedModel::from_model(sample_pipeline(11).model(), 8).expect("valid width");
    let model_b = QuantizedModel::from_model(sample_pipeline(23).model(), 8).expect("valid width");
    registry.publish("acme", &model_a).expect("publish acme");
    registry
        .publish("globex", &model_b)
        .expect("publish globex");

    let server = Server::start_with_registry(
        runtime_in(dir.path()),
        quick_config(2),
        Some(Arc::clone(&registry)),
    )
    .expect("server starts");
    let handle = server.handle();

    assert!(matches!(
        handle.submit_tenant("nobody", sample_features(0), None),
        Err(SubmitError::TenantUnavailable { .. })
    ));
    assert!(matches!(
        handle.submit_tenant("../escape", sample_features(0), None),
        Err(SubmitError::TenantUnavailable { .. })
    ));

    let tickets: Vec<_> = (0..60)
        .map(|i| {
            let tenant = if i % 3 == 0 { "acme" } else { "globex" };
            let ticket = if i % 3 == 2 {
                handle.submit(sample_features(i), None)
            } else {
                handle.submit_tenant(tenant, sample_features(i), None)
            };
            (i, ticket.expect("no overload without deadlines"))
        })
        .collect();
    for (i, ticket) in tickets {
        let answer = ticket.wait().expect("admitted requests are answered");
        if i % 3 == 2 {
            assert!(answer.tenant.is_none(), "request {i} is shared-model");
            continue;
        }
        let (name, oracle_model) = if i % 3 == 0 {
            ("acme", &model_a)
        } else {
            ("globex", &model_b)
        };
        let pinned = answer
            .tenant
            .as_ref()
            .expect("tenant answers carry the pin");
        assert_eq!(pinned.tenant(), name, "request {i} routed wrong");
        assert!(!answer.degraded, "mapped scoring is full-width");
        assert_eq!(answer.dims_used, pinned.view().dim());
        let ladder =
            DegradationLadder::new(answer.snapshot.pipeline().model().dim()).expect("dim > 0");
        assert_eq!(answer.tier, ladder.full_tier(), "request {i}: full tier");
        // Replay through the scalar oracle: encode with the server's own
        // snapshot, score the quantized model, demand the same label.
        let query = answer
            .snapshot
            .pipeline()
            .encode(&sample_features(i))
            .expect("clean row")
            .to_binary();
        let scores = oracle_model.scores(&IntHv::from(query.clone()));
        let mut oracle = 0usize;
        let mut best = f64::NEG_INFINITY;
        for (c, &s) in scores.iter().enumerate() {
            if s >= best {
                best = s;
                oracle = c;
            }
        }
        assert_eq!(answer.label, oracle, "request {i} diverged from oracle");
        // And the mapped view the worker actually used agrees too.
        let mapped = pinned.view().scores(&query).expect("mapped scores");
        assert_eq!(
            mapped.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            "request {i}: mapped scores must be bit-identical"
        );
    }

    let stats = registry.stats();
    assert_eq!(stats.swaps, 2, "both publishes hot-swapped");
    assert!(stats.hits > 0, "published tenants serve from residency");
    server.drain().expect("drain succeeds");
}
