//! Soak harness for the crash-safe online-learning runtime: replays an
//! interleaved train/infer stream through [`OnlineRuntime`] with
//! injected kills, a torn-write corruption, a deadline storm, and
//! garbage records, and writes `BENCH_soak.json` with recovery-time and
//! degradation-hit-rate numbers.
//!
//! Acceptance gates (enforced in both modes — they are correctness
//! gates, not perf gates; the harness exits nonzero on any violation):
//!
//! 1. **kill -9 mid-stream**: recovery lands on the newest checkpoint
//!    generation, losing at most the samples since the last checkpoint.
//! 2. **torn write**: with the newest generation corrupted on disk,
//!    recovery rejects it and falls back to the previous intact one.
//! 3. **deadline storm**: ≥ 99% of requests get an answer (degraded
//!    tiers allowed, drops counted), and the ladder's per-tier counters
//!    account for every answer.
//! 4. **garbage records**: every malformed learning sample is
//!    quarantined — none learned, none panicking — and the clean ones
//!    all land.
//! 5. **chaos soak on the sharded server**: a seeded fault plan — kill
//!    a shard mid-batch, stall the writer, inject checkpoint write
//!    failures, and an overload deadline storm — while gating on
//!    availability (≥ 99.9% of admitted requests answered within
//!    deadline), zero divergence from the scalar oracle on answered
//!    requests, and bounded shard-kill recovery time.
//! 6. **generational tenant ledger under crash faults**: a publish
//!    storm across three tenants with injected transient I/O faults
//!    (absorbed by the retry policy), simulated kill -9 at seeded
//!    create/write/sync/rename boundaries, torn manifests, and a
//!    concurrent reader registry — gating on zero lost last-good
//!    generations (every recovery serves a CRC-valid previously
//!    published model), bounded recovery time, auto-rollback serving
//!    the prior generation on a corrupt live image, and reader
//!    coherence with the writer's final state.
//!
//! Usage: `cargo run -p generic-bench --release --bin soak
//! [seed] [--smoke]`

use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use generic_bench::cli;
use generic_hdc::encoding::{Encoder, GenericEncoderSpec};
use generic_hdc::ledger::{FsOp, LedgerFs};
use generic_hdc::runtime::{CheckpointStore, OnlineRuntime, RetryPolicy, RuntimeConfig};
use generic_hdc::{
    BinaryHv, HdcModel, HdcPipeline, IntHv, ModelRegistry, NormMode, PredictOptions,
    QuantizedModel, RegistryConfig, RuntimeError, ServeConfig, Server, SubmitError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_FEATURES: usize = 10;
const N_CLASSES: usize = 3;

struct Config {
    dim: usize,
    bootstrap_samples: usize,
    stream_samples: usize,
    checkpoint_every: u64,
    storm_requests: usize,
    garbage_records: usize,
    chaos_requests: usize,
    chaos_learns: usize,
    ledger_rounds: usize,
}

impl Config {
    fn full() -> Self {
        Config {
            dim: 2048,
            bootstrap_samples: 240,
            stream_samples: 1200,
            checkpoint_every: 64,
            storm_requests: 2000,
            garbage_records: 120,
            chaos_requests: 2000,
            chaos_learns: 160,
            ledger_rounds: 20,
        }
    }

    fn smoke() -> Self {
        Config {
            dim: 512,
            bootstrap_samples: 90,
            stream_samples: 240,
            checkpoint_every: 16,
            storm_requests: 400,
            garbage_records: 30,
            chaos_requests: 400,
            chaos_learns: 48,
            ledger_rounds: 8,
        }
    }
}

/// Everything scenario 5 (sharded chaos soak) measured, for the JSON
/// report.
struct ChaosSummary {
    shards: usize,
    admitted: u64,
    answered: u64,
    availability: f64,
    shard_recovery_ms: f64,
    storm_shed: u64,
    backpressure_waits: u64,
    divergences: u64,
    panics: u64,
    restarts: u64,
    requeued: u64,
    writer_stalls: u64,
    checkpoint_retries: u64,
    storm_budget_ms: f64,
}

/// Everything scenario 6 (generational ledger crash soak) measured.
struct LedgerSummary {
    tenants: usize,
    rounds: usize,
    publishes: u64,
    crashes: u64,
    torn_manifests: u64,
    max_recovery_ms: f64,
    publish_retries: u64,
    rollbacks: u64,
    recoveries: u64,
    tmp_sweeps: u64,
    reader_samples: u64,
    reader_errors: u64,
    lost: u64,
    mismatches: u64,
}

/// One gate: a named pass/fail with the observed evidence.
struct Gate {
    name: &'static str,
    passed: bool,
    detail: String,
}

impl Gate {
    fn check(name: &'static str, passed: bool, detail: String) -> Self {
        let verdict = if passed { "PASS" } else { "FAIL" };
        println!("gate {name}: {verdict} — {detail}");
        Gate {
            name,
            passed,
            detail,
        }
    }
}

/// A separable 3-band sample: features in the class's band sit high,
/// the rest low, with uniform jitter.
fn sample(rng: &mut StdRng, class: usize) -> Vec<f64> {
    (0..N_FEATURES)
        .map(|j| {
            let band = j / (N_FEATURES / N_CLASSES).max(1);
            let base = if band == class { 8.0 } else { 1.0 };
            base + rng.random_range(-0.5..0.5)
        })
        .collect()
}

fn scratch_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("ghdc-soak-{}-{seed}", std::process::id()))
}

const LEDGER_DIM: usize = 256;
const LEDGER_TENANTS: [&str; 3] = ["acme", "globex", "initech"];

/// A small, distinct per-seed tenant model for the ledger scenario.
fn ledger_model(seed: u64) -> QuantizedModel {
    let encoded: Vec<IntHv> = (0..4u64)
        .map(|c| {
            IntHv::from(
                BinaryHv::random_seeded(LEDGER_DIM, seed.wrapping_mul(101).wrapping_add(c))
                    .expect("dim > 0"),
            )
        })
        .collect();
    let model = HdcModel::fit(&encoded, &[0, 1, 2, 3], 4).expect("valid inputs");
    QuantizedModel::from_model(&model, 8).expect("valid width")
}

/// Bit pattern of a model's scalar-oracle scores on the fixed query —
/// the identity every served answer is checked against.
fn oracle_bits(model: &QuantizedModel, query: &BinaryHv) -> Vec<u64> {
    model
        .scores(&IntHv::from(query.clone()))
        .iter()
        .map(|s| s.to_bits())
        .collect()
}

fn open_store(dir: &Path) -> CheckpointStore {
    CheckpointStore::open(dir, 4, RetryPolicy::default()).expect("checkpoint dir is creatable")
}

fn runtime_config(config: &Config) -> RuntimeConfig {
    RuntimeConfig {
        checkpoint_every: config.checkpoint_every,
        holdout_every: 10,
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
    println!(
        "soak: dim={} stream={} ckpt-every={} storm={} seed={seed} mode={}",
        config.dim,
        config.stream_samples,
        config.checkpoint_every,
        config.storm_requests,
        if smoke { "smoke" } else { "full" }
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let dir = scratch_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);

    let mut gates = Vec::new();

    // --- bootstrap: train an initial pipeline and make it durable ---
    let features: Vec<Vec<f64>> = (0..config.bootstrap_samples)
        .map(|i| sample(&mut rng, i % N_CLASSES))
        .collect();
    let labels: Vec<usize> = (0..config.bootstrap_samples)
        .map(|i| i % N_CLASSES)
        .collect();
    let spec = GenericEncoderSpec::new(config.dim, N_FEATURES).with_seed(seed);
    let pipeline = HdcPipeline::train(spec, &features, &labels, N_CLASSES, 5)
        .expect("separable bootstrap data");
    let rt_config = runtime_config(&config);
    let mut runtime =
        OnlineRuntime::new(pipeline, open_store(&dir), rt_config).expect("valid runtime config");
    runtime.checkpoint().expect("initial checkpoint");

    // --- scenario 1: interleaved stream, then kill -9 mid-stream ---
    // The kill point is random but at least one checkpoint interval in,
    // so there is something to lose.
    let kill_at = rng.random_range(config.checkpoint_every as usize + 1..config.stream_samples);
    let mut streamed = 0usize;
    for i in 0..config.stream_samples {
        let class = rng.random_range(0..N_CLASSES);
        let x = sample(&mut rng, class);
        if i % 4 == 3 {
            let _ = runtime.infer(&x, None);
        } else {
            runtime.learn(&x, class).expect("clean sample");
            streamed += 1;
        }
        if streamed == kill_at {
            break;
        }
    }
    let seen_at_kill = runtime.seen();
    let gen_at_kill = runtime.generation();
    drop(runtime); // the kill: all in-memory state vanishes, no final checkpoint
                   // A crash mid-write also leaves a half-written temp file behind.
    std::fs::write(
        dir.join("ckpt-99999999999999999999.ghdc.tmp"),
        b"torn half-written checkpoint",
    )
    .expect("scratch dir writable");

    let (recovered, report) = match OnlineRuntime::recover(open_store(&dir), rt_config) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("GATE FAILED: recovery after kill -9 errored: {e}");
            std::process::exit(1);
        }
    };
    let kill_recovery_ms = report.elapsed.as_secs_f64() * 1e3;
    let lost = seen_at_kill - recovered.seen();
    gates.push(Gate::check(
        "kill_recovers_newest_generation",
        recovered.generation() == gen_at_kill && report.rejected.is_empty(),
        format!(
            "recovered generation {} (at kill: {gen_at_kill}), {} rejected, {:.2} ms",
            recovered.generation(),
            report.rejected.len(),
            kill_recovery_ms
        ),
    ));
    gates.push(Gate::check(
        "kill_loses_at_most_one_interval",
        lost <= config.checkpoint_every,
        format!(
            "lost {lost} of {seen_at_kill} samples (interval {})",
            config.checkpoint_every
        ),
    ));

    // --- scenario 2: torn write — corrupt the newest generation ---
    let mut runtime = recovered;
    for _ in 0..config.checkpoint_every + 4 {
        let class = rng.random_range(0..N_CLASSES);
        let x = sample(&mut rng, class);
        runtime.learn(&x, class).expect("clean sample");
    }
    let newest_gen = runtime.generation();
    let prev_gen = newest_gen - 1;
    drop(runtime);
    let store = open_store(&dir);
    let newest_path = store.path(newest_gen);
    let mut bytes = std::fs::read(&newest_path).expect("newest generation readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20; // a single flipped bit mid-payload
    std::fs::write(&newest_path, &bytes).expect("scratch dir writable");

    // Keep a handle on the store's fs layer: it shares its injection
    // counters with the runtime's store, so scenario 5 can inject
    // checkpoint write failures into the live writer from outside.
    let chaos_fs = store.fs();
    let (recovered, report) = match OnlineRuntime::recover(store, rt_config) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("GATE FAILED: recovery after torn write errored: {e}");
            std::process::exit(1);
        }
    };
    let torn_recovery_ms = report.elapsed.as_secs_f64() * 1e3;
    gates.push(Gate::check(
        "torn_write_falls_back_to_previous_generation",
        recovered.generation() == prev_gen && report.rejected.iter().any(|(g, _)| *g == newest_gen),
        format!(
            "corrupted generation {newest_gen}, recovered {} ({} rejected, {:.2} ms)",
            recovered.generation(),
            report.rejected.len(),
            torn_recovery_ms
        ),
    ));

    // --- scenario 3: deadline storm ---
    let mut runtime = recovered;
    for _ in 0..20 {
        // Warm the full tier's latency estimate so budgets bite.
        let x = sample(&mut rng, 0);
        let _ = runtime.infer(&x, None);
    }
    let full_est_ns = runtime
        .ladder()
        .estimate_ns(runtime.ladder().full_tier())
        .unwrap_or(1e5);
    let storm_base = runtime.stats().infer_requests;
    let mut garbage_requests = 0u64;
    for i in 0..config.storm_requests {
        let class = rng.random_range(0..N_CLASSES);
        let x = sample(&mut rng, class);
        // A hostile minority of the storm: one malformed request per ~250.
        if i % 251 == 250 {
            garbage_requests += 1;
            let _ = runtime.infer(&[f64::NAN; N_FEATURES], None);
            continue;
        }
        // Budgets from hopelessly tight through comfortable: the ladder
        // must degrade rather than drop.
        let budget_ns = match i % 4 {
            0 => full_est_ns * 0.05, // floor-tier territory
            1 => full_est_ns * 0.5,  // mid-ladder
            2 => full_est_ns * 1.5,  // full dim, tight
            _ => full_est_ns * 20.0, // comfortable
        };
        let budget = Duration::from_nanos(budget_ns.max(1.0) as u64);
        let _ = runtime.infer(&x, Some(budget));
    }
    let stats = *runtime.stats();
    let storm_requests = stats.infer_requests - storm_base;
    let storm_answered = storm_requests - stats.rejected;
    let answer_rate = storm_answered as f64 / storm_requests as f64;
    let tier_hits: Vec<u64> = runtime.ladder().hits().to_vec();
    let tier_dims: Vec<usize> = runtime.ladder().tier_dims().to_vec();
    let degradation_hit_rate = stats.degraded as f64 / stats.answered.max(1) as f64;
    gates.push(Gate::check(
        "storm_answers_at_least_99_percent",
        answer_rate >= 0.99,
        format!(
            "{storm_answered}/{storm_requests} answered ({:.2}%), {} rejected",
            answer_rate * 100.0,
            stats.rejected
        ),
    ));
    gates.push(Gate::check(
        "storm_degrades_instead_of_dropping",
        stats.degraded > 0 && tier_hits.iter().sum::<u64>() == stats.answered,
        format!(
            "{} degraded answers ({:.1}% of answers), tier hits {:?} over dims {:?}",
            stats.degraded,
            degradation_hit_rate * 100.0,
            tier_hits,
            tier_dims
        ),
    ));

    // --- scenario 4: garbage learning records ---
    let quarantined_base = runtime.stats().quarantined;
    let learned_base = runtime.stats().learned + runtime.stats().held_out;
    let mut clean = 0u64;
    for i in 0..config.garbage_records {
        let class = rng.random_range(0..N_CLASSES);
        let garbage: (Vec<f64>, usize) = match i % 5 {
            0 => (vec![f64::NAN; N_FEATURES], class),
            1 => (vec![f64::INFINITY; N_FEATURES], class),
            2 => (sample(&mut rng, class)[..N_FEATURES - 2].to_vec(), class),
            3 => (vec![1e12; N_FEATURES], class),
            _ => (sample(&mut rng, class), N_CLASSES + 7),
        };
        match runtime.learn(&garbage.0, garbage.1) {
            Err(RuntimeError::Rejected(_)) => {}
            other => {
                eprintln!("GATE FAILED: garbage record {i} was not quarantined: {other:?}");
                std::process::exit(1);
            }
        }
        // Interleave clean samples: the stream must keep flowing.
        let x = sample(&mut rng, class);
        runtime.learn(&x, class).expect("clean sample");
        clean += 1;
    }
    let quarantined = runtime.stats().quarantined - quarantined_base;
    let processed = runtime.stats().learned + runtime.stats().held_out - learned_base;
    let probe = sample(&mut rng, 1);
    let still_serves = runtime.infer(&probe, None).is_ok();
    gates.push(Gate::check(
        "garbage_is_quarantined_not_learned",
        quarantined == config.garbage_records as u64 && processed == clean && still_serves,
        format!(
            "{quarantined}/{} quarantined, {processed}/{clean} clean processed, serves: {still_serves}",
            config.garbage_records
        ),
    ));

    // --- scenario 5: chaos soak on the sharded server ---
    // The surviving runtime becomes the writer of a 2-shard server; a
    // seeded fault plan then kills a shard mid-batch, stalls the
    // writer, injects checkpoint write failures, and runs an overload
    // storm — all while every answer must stay bit-identical to the
    // scalar oracle replayed on its pinned snapshot.
    let serve_config = ServeConfig {
        shards: 2,
        batch_max: 8,
        restart_backoff: Duration::from_millis(2),
        restart_backoff_max: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    // The shard kill below panics on purpose, and the worker catches
    // its own panic; keep the report to one line instead of a full
    // backtrace.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("(chaos) worker panic caught by the worker: {info}");
    }));
    chaos_fs.fail_next(FsOp::Create, 2); // absorbed by the 3-attempt retry budget
    let server = Server::start(runtime, serve_config).expect("server starts");
    let handle = server.handle();

    // Answered requests kept for the oracle replay: (features, answer).
    let mut answered = Vec::new();
    let mut admitted = 0u64;
    let mut backpressure_waits = 0u64;
    let mut storm_shed = 0u64;

    // Warm every shard's ladder so the admission floor has data, and
    // record a generous per-request latency budget for the storm.
    let mut warm_worst = Duration::ZERO;
    for _ in 0..40 {
        let class = rng.random_range(0..N_CLASSES);
        let x = sample(&mut rng, class);
        if let Ok(ticket) = handle.submit(x.clone(), None) {
            admitted += 1;
            if let Ok(answer) = ticket.wait() {
                warm_worst = warm_worst.max(answer.elapsed);
                answered.push((x, answer));
            }
        }
    }

    // Fault 1: kill shard 0 mid-batch; its batch must be requeued and
    // answered, and the worker must re-enter its loop within its
    // backoff.
    handle.chaos_kill_shard(0);
    let kill_start = Instant::now();
    for _ in 0..config.chaos_requests / 4 {
        let class = rng.random_range(0..N_CLASSES);
        let x = sample(&mut rng, class);
        match handle.submit(x.clone(), None) {
            Ok(ticket) => {
                admitted += 1;
                if let Ok(answer) = ticket.wait() {
                    answered.push((x, answer));
                }
            }
            Err(SubmitError::QueueFull) => backpressure_waits += 1,
            Err(e) => panic!("unbudgeted chaos request refused: {e}"),
        }
    }
    let recovery_deadline = Instant::now() + Duration::from_secs(5);
    let shard_recovery_ms = loop {
        let stats = handle.stats();
        if stats.shard_restarts >= 1 {
            break kill_start.elapsed().as_secs_f64() * 1e3;
        }
        if Instant::now() > recovery_deadline {
            break f64::NAN;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let after_kill = handle.stats();
    gates.push(Gate::check(
        "chaos_shard_kill_recovers",
        after_kill.shard_panics >= 1
            && after_kill.shard_restarts >= 1
            && shard_recovery_ms.is_finite(),
        format!(
            "{} panic(s), {} restart(s), {} request(s) requeued, recovered in {:.2} ms",
            after_kill.shard_panics,
            after_kill.shard_restarts,
            after_kill.requeued,
            shard_recovery_ms
        ),
    ));

    // Fault 2: stall the writer and inject learn traffic — the read
    // path must keep answering while the writer sleeps, and the learn
    // queue must shed (not block) once full.
    handle.chaos_stall_writer(Duration::from_millis(150));
    let mut learn_offered = 0u64;
    for _ in 0..config.chaos_learns {
        let class = rng.random_range(0..N_CLASSES);
        let _ = handle.submit_learn(sample(&mut rng, class), class);
        learn_offered += 1;
        let x = sample(&mut rng, class);
        if let Ok(ticket) = handle.submit(x.clone(), None) {
            admitted += 1;
            if let Ok(answer) = ticket.wait() {
                answered.push((x, answer));
            }
        }
    }

    // Fault 3: overload deadline storm — a tight closed loop at the
    // bounded queue's admission limit, every request under a generous
    // deadline (~50× the worst warm-up latency). Backpressure may defer
    // admission; what is admitted must be answered within deadline.
    let storm_budget = warm_worst
        .saturating_mul(50)
        .max(Duration::from_millis(250));
    let mut storm_tickets = Vec::new();
    for _ in 0..config.chaos_requests {
        let class = rng.random_range(0..N_CLASSES);
        let x = sample(&mut rng, class);
        loop {
            match handle.submit(x.clone(), Some(storm_budget)) {
                Ok(ticket) => {
                    admitted += 1;
                    storm_tickets.push((x, ticket));
                    break;
                }
                Err(SubmitError::QueueFull) => {
                    backpressure_waits += 1;
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(SubmitError::DeadlineHopeless { .. }) => {
                    storm_shed += 1;
                    break;
                }
                Err(e) => panic!("storm request refused: {e}"),
            }
        }
    }
    let mut storm_answered = 0u64;
    let mut storm_in_deadline = 0u64;
    for (x, ticket) in storm_tickets {
        if let Ok(answer) = ticket.wait() {
            storm_answered += 1;
            if answer.deadline_met {
                storm_in_deadline += 1;
            }
            answered.push((x, answer));
        }
    }

    let report = server.drain().expect("drain joins the fleet");
    let _ = std::panic::take_hook(); // restore default panic reporting
    let in_deadline_total = answered.len() as u64 - (storm_answered - storm_in_deadline);
    let availability = in_deadline_total as f64 / admitted.max(1) as f64;
    gates.push(Gate::check(
        "chaos_availability_99_9",
        availability >= 0.999 && report.serve.canceled == 0,
        format!(
            "{in_deadline_total}/{admitted} admitted answered in deadline ({:.3}%), \
             {storm_shed} shed at admission, {backpressure_waits} backpressure waits, \
             {} canceled",
            availability * 100.0,
            report.serve.canceled
        ),
    ));

    // Zero divergence: replay every answered request through the
    // scalar oracle on the exact snapshot that answered it.
    let mut divergences = 0u64;
    for (x, answer) in &answered {
        let snapshot_pipeline = answer.snapshot.pipeline();
        let encoded = snapshot_pipeline
            .encoder()
            .encode(x)
            .expect("clean chaos sample encodes");
        let oracle = snapshot_pipeline
            .model()
            .try_predict_with(
                &encoded,
                PredictOptions::reduced(answer.dims_used, NormMode::Updated),
            )
            .expect("oracle replay succeeds");
        if oracle != answer.label {
            divergences += 1;
        }
    }
    gates.push(Gate::check(
        "chaos_zero_oracle_divergence",
        divergences == 0,
        format!(
            "{divergences}/{} answered requests diverged",
            answered.len()
        ),
    ));

    gates.push(Gate::check(
        "chaos_writer_survives_stall_and_fsync_faults",
        report.final_checkpoint_ok
            && report.serve.writer_stalls >= 1
            && report.writer.checkpoint_retries >= 2,
        format!(
            "final checkpoint ok: {}, {} stall(s), {} checkpoint retries, \
             {}/{} learn offered applied-or-quarantined",
            report.final_checkpoint_ok,
            report.serve.writer_stalls,
            report.writer.checkpoint_retries,
            report.serve.learn_submitted - report.serve.learn_rejected,
            learn_offered
        ),
    ));

    let chaos = ChaosSummary {
        shards: 2,
        admitted,
        answered: answered.len() as u64,
        availability,
        shard_recovery_ms,
        storm_shed,
        backpressure_waits,
        divergences,
        panics: report.serve.shard_panics,
        restarts: report.serve.shard_restarts,
        requeued: report.serve.requeued,
        writer_stalls: report.serve.writer_stalls,
        checkpoint_retries: report.writer.checkpoint_retries,
        storm_budget_ms: storm_budget.as_secs_f64() * 1e3,
    };
    let final_stats = report.writer;
    let final_generation = report.generation;
    let _ = std::fs::remove_dir_all(&dir);

    // --- scenario 6: generational tenant ledger under crash faults ---
    // A publish storm across three tenants through the crash-injectable
    // fs layer: transient faults must be absorbed by the retry policy,
    // kill -9 at any create/write/sync/rename/sync-dir boundary (image
    // or manifest phase) must never lose the last committed generation,
    // torn manifests must be rebuilt from CRC-valid images, and a
    // concurrent reader registry must stay coherent throughout.
    let ledger_dir = scratch_dir(seed).with_extension("ledger");
    let _ = std::fs::remove_dir_all(&ledger_dir);
    let ledger_config = RegistryConfig {
        byte_budget: 1 << 20,
        dim: LEDGER_DIM,
        keep_generations: 3,
        watch_every: 1,
        retry: RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            jitter: false,
        },
    };
    let query = BinaryHv::random_seeded(LEDGER_DIM, seed ^ 0xA5).expect("dim > 0");

    let mut fs = LedgerFs::new();
    let mut registry = ModelRegistry::open_with_fs(&ledger_dir, ledger_config, fs.clone())
        .expect("ledger scratch dir is creatable");
    assert!(registry.is_writer(), "first opener takes the writer lock");

    // Per-tenant oracle history: `committed` are manifest-committed
    // publishes in order; `acceptable` adds crash-in-flight images (a
    // crash after the image rename but before the manifest sync may
    // legitimately surface them after recovery).
    let mut committed: Vec<Vec<Vec<u64>>> = vec![Vec::new(); LEDGER_TENANTS.len()];
    let mut acceptable: Vec<Vec<Vec<u64>>> = vec![Vec::new(); LEDGER_TENANTS.len()];
    let mut publishes = 0u64;
    for (i, tenant) in LEDGER_TENANTS.iter().enumerate() {
        let model = ledger_model(seed.wrapping_mul(977).wrapping_add(i as u64));
        let bits = oracle_bits(&model, &query);
        registry
            .publish(tenant, &model)
            .expect("clean baseline publish");
        publishes += 1;
        committed[i].push(bits.clone());
        acceptable[i].push(bits);
    }

    // The concurrent reader: a second registry over the same directory
    // (a second process in spirit — the flock excludes it from writing)
    // sampling tenants throughout the storm.
    let stop = Arc::new(AtomicBool::new(false));
    type TenantSample = (usize, Vec<u64>);
    let samples: Arc<Mutex<Vec<TenantSample>>> = Arc::new(Mutex::new(Vec::new()));
    let reader_errors = Arc::new(AtomicU64::new(0));
    let reader_thread = {
        let stop = Arc::clone(&stop);
        let samples = Arc::clone(&samples);
        let reader_errors = Arc::clone(&reader_errors);
        let dir = ledger_dir.clone();
        let query = query.clone();
        std::thread::spawn(move || {
            let reader = ModelRegistry::open(&dir, ledger_config).expect("reader registry opens");
            let was_writer = reader.is_writer();
            let mut n = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let t = n % LEDGER_TENANTS.len();
                n += 1;
                match reader.get(LEDGER_TENANTS[t]) {
                    Ok(handle) => {
                        let bits: Vec<u64> = handle
                            .view()
                            .scores(&query)
                            .expect("dim matches")
                            .iter()
                            .map(|s| s.to_bits())
                            .collect();
                        samples.lock().expect("sampler mutex").push((t, bits));
                    }
                    Err(_) => {
                        reader_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            (was_writer, reader)
        })
    };

    let mut crashes = 0u64;
    let mut torn_manifests = 0u64;
    let mut lost = 0u64;
    let mut mismatches = 0u64;
    let mut max_recovery = Duration::ZERO;
    let mut agg_retries = 0u64;
    let mut agg_rollbacks = 0u64;
    let mut agg_recoveries = 0u64;
    let mut agg_sweeps = 0u64;
    let mut planted_tmp = false;
    let all_ops = [
        FsOp::Create,
        FsOp::Write,
        FsOp::Sync,
        FsOp::Rename,
        FsOp::SyncDir,
    ];

    for round in 0..config.ledger_rounds {
        for (i, tenant) in LEDGER_TENANTS.iter().enumerate() {
            let model_seed = seed
                .wrapping_mul(977)
                .wrapping_add(((round + 1) * LEDGER_TENANTS.len() + i) as u64);
            let model = ledger_model(model_seed);
            let bits = oracle_bits(&model, &query);
            match rng.random_range(0..6u32) {
                0 | 1 => {
                    // Transient faults within the retry budget: the
                    // publish must succeed anyway.
                    let op = all_ops[rng.random_range(0..all_ops.len())];
                    fs.fail_next(op, rng.random_range(1..=2));
                    match registry.publish(tenant, &model) {
                        Ok(_) => {
                            publishes += 1;
                            committed[i].push(bits.clone());
                            acceptable[i].push(bits);
                        }
                        Err(e) => {
                            eprintln!(
                                "GATE FAILED: transient fault at {op} not absorbed \
                                 by retry: {e}"
                            );
                            std::process::exit(1);
                        }
                    }
                }
                2 => {
                    // kill -9 at a seeded boundary: phase 1 = staging
                    // the image, phase 2 = committing the manifest.
                    let op = all_ops[rng.random_range(0..all_ops.len())];
                    let phase = rng.random_range(1..=2u32);
                    fs.crash_at(op, phase);
                    match registry.publish(tenant, &model) {
                        Ok(_) => {
                            // The crash can only fire inside the publish;
                            // Ok means the arm mis-counted — treat as a
                            // committed publish and keep going.
                            publishes += 1;
                            committed[i].push(bits.clone());
                            acceptable[i].push(bits);
                        }
                        Err(_) => {
                            crashes += 1;
                            // The in-flight image may have been adopted
                            // if the crash hit after its rename.
                            acceptable[i].push(bits);
                            let s = registry.stats();
                            agg_retries += s.publish_retries;
                            agg_rollbacks += s.rollbacks;
                            agg_recoveries += s.recoveries;
                            agg_sweeps += s.tmp_sweeps;
                            drop(registry);
                            // Sometimes the crash also tore the manifest.
                            if rng.random_range(0..10u32) < 4 {
                                let manifest = ledger_dir.join("MANIFEST");
                                if let Ok(mut bytes) = std::fs::read(&manifest) {
                                    if !bytes.is_empty() {
                                        let pos = rng.random_range(0..bytes.len());
                                        bytes[pos] ^= 0x20;
                                        let _ = std::fs::write(&manifest, &bytes);
                                        torn_manifests += 1;
                                    }
                                }
                            }
                            if !planted_tmp {
                                // Debris from an unrelated crashed
                                // process, for the sweep counter.
                                let _ = std::fs::write(
                                    ledger_dir.join("acme.g9999.ghdc.tmp"),
                                    b"half-written publish",
                                );
                                planted_tmp = true;
                            }
                            // A fresh process recovers the directory.
                            fs = LedgerFs::new();
                            registry =
                                ModelRegistry::open_with_fs(&ledger_dir, ledger_config, fs.clone())
                                    .expect("recovery open succeeds");
                            max_recovery = max_recovery.max(registry.recovery().elapsed);
                            assert!(registry.is_writer(), "recovered process re-locks");
                            // Every tenant must still serve a previously
                            // published, CRC-valid model.
                            for (j, probe) in LEDGER_TENANTS.iter().enumerate() {
                                match registry.get(probe) {
                                    Ok(handle) => {
                                        let got: Vec<u64> = handle
                                            .view()
                                            .scores(&query)
                                            .expect("dim matches")
                                            .iter()
                                            .map(|s| s.to_bits())
                                            .collect();
                                        if !acceptable[j].contains(&got) {
                                            mismatches += 1;
                                        }
                                    }
                                    Err(_) => lost += 1,
                                }
                            }
                        }
                    }
                }
                _ => match registry.publish(tenant, &model) {
                    Ok(_) => {
                        publishes += 1;
                        committed[i].push(bits.clone());
                        acceptable[i].push(bits);
                    }
                    Err(e) => {
                        eprintln!("GATE FAILED: clean ledger publish errored: {e}");
                        std::process::exit(1);
                    }
                },
            }
        }
    }

    // Final clean publish per tenant: the storm must end with every
    // tenant serving exactly this model.
    let mut final_bits: Vec<Vec<u64>> = Vec::new();
    for (i, tenant) in LEDGER_TENANTS.iter().enumerate() {
        let model = ledger_model(seed.wrapping_mul(31_337).wrapping_add(i as u64));
        let bits = oracle_bits(&model, &query);
        registry
            .publish(tenant, &model)
            .expect("final clean publish");
        publishes += 1;
        committed[i].push(bits.clone());
        acceptable[i].push(bits.clone());
        final_bits.push(bits);
    }
    let mut final_exact = true;
    for (i, tenant) in LEDGER_TENANTS.iter().enumerate() {
        registry.evict(tenant);
        let handle = registry.get(tenant).expect("final generation serves");
        let got: Vec<u64> = handle
            .view()
            .scores(&query)
            .expect("dim matches")
            .iter()
            .map(|s| s.to_bits())
            .collect();
        final_exact &= got == final_bits[i];
    }
    gates.push(Gate::check(
        "ledger_zero_lost_last_good",
        crashes >= 1 && lost == 0 && mismatches == 0 && final_exact,
        format!(
            "{crashes} crash(es), {torn_manifests} torn manifest(s): {lost} tenants lost, \
             {mismatches} recoveries served an unpublished model, final state exact: \
             {final_exact}"
        ),
    ));
    gates.push(Gate::check(
        "ledger_recovery_bounded",
        max_recovery < Duration::from_millis(250),
        format!(
            "worst recovery scan {:.2} ms (budget 250 ms) across {crashes} crashes",
            max_recovery.as_secs_f64() * 1e3
        ),
    ));

    // Auto-rollback probe: corrupt the live image of tenant 0; its next
    // admission must revert to an older valid generation and keep
    // serving — no quarantine, no shed traffic.
    let probe_tenant = LEDGER_TENANTS[0];
    let live_path = registry
        .tenant_path(probe_tenant)
        .expect("probe tenant resolves");
    // Flip one byte in place, as bit rot would. Rewriting the file
    // would truncate it first, and the concurrent reader may have this
    // very image mapped: touching a mapped page past the new end of
    // file kills the process with SIGBUS.
    let bytes = std::fs::read(&live_path).expect("live image readable");
    let mid = bytes.len() / 2;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&live_path)
        .and_then(|mut file| {
            file.seek(SeekFrom::Start(mid as u64))?;
            file.write_all(&[bytes[mid] ^ 0x40])
        })
        .expect("scratch dir writable");
    registry.evict(probe_tenant);
    let rolled_bits = match registry.get(probe_tenant) {
        Ok(handle) => Some(
            handle
                .view()
                .scores(&query)
                .expect("dim matches")
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<u64>>(),
        ),
        Err(_) => None,
    };
    let rollback_ok = match &rolled_bits {
        Some(got) => {
            *got != final_bits[0]
                && acceptable[0].contains(got)
                && registry.quarantined().is_empty()
        }
        None => false,
    };
    gates.push(Gate::check(
        "ledger_auto_rollback_serves_prior",
        rollback_ok && registry.stats().rollbacks >= 1,
        format!(
            "corrupt live image -> served prior generation: {rollback_ok}, \
             writer rollbacks {}",
            registry.stats().rollbacks
        ),
    ));

    // Reader coherence: after the writer's rollback commit, the
    // reader's next admission must serve the same reverted generation.
    stop.store(true, Ordering::Relaxed);
    let (reader_was_writer, reader) = reader_thread.join().expect("reader thread joins");
    let mut reader_final_ok = true;
    for (i, tenant) in LEDGER_TENANTS.iter().enumerate() {
        let want = if i == 0 {
            rolled_bits.clone().unwrap_or_default()
        } else {
            final_bits[i].clone()
        };
        match reader.get(tenant) {
            Ok(handle) => {
                let got: Vec<u64> = handle
                    .view()
                    .scores(&query)
                    .expect("dim matches")
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                reader_final_ok &= got == want;
            }
            Err(_) => reader_final_ok = false,
        }
    }
    let reader_samples = {
        let samples = samples.lock().expect("sampler mutex");
        let mut valid = true;
        for (t, bits) in samples.iter() {
            valid &= acceptable[*t].contains(bits);
        }
        (samples.len() as u64, valid)
    };
    let reader_errs = reader_errors.load(Ordering::Relaxed);
    gates.push(Gate::check(
        "ledger_reader_coherence",
        !reader_was_writer && reader_errs == 0 && reader_samples.1 && reader_final_ok,
        format!(
            "reader role ok: {}, {} samples all published models: {}, {} errors, \
             final+rollback state coherent: {reader_final_ok}",
            !reader_was_writer, reader_samples.0, reader_samples.1, reader_errs
        ),
    ));

    let s = registry.stats();
    agg_retries += s.publish_retries;
    agg_rollbacks += s.rollbacks;
    agg_recoveries += s.recoveries;
    agg_sweeps += s.tmp_sweeps;
    gates.push(Gate::check(
        "ledger_counters_account_for_faults",
        agg_retries >= 1 && agg_rollbacks >= 1 && agg_recoveries >= 1 && agg_sweeps >= 1,
        format!(
            "publish_retries {agg_retries}, rollbacks {agg_rollbacks}, \
             recoveries {agg_recoveries}, tmp_sweeps {agg_sweeps}"
        ),
    ));

    let ledger_summary = LedgerSummary {
        tenants: LEDGER_TENANTS.len(),
        rounds: config.ledger_rounds,
        publishes,
        crashes,
        torn_manifests,
        max_recovery_ms: max_recovery.as_secs_f64() * 1e3,
        publish_retries: agg_retries,
        rollbacks: agg_rollbacks,
        recoveries: agg_recoveries,
        tmp_sweeps: agg_sweeps,
        reader_samples: reader_samples.0,
        reader_errors: reader_errs,
        lost,
        mismatches,
    };
    drop(reader);
    drop(registry);
    let _ = std::fs::remove_dir_all(&ledger_dir);

    let json = render_json(
        &config,
        seed,
        smoke,
        kill_recovery_ms,
        torn_recovery_ms,
        lost,
        answer_rate,
        degradation_hit_rate,
        &tier_dims,
        &tier_hits,
        garbage_requests,
        final_generation,
        &final_stats,
        &chaos,
        &ledger_summary,
        &gates,
    );
    generic_bench::report::write_record("soak", smoke, &json);

    if gates.iter().any(|g| !g.passed) {
        for gate in gates.iter().filter(|g| !g.passed) {
            eprintln!("GATE FAILED: {}: {}", gate.name, gate.detail);
        }
        std::process::exit(1);
    }
    println!("all gates passed");
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    config: &Config,
    seed: u64,
    smoke: bool,
    kill_recovery_ms: f64,
    torn_recovery_ms: f64,
    lost: u64,
    answer_rate: f64,
    degradation_hit_rate: f64,
    tier_dims: &[usize],
    tier_hits: &[u64],
    garbage_requests: u64,
    final_generation: u64,
    stats: &generic_hdc::RuntimeStats,
    chaos: &ChaosSummary,
    ledger: &LedgerSummary,
    gates: &[Gate],
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    s.push_str(&format!(
        "  \"config\": {{\"dim\": {}, \"stream_samples\": {}, \"checkpoint_every\": {}, \"storm_requests\": {}, \"garbage_records\": {}, \"chaos_requests\": {}, \"chaos_learns\": {}}},\n",
        config.dim, config.stream_samples, config.checkpoint_every, config.storm_requests, config.garbage_records, config.chaos_requests, config.chaos_learns
    ));
    s.push_str(&format!(
        "  \"recovery\": {{\"kill_ms\": {kill_recovery_ms:.3}, \"torn_write_ms\": {torn_recovery_ms:.3}, \"samples_lost\": {lost}, \"max_loss_allowed\": {}}},\n",
        config.checkpoint_every
    ));
    let dims: Vec<String> = tier_dims.iter().map(ToString::to_string).collect();
    let hits: Vec<String> = tier_hits.iter().map(ToString::to_string).collect();
    s.push_str(&format!(
        "  \"storm\": {{\"answer_rate\": {answer_rate:.5}, \"degradation_hit_rate\": {degradation_hit_rate:.5}, \"garbage_requests\": {garbage_requests}, \"tier_dims\": [{}], \"tier_hits\": [{}]}},\n",
        dims.join(", "),
        hits.join(", ")
    ));
    s.push_str(&format!(
        "  \"totals\": {{\"generation\": {final_generation}, \"learned\": {}, \"held_out\": {}, \"corrected\": {}, \"quarantined\": {}, \"answered\": {}, \"degraded\": {}, \"deadline_misses\": {}, \"rejected\": {}, \"checkpoints\": {}, \"retrains\": {}, \"rollbacks\": {}}},\n",
        stats.learned,
        stats.held_out,
        stats.corrected,
        stats.quarantined,
        stats.answered,
        stats.degraded,
        stats.deadline_misses,
        stats.rejected,
        stats.checkpoints,
        stats.retrains,
        stats.rollbacks
    ));
    s.push_str(&format!(
        "  \"chaos\": {{\"shards\": {}, \"admitted\": {}, \"answered\": {}, \
         \"availability\": {:.6}, \"shard_recovery_ms\": {:.3}, \"storm_shed\": {}, \
         \"backpressure_waits\": {}, \"oracle_divergences\": {}, \"panics\": {}, \
         \"restarts\": {}, \"requeued\": {}, \"writer_stalls\": {}, \
         \"checkpoint_retries\": {}, \"storm_budget_ms\": {:.3}}},\n",
        chaos.shards,
        chaos.admitted,
        chaos.answered,
        chaos.availability,
        chaos.shard_recovery_ms,
        chaos.storm_shed,
        chaos.backpressure_waits,
        chaos.divergences,
        chaos.panics,
        chaos.restarts,
        chaos.requeued,
        chaos.writer_stalls,
        chaos.checkpoint_retries,
        chaos.storm_budget_ms
    ));
    s.push_str(&format!(
        "  \"ledger\": {{\"tenants\": {}, \"rounds\": {}, \"publishes\": {}, \
         \"crashes\": {}, \"torn_manifests\": {}, \"max_recovery_ms\": {:.3}, \
         \"publish_retries\": {}, \"rollbacks\": {}, \"recoveries\": {}, \
         \"tmp_sweeps\": {}, \"reader_samples\": {}, \"reader_errors\": {}, \
         \"lost\": {}, \"mismatches\": {}}},\n",
        ledger.tenants,
        ledger.rounds,
        ledger.publishes,
        ledger.crashes,
        ledger.torn_manifests,
        ledger.max_recovery_ms,
        ledger.publish_retries,
        ledger.rollbacks,
        ledger.recoveries,
        ledger.tmp_sweeps,
        ledger.reader_samples,
        ledger.reader_errors,
        ledger.lost,
        ledger.mismatches
    ));
    s.push_str("  \"gates\": {\n");
    for (i, gate) in gates.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {{\"passed\": {}, \"detail\": \"{}\"}}{}\n",
            gate.name,
            gate.passed,
            gate.detail.replace('"', "'"),
            if i + 1 < gates.len() { "," } else { "" }
        ));
    }
    s.push_str("  }\n}\n");
    s
}
