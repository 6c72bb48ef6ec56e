//! One measured run of one workload: set-up (three cold starts), the
//! warm-up, the closed and open phases, the drain, every correctness
//! check, and — in a traced run — the per-layer metrics.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use generic_hdc::{HdcPipeline, NormMode, PredictOptions};

use crate::loadgen::{self, Conn, Ctx, OpenResult, Sample, Tally, INTERVAL};
use crate::procfs;
use crate::replay;
use crate::report::{Header, Machine, Metric};
use crate::server::{self, DrainReport, Server};
use crate::stats::{median, Percentiles};
use crate::tenants::{self, argmax_last, TenantModel};
use crate::trace::{self, Tracer};
use crate::workload::{
    is_pruned_tenant, mix, open_schedule, Inputs, Req, Traffic, Workload, SMOKE_TRAIN_ROWS,
    TENANTS, TRAIN_EPOCHS, TRAIN_ROWS,
};
use crate::BenchResult;

/// Cold starts whose median is `setup_s`; the last one serves the run.
const COLD_STARTS: usize = 3;
const CLOSED_TRIALS: usize = 4;
const CONN_A_IDS: u64 = 1 << 32;
const CONN_B_IDS: u64 = 2 << 32;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub warmup: Duration,
    pub closed: Duration,
    pub open: Duration,
}

impl Options {
    /// Full runs split `--seconds` 40/60 between the closed and open
    /// phases after an untimed warm-up of a twentieth of it; smoke runs
    /// use 1 s phases.
    pub fn phases(&self) -> Phases {
        if self.smoke {
            return Phases {
                warmup: Duration::from_millis(250),
                closed: Duration::from_secs(1),
                open: Duration::from_secs(1),
            };
        }
        Phases {
            warmup: Duration::from_secs_f64((self.seconds * 0.05).clamp(0.5, 2.0)),
            closed: Duration::from_secs_f64(self.seconds * 0.4),
            open: Duration::from_secs_f64(self.seconds * 0.6),
        }
    }
}

/// Everything one workload's run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub header: Header,
    pub metrics: Vec<Metric>,
    /// Printed and stored, never gated: tail percentiles, sample counts,
    /// error rate and other context.
    pub diagnostics: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations and checks; any entry makes the run invalid.
    pub failures: Vec<String>,
}

fn fresh_dir(path: &Path) -> BenchResult<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)?;
    Ok(())
}

fn load_pipeline(path: &Path) -> BenchResult<HdcPipeline> {
    Ok(HdcPipeline::read_from(BufReader::new(File::open(path)?))?)
}

/// The shared-model or tenant request the readiness probe sends.
fn probe_req(workload: &Workload) -> Req {
    Req {
        pool: 0,
        learn: false,
        tenant: (workload.traffic == Traffic::Tenants).then_some(0),
    }
}

fn serve_args(dir: &Path, model: &Path, registry: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "serve".into(),
        "--ckpt-dir".into(),
        dir.join("ckpt").display().to_string(),
        "--data".into(),
        "-".into(),
        "--model".into(),
        model.display().to_string(),
        "--shards".into(),
        "2".into(),
        "--batch-max".into(),
        "16".into(),
        "--listen".into(),
        "127.0.0.1:0".into(),
    ];
    if let Some(registry) = registry {
        args.push("--registry".into());
        args.push(registry.display().to_string());
    }
    args
}

/// One cold start: train, publish tenants, spawn, first answer.
struct Started {
    server: Server,
    conn: Conn,
    tenants: Vec<TenantModel>,
    model: PathBuf,
    probe: Tally,
    setup: Duration,
    train: Duration,
    start: Duration,
}

fn cold_start(
    workload: &Workload,
    inputs: &Inputs,
    generic: &Path,
    csv: &Path,
    dir: &Path,
    seed: u64,
) -> BenchResult<Started> {
    fresh_dir(dir)?;
    let began = Instant::now();
    let model = dir.join("model.ghdc");
    let train = server::train(generic, csv, &model, workload.dim, TRAIN_EPOCHS)?;
    let (tenants, registry) = if workload.traffic == Traffic::Tenants {
        let pipeline = load_pipeline(&model)?;
        let tenants = tenants::build(&pipeline, inputs, TENANTS, seed)?;
        let registry = dir.join("registry");
        tenants::publish_all(&registry, workload.dim, &tenants)?;
        (tenants, Some(registry))
    } else {
        (Vec::new(), None)
    };
    let spawned = Instant::now();
    let server = Server::spawn(generic, serve_args(dir, &model, registry.as_deref()))?;
    let mut conn = Conn::connect(server.addr, CONN_A_IDS)?;
    let tenant_dims: Vec<usize> = tenants.iter().map(TenantModel::dims).collect();
    let ctx = Ctx {
        workload,
        inputs,
        tenant_dims: &tenant_dims,
        seed,
    };
    let mut probe = Tally::default();
    loadgen::probe(&ctx, &mut conn, probe_req(workload), &mut probe)?;
    let start = spawned.elapsed();
    Ok(Started {
        setup: began.elapsed(),
        server,
        conn,
        tenants,
        model,
        probe,
        train,
        start,
    })
}

/// Drains a server and checks what every drain must show.
fn drain(server: Server, failures: &mut Vec<String>) -> BenchResult<DrainReport> {
    let (text, status) = server.shutdown()?;
    if !status.success() {
        failures.push(format!("generic serve exited with {status}"));
    }
    let report = server::parse_drain_report(&text)?;
    if !report.final_checkpoint_ok {
        failures.push("the final checkpoint failed".to_owned());
    }
    if report.panics > 0 || report.net_malformed > 0 {
        failures.push(format!(
            "{} shard panic(s), {} malformed frame(s)",
            report.panics, report.net_malformed
        ));
    }
    Ok(report)
}

/// Replays a seeded 2 % of answers through the scalar oracles: the
/// shared model's scalar predictor at the answered dimensions, or the
/// heap copy of the tenant's image. Learn workloads are skipped: their
/// model moves while it serves, so the per-answer label and dimension
/// checks stand in for the oracle.
fn check_samples(
    workload: &Workload,
    inputs: &Inputs,
    pipeline: &HdcPipeline,
    tenants: &[TenantModel],
    samples: &[Sample],
    failures: &mut Vec<String>,
) -> BenchResult<usize> {
    if workload.traffic == Traffic::Learn {
        return Ok(0);
    }
    let model = pipeline.model();
    let mut checked = 0;
    for s in samples {
        let hv = pipeline.encode(&inputs.pool[s.req.pool as usize])?;
        let want = match s.req.tenant {
            Some(t) => tenants[usize::from(t)].oracle_label(&hv.to_binary())?,
            None => {
                let dims = s.dims as usize;
                if dims == 0 || dims > model.dim() {
                    failures.push(format!("answer at impossible dims {dims}"));
                    continue;
                }
                let opts = PredictOptions::reduced(dims, NormMode::Updated);
                argmax_last(&model.scores_scalar(&hv, opts))
            }
        };
        checked += 1;
        if want as u64 != s.label {
            failures.push(format!(
                "oracle divergence on pool row {} (tenant {:?}): served {}, oracle {want}",
                s.req.pool, s.req.tenant, s.label
            ));
        }
    }
    Ok(checked)
}

/// The closed loop as [`CLOSED_TRIALS`] back-to-back trials splitting
/// `duration`, each ending by draining its in-flight requests; the
/// first runs `warmup` unmeasured. Returns the merged counts and each
/// trial's median answered-Infer rate over its 250 ms intervals.
///
/// On a 2-vCPU host the scheduler sometimes stacks every server and
/// client thread onto one vCPU and keeps them there for seconds, which
/// halves throughput. The pause between trials lets it place the threads
/// afresh, and `throughput_rps` takes the best trial: the capacity the
/// server shows when its threads get both vCPUs.
fn closed_trials(
    ctx: &Ctx,
    conns: (&mut Conn, &mut Conn),
    tracers: (&mut Tracer, &mut Tracer),
    warmup: Duration,
    duration: Duration,
    salt: u64,
) -> BenchResult<(Tally, Vec<f64>)> {
    let (conn_a, conn_b) = conns;
    let (tracer_a, tracer_b) = tracers;
    let mut merged = Tally::default();
    let mut rates = Vec::with_capacity(CLOSED_TRIALS);
    for trial in 0..CLOSED_TRIALS {
        let tally = loadgen::closed_phase(
            ctx,
            (&mut *conn_a, &mut *conn_b),
            (&mut *tracer_a, &mut *tracer_b),
            if trial == 0 { warmup } else { Duration::ZERO },
            duration / CLOSED_TRIALS as u32,
            salt + 2 * trial as u64,
        )?;
        let per_second: Vec<f64> = tally
            .per_interval
            .iter()
            .map(|&n| n as f64 / INTERVAL.as_secs_f64())
            .collect();
        rates.push(median(&per_second));
        merged.merge(tally);
    }
    Ok((merged, rates))
}

pub fn run_workload(
    workload: &'static Workload,
    opts: &Options,
    generic: &Path,
    machine: &Machine,
) -> BenchResult<Outcome> {
    let phases = opts.phases();
    let seed = opts.seed;
    let work = opts.out.join("work").join(workload.name);
    fresh_dir(&work)?;
    let train_rows = if opts.smoke {
        SMOKE_TRAIN_ROWS
    } else {
        TRAIN_ROWS
    };
    let inputs = Inputs::generate(workload, seed, train_rows);
    let csv = work.join("train.csv");
    inputs.write_train_csv(&csv)?;
    let mut failures = Vec::new();

    // Set-up: cold starts; all but the last are drained right away.
    let mut setups = Vec::new();
    let mut trains = Vec::new();
    let mut starts = Vec::new();
    let mut live = None;
    for k in 0..COLD_STARTS {
        let started = cold_start(
            workload,
            &inputs,
            generic,
            &csv,
            &work.join(format!("cold{k}")),
            seed,
        )?;
        setups.push(started.setup.as_secs_f64());
        trains.push(started.train.as_secs_f64());
        starts.push(started.start.as_secs_f64() * 1e3);
        if k + 1 < COLD_STARTS {
            drop(started.conn);
            let report = drain(started.server, &mut failures)?;
            if report.answered != 1 {
                failures.push(format!(
                    "cold start {k}: drained {} answers, sent 1",
                    report.answered
                ));
            }
        } else {
            live = Some(started);
        }
    }
    let Started {
        server,
        conn: mut conn_a,
        tenants,
        model,
        probe,
        ..
    } = live.ok_or("no cold start")?;
    let pipeline = load_pipeline(&model)?;
    let tenant_dims: Vec<usize> = tenants.iter().map(TenantModel::dims).collect();
    let ctx = Ctx {
        workload,
        inputs: &inputs,
        tenant_dims: &tenant_dims,
        seed,
    };
    let pid = server.pid();
    let server_argv = server.argv.clone();
    let host_before = procfs::host_ticks();
    let epoch = Instant::now();
    let mut all = probe;

    // The closed loop on two connections, its warm-up untimed.
    let mut conn_b = Conn::connect(server.addr, CONN_B_IDS)?;
    let mut off_a = Tracer::new(epoch, 0, false);
    let mut off_b = Tracer::new(epoch, 1, false);
    let (closed_time, traced_half) = if opts.trace {
        (phases.closed / 2, Some(phases.closed - phases.closed / 2))
    } else {
        (phases.closed, None)
    };
    let (closed, trial_rates) = closed_trials(
        &ctx,
        (&mut conn_a, &mut conn_b),
        (&mut off_a, &mut off_b),
        phases.warmup,
        closed_time,
        10,
    )?;
    let throughput = trial_rates.iter().copied().fold(0.0, f64::max);
    let learn_sps = closed.measured_learns as f64 / closed_time.as_secs_f64();
    let closed_backpressure = closed.learn_backpressure;
    let closed_learned = closed.learn_accepted;
    all.merge(closed);
    let mut tracer_a = Tracer::new(epoch, 0, opts.trace);
    let mut tracer_b = Tracer::new(epoch, 1, opts.trace);
    let mut traced_throughput = 0.0;
    if let Some(half) = traced_half {
        let (traced, rates) = closed_trials(
            &ctx,
            (&mut conn_a, &mut conn_b),
            (&mut tracer_a, &mut tracer_b),
            Duration::ZERO,
            half,
            30,
        )?;
        traced_throughput = rates.iter().copied().fold(0.0, f64::max);
        all.merge(traced);
    }
    drop(conn_b);

    // The open loop on one connection, with the server's CPU and
    // context switches read around it.
    let schedule = open_schedule(workload, mix(seed, 40), phases.open);
    let mut tracer_send = Tracer::new(epoch, 2, opts.trace);
    let mut tracer_recv = Tracer::new(epoch, 3, opts.trace);
    let cpu_before = procfs::cpu_ticks(pid).ok_or("cannot read the server's /proc stat")?;
    let switches_before = procfs::context_switches(pid);
    let open = loadgen::open_phase(
        &ctx,
        &mut conn_a,
        &schedule,
        (&mut tracer_send, &mut tracer_recv),
    )?;
    let cpu_after = procfs::cpu_ticks(pid).ok_or("cannot read the server's /proc stat")?;
    let switches_after = procfs::context_switches(pid);
    let status = procfs::status(pid).ok_or("cannot read the server's /proc status")?;
    let steal_pct = match (host_before, procfs::host_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 * 100.0 / (t1 - t0).max(1) as f64,
        _ => f64::NAN,
    };
    drop(conn_a);

    let OpenResult {
        tally: open_tally,
        mut latency_ms,
        mut overhead_us,
        mut late_us,
        due_infers,
        within_limit,
    } = open;
    let open_ops = open_tally.answered + open_tally.learn_accepted;
    let open_answered = open_tally.answered;
    let open_correct = open_tally.correct;
    let mut open_elapsed = open_tally.elapsed_us.clone();
    let open_bytes = open_tally.wire_bytes;
    let open_attempted = open_tally.attempted();
    all.merge(open_tally);

    // Drain and account.
    let report = drain(server, &mut failures)?;
    if report.answered != all.answered || report.net_answered != all.answered {
        failures.push(format!(
            "the server answered {} ({} over the network), the client received {}",
            report.answered, report.net_answered, all.answered
        ));
    }
    if workload.traffic == Traffic::Learn
        && report.learned + report.held_out + report.quarantined != all.learn_accepted
    {
        failures.push(format!(
            "{} Learn frames accepted, the writer accounted for {} learned + {} held out + {} quarantined",
            all.learn_accepted, report.learned, report.held_out, report.quarantined
        ));
    }
    let mut divergences = Vec::new();
    let checked = check_samples(
        workload,
        &inputs,
        &pipeline,
        &tenants,
        &all.samples,
        &mut divergences,
    )?;
    let failed = all.failures + divergences.len() as u64;
    failures.extend(all.notes.iter().cloned());
    if all.failures as usize > all.notes.len() {
        failures.push(format!(
            "{} more failed operations",
            all.failures as usize - all.notes.len()
        ));
    }
    failures.extend(divergences);

    let header = Header {
        machine: machine.clone(),
        seed,
        mode: if opts.smoke { "smoke" } else { "full" },
        trace: opts.trace,
        warmup_s: phases.warmup.as_secs_f64(),
        closed_s: phases.closed.as_secs_f64(),
        open_s: phases.open.as_secs_f64(),
        server_argv,
    };

    let latency = Percentiles::of(&mut latency_ms);
    let ticks = cpu_after.total().saturating_sub(cpu_before.total());
    let cpu_ms = ticks as f64 * 1e3 / procfs::clock_ticks_per_second() as f64;
    let attempted = all.attempted();
    let mut diagnostics = vec![
        ("p50_ms.samples".to_owned(), latency.count.to_string()),
        (
            "p95_ms".to_owned(),
            format!("{} (samples {})", latency.p95, latency.count),
        ),
        (
            "p99_ms".to_owned(),
            format!("{} (samples {})", latency.p99, latency.count),
        ),
        (
            "p999_ms".to_owned(),
            format!("{} (samples {})", latency.p999, latency.count),
        ),
        (
            "throughput_rps.trials".to_owned(),
            trial_rates
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("open.due_infers".to_owned(), due_infers.to_string()),
        ("open.answered".to_owned(), open_answered.to_string()),
        (
            "error_rate".to_owned(),
            (all.failures as f64 / attempted.max(1) as f64).to_string(),
        ),
        ("learn_sps".to_owned(), learn_sps.to_string()),
        ("oracle_checked".to_owned(), checked.to_string()),
        ("host.steal_pct".to_owned(), steal_pct.to_string()),
    ];

    let mut metrics = Vec::new();
    if !opts.trace {
        metrics.extend([
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("throughput_rps", throughput, "req/s"),
            Metric::new("p50_ms", latency.p50, "ms"),
            Metric::new(
                "slo_attain",
                within_limit as f64 / due_infers.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "cpu_ms_per_kreq",
                cpu_ms / (open_ops.max(1) as f64 / 1e3),
                "ms/kreq",
            ),
            Metric::new("peak_rss_mb", status.vm_hwm_kb as f64 / 1024.0, "MiB"),
            Metric::new(
                "accuracy",
                open_correct as f64 / open_answered.max(1) as f64,
                "ratio",
            ),
        ]);
    } else {
        let overhead = Percentiles::of(&mut overhead_us);
        let elapsed = Percentiles::of(&mut open_elapsed);
        let late = Percentiles::of(&mut late_us);
        let replay_dir = work.join("replay");
        let mut replay_tracer = Tracer::new(epoch, 4, true);
        let replayed = replay::run(
            workload,
            &inputs,
            &pipeline,
            seed,
            &replay_dir,
            &mut replay_tracer,
        )?;
        let replay_value = |name: &str| {
            replayed
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        // Replayed encode + score of an average open-loop request.
        let tenant_requests = schedule.iter().filter_map(|a| a.req.tenant);
        let pruned_share = tenant_requests
            .clone()
            .filter(|&t| is_pruned_tenant(usize::from(t)))
            .count() as f64
            / tenant_requests.count().max(1) as f64;
        let service_ns = replay_value("encoding.encode_ns")
            + if workload.traffic == Traffic::Tenants {
                replay_value("registry.binarize_ns")
                    + (1.0 - pruned_share) * replay_value("registry.view_score_ns")
                    + pruned_share * replay_value("registry.view_score_pruned_ns")
            } else {
                replay_value("model.score_ns_b1")
            };
        let shards = &all.answers_per_shard;
        let skew = shards.iter().copied().max().unwrap_or(0) as f64
            / shards.iter().copied().min().unwrap_or(0).max(1) as f64;
        let registry = report.registry.unwrap_or_default();
        let tenant_answers = if workload.traffic == Traffic::Tenants {
            report.answered
        } else {
            0
        };
        metrics.extend([
            Metric::new("net.overhead_us_p50", overhead.p50, "us"),
            Metric::new("net.overhead_us_p95", overhead.p95, "us"),
            Metric::new(
                "net.bytes_per_req",
                open_bytes as f64 / open_attempted.max(1) as f64,
                "B",
            ),
            Metric::new(
                "net.refusals_per_kreq",
                all.refused as f64 * 1e3 / attempted.max(1) as f64,
                "1/kreq",
            ),
            Metric::new("serve.elapsed_us_p50", elapsed.p50, "us"),
            Metric::new("serve.elapsed_us_p95", elapsed.p95, "us"),
            Metric::new("serve.wait_us_p50", elapsed.p50 - service_ns / 1e3, "us"),
            Metric::new(
                "serve.steals_per_kreq",
                report.steals as f64 * 1e3 / report.answered.max(1) as f64,
                "1/kreq",
            ),
            Metric::new("serve.shard_skew", skew, "ratio"),
            Metric::new(
                "serve.degraded_share",
                all.degraded as f64 / all.answered.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "registry.hits_per_kreq",
                registry.hits as f64 * 1e3 / tenant_answers.max(1) as f64,
                "1/kreq",
            ),
            Metric::new("registry.cold_loads", registry.cold_loads as f64, "count"),
            Metric::new(
                "registry.resident_kb",
                registry.resident_bytes as f64 / 1024.0,
                "KiB",
            ),
            Metric::new("runtime.learn_sps", learn_sps, "samples/s"),
            Metric::new(
                "runtime.checkpoints_per_klearn",
                if report.learned == 0 {
                    0.0
                } else {
                    report.checkpoints as f64 * 1e3 / report.learned as f64
                },
                "1/klearn",
            ),
            Metric::new(
                "runtime.learn_backpressure_per_klearn",
                closed_backpressure as f64 * 1e3 / closed_learned.max(1) as f64,
                "1/klearn",
            ),
            Metric::new("cli.train_s", median(&trains), "s"),
            Metric::new("cli.start_ms", median(&starts), "ms"),
            Metric::new(
                "proc.ctx_switches_per_req",
                switches_after.saturating_sub(switches_before) as f64 / open_ops.max(1) as f64,
                "count",
            ),
            Metric::new("proc.threads", status.threads as f64, "count"),
            Metric::new("gen.late_us_p95", late.p95, "us"),
            Metric::new(
                "trace.overhead_pct",
                (throughput - traced_throughput) / throughput.max(1.0) * 100.0,
                "%",
            ),
        ]);
        metrics.extend(replayed);
        metrics.sort_by(|a, b| a.name.cmp(b.name));

        let tracers = [
            &tracer_a,
            &tracer_b,
            &tracer_send,
            &tracer_recv,
            &replay_tracer,
        ];
        let trace_path = opts.out.join(format!("{}.trace.json", workload.name));
        trace::write_chrome(&trace_path, &tracers)?;
        let dropped: u64 = tracers.iter().map(|t| t.dropped()).sum();
        diagnostics.push(("trace.file".to_owned(), trace_path.display().to_string()));
        diagnostics.push(("trace.dropped_spans".to_owned(), dropped.to_string()));
        println!("# {}: span self time (span minus children)", workload.name);
        println!(
            "#   {:<30} {:>9} {:>12} {:>12}",
            "span", "count", "total ms", "self us/op"
        );
        for (name, (count, total, own)) in trace::self_times(&tracers) {
            println!(
                "#   {name:<30} {count:>9} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e3 / count.max(1) as f64
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    Ok(Outcome {
        workload: workload.name,
        header,
        metrics,
        diagnostics,
        attempted,
        failed,
        failures,
    })
}
