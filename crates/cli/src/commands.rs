//! Command implementations.

use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use generic_hdc::encoding::GenericEncoderSpec;
use generic_hdc::metrics::normalized_mutual_information;
use generic_hdc::runtime::{
    CheckpointStore, MicroBatcher, OnlineRuntime, RetryPolicy, RuntimeConfig,
};
use generic_hdc::{
    HdcClustering, HdcClusteringSpec, HdcPipeline, Ledger, ModelRegistry, NetFrontend,
    RegistryConfig, RuntimeError, ServeConfig, ServeError, Server, SubmitError, Ticket,
};

use crate::args::{CliCommand, RegistryAction, USAGE};
use crate::csv;

type CommandResult = Result<(), Box<dyn Error>>;

/// Executes a parsed command, writing output to `out`.
///
/// # Errors
///
/// Returns a human-readable error for I/O failures, malformed CSV input,
/// or invalid learning configurations.
pub fn execute<W: Write>(command: CliCommand, out: &mut W) -> CommandResult {
    match command {
        CliCommand::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        CliCommand::Train {
            data,
            out: model_path,
            dim,
            window,
            levels,
            epochs,
            seed,
            id_binding,
            skip_bad_rows,
        } => {
            let report = csv::read_file_opts(&data, true, skip_bad_rows)?;
            report_skipped(&report, out)?;
            let parsed = report.data;
            let labels = parsed.labels.expect("labeled parse returns labels");
            let n_classes = csv::n_classes(&labels);
            if n_classes < 2 {
                return Err("training data must contain at least two classes".into());
            }
            let n_features = parsed.features[0].len();
            let spec = GenericEncoderSpec::new(dim, n_features)
                .with_window(window.min(n_features))
                .with_levels(levels)
                .with_id_binding(id_binding)
                .with_seed(seed);
            let pipeline = HdcPipeline::train(spec, &parsed.features, &labels, n_classes, epochs)?;
            let train_acc = pipeline.accuracy(&parsed.features, &labels)?;
            let file = File::create(&model_path)?;
            pipeline.write_to(BufWriter::new(file))?;
            writeln!(
                out,
                "trained on {} samples ({} features, {} classes): {:.1}% training accuracy",
                parsed.features.len(),
                n_features,
                n_classes,
                100.0 * train_acc
            )?;
            writeln!(out, "model written to {}", model_path.display())?;
            Ok(())
        }
        CliCommand::Predict {
            model,
            data,
            labeled,
            skip_bad_rows,
        } => {
            let pipeline = load_pipeline(&model)?;
            let report = csv::read_file_opts(&data, labeled, skip_bad_rows)?;
            report_skipped(&report, out)?;
            let parsed = report.data;
            let mut correct = 0usize;
            for (i, row) in parsed.features.iter().enumerate() {
                let prediction = pipeline.predict(row)?;
                writeln!(out, "{prediction}")?;
                if let Some(labels) = &parsed.labels {
                    if labels[i] == prediction {
                        correct += 1;
                    }
                }
            }
            if parsed.labels.is_some() {
                writeln!(
                    out,
                    "accuracy: {:.1}% ({correct}/{})",
                    100.0 * correct as f64 / parsed.features.len() as f64,
                    parsed.features.len()
                )?;
            }
            Ok(())
        }
        CliCommand::Cluster {
            data,
            k,
            dim,
            window,
            epochs,
            seed,
            labeled,
            skip_bad_rows,
        } => {
            let report = csv::read_file_opts(&data, labeled, skip_bad_rows)?;
            report_skipped(&report, out)?;
            let parsed = report.data;
            let n_features = parsed.features[0].len();
            let spec = GenericEncoderSpec::new(dim, n_features)
                .with_window(window.min(n_features))
                .with_seed(seed);
            let encoder = generic_hdc::encoding::GenericEncoder::from_data(spec, &parsed.features)?;
            use generic_hdc::encoding::Encoder;
            let encoded = encoder.encode_batch(&parsed.features)?;
            let (_, outcome) =
                HdcClustering::fit(&encoded, HdcClusteringSpec::new(k).with_max_epochs(epochs))?;
            for &assignment in &outcome.assignments {
                writeln!(out, "{assignment}")?;
            }
            writeln!(
                out,
                "clustered {} points into {k} groups in {} epochs (converged: {})",
                parsed.features.len(),
                outcome.epochs_run,
                outcome.converged
            )?;
            if let Some(labels) = &parsed.labels {
                let nmi = normalized_mutual_information(&outcome.assignments, labels)?;
                writeln!(out, "NMI vs provided labels: {nmi:.3}")?;
            }
            Ok(())
        }
        CliCommand::Info { model } => {
            let pipeline = load_pipeline(&model)?;
            let spec = pipeline.encoder().spec();
            writeln!(out, "GENERIC HDC pipeline: {}", model.display())?;
            writeln!(out, "  dimensions:  {}", spec.dim())?;
            writeln!(out, "  features:    {}", spec.n_features())?;
            writeln!(out, "  classes:     {}", pipeline.model().n_classes())?;
            writeln!(out, "  window:      {}", spec.window())?;
            writeln!(out, "  levels:      {}", spec.n_levels())?;
            writeln!(out, "  id binding:  {}", spec.id_binding())?;
            writeln!(out, "  seed:        {}", spec.seed())?;
            Ok(())
        }
        CliCommand::Serve {
            ckpt_dir,
            data,
            model,
            budget_us,
            checkpoint_every,
            keep,
            batch_max,
            skip_bad_rows,
            shards,
            dead_letter_out,
            registry,
            tenant_header,
            listen,
        } => serve(
            out,
            &ServeArgs {
                ckpt_dir,
                data,
                model,
                budget_us,
                checkpoint_every,
                keep,
                batch_max,
                skip_bad_rows,
                shards,
                dead_letter_out,
                registry,
                tenant_header,
                listen,
            },
        ),
        CliCommand::Compress {
            model,
            data,
            target_accuracy,
            max_bytes,
            out: image_out,
            holdout_every,
            epochs,
            skip_bad_rows,
        } => compress(
            out,
            &model,
            &data,
            target_accuracy,
            max_bytes,
            image_out.as_deref(),
            holdout_every,
            epochs,
            skip_bad_rows,
        ),
        CliCommand::Conformance {
            replay,
            seed,
            count,
        } => conformance(out, replay.as_deref(), seed, count),
        CliCommand::Registry {
            action,
            dir,
            tenant,
            to,
        } => registry_admin(out, action, &dir, tenant.as_deref(), to),
    }
}

/// The `compress` driver: encode the labeled CSV, split train/holdout,
/// run the accuracy/size Pareto search, report the frontier, and write
/// the chosen image when requested.
#[allow(clippy::too_many_arguments)]
fn compress<W: Write>(
    out: &mut W,
    model_path: &Path,
    data: &Path,
    target_accuracy: f64,
    max_bytes: Option<usize>,
    image_out: Option<&Path>,
    holdout_every: usize,
    epochs: usize,
    skip_bad_rows: bool,
) -> CommandResult {
    use generic_hdc::encoding::Encoder;

    let pipeline = load_pipeline(model_path)?;
    let report = csv::read_file_opts(data, true, skip_bad_rows)?;
    report_skipped(&report, out)?;
    let parsed = report.data;
    let labels = parsed.labels.expect("labeled parse returns labels");
    let encoded = pipeline.encoder().encode_batch(&parsed.features)?;

    // Deterministic split: every Nth row validates, the rest train.
    let mut train = Vec::new();
    let mut train_labels = Vec::new();
    let mut holdout = Vec::new();
    let mut holdout_labels = Vec::new();
    for (i, (hv, &label)) in encoded.into_iter().zip(&labels).enumerate() {
        if i % holdout_every == 0 {
            holdout.push(hv);
            holdout_labels.push(label);
        } else {
            train.push(hv);
            train_labels.push(label);
        }
    }
    if train.is_empty() || holdout.is_empty() {
        return Err("too few samples to split into train and holdout".into());
    }

    let opts = generic_hdc::CompressOptions {
        max_bytes,
        recover_epochs: epochs,
        n_threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        ..generic_hdc::CompressOptions::new(target_accuracy)
    };
    let outcome = generic_hdc::pareto_search(
        pipeline.model(),
        &train,
        &train_labels,
        &holdout,
        &holdout_labels,
        &opts,
    )?;

    let baseline = {
        let full = generic_hdc::QuantizedModel::from_model(pipeline.model(), 8)?;
        let mut bytes = Vec::new();
        generic_hdc::io::write_packed(&full, &mut bytes)?;
        bytes.len()
    };
    writeln!(
        out,
        "searched {} candidates over {} samples ({} train / {} holdout)",
        outcome.points.len(),
        labels.len(),
        train_labels.len(),
        holdout_labels.len()
    )?;
    writeln!(out, "pareto frontier (size-ascending, non-dominated):")?;
    for p in &outcome.frontier {
        writeln!(
            out,
            "  {:>6} dims x {:>2} bit = {:>9} B  {:>6.2}% holdout accuracy",
            p.keep_dims,
            p.bit_width,
            p.bytes,
            100.0 * p.accuracy
        )?;
    }
    let chosen = &outcome.chosen_point;
    writeln!(
        out,
        "chosen: {} of {} dims x {} bit = {} B ({:.1}x smaller than the {} B full 8-bit \
         image), {:.2}% holdout accuracy",
        chosen.keep_dims,
        pipeline.model().dim(),
        chosen.bit_width,
        chosen.bytes,
        baseline as f64 / chosen.bytes as f64,
        baseline,
        100.0 * chosen.accuracy
    )?;
    if !outcome.meets_target {
        writeln!(
            out,
            "warning: no candidate met the {:.2}% target{}; emitted the most accurate one",
            100.0 * target_accuracy,
            max_bytes.map_or(String::new(), |b| format!(" within {b} B")),
        )?;
    }
    if let Some(path) = image_out {
        std::fs::write(path, outcome.chosen.pack()?.bytes())?;
        writeln!(out, "compressed image written to {}", path.display())?;
    }
    Ok(())
}

/// The `registry` admin driver: history, rollback, gc, and fsck over a
/// ledger directory, reusing the serving registry's recovery scan.
fn registry_admin<W: Write>(
    out: &mut W,
    action: RegistryAction,
    dir: &Path,
    tenant: Option<&str>,
    to: Option<u64>,
) -> CommandResult {
    let (mut ledger, recovery) =
        Ledger::open(dir).map_err(|e| format!("cannot open registry {}: {e}", dir.display()))?;
    if recovery.repaired {
        writeln!(
            out,
            "recovery: manifest rebuilt from on-disk generations ({})",
            recovery.repair_reason.as_deref().unwrap_or("unknown cause")
        )?;
    }
    if recovery.swept_tmp > 0 {
        writeln!(
            out,
            "recovery: swept {} orphaned staging file(s)",
            recovery.swept_tmp
        )?;
    }
    match action {
        RegistryAction::History => {
            let tenant = tenant.expect("parser enforces --tenant");
            let records = ledger.history(tenant);
            if records.is_empty() {
                return Err(format!("tenant `{tenant}` has no retained generations").into());
            }
            writeln!(out, "tenant {tenant}: {} generation(s)", records.len())?;
            for record in records {
                let size = match record.bytes {
                    Some(bytes) => format!("{bytes} B"),
                    None => "missing".to_string(),
                };
                writeln!(
                    out,
                    "  g{:<4} {:>10}{}",
                    record.generation,
                    size,
                    if record.live { "  (live)" } else { "" }
                )?;
            }
            Ok(())
        }
        RegistryAction::Rollback => {
            let tenant = tenant.expect("parser enforces --tenant");
            if !ledger.try_acquire_writer()? {
                return Err("another process holds the registry writer lock".into());
            }
            let target = ledger.rollback_target(tenant, to).ok_or_else(|| match to {
                Some(gen) => format!("tenant `{tenant}` does not retain generation {gen}"),
                None => format!("tenant `{tenant}` has no generation older than live"),
            })?;
            Ledger::validate_image(&ledger.gen_path(tenant, target))
                .map_err(|reason| format!("generation {target} fails validation: {reason}"))?;
            ledger.commit_live(tenant, target)?;
            writeln!(out, "tenant {tenant}: live generation is now g{target}")?;
            Ok(())
        }
        RegistryAction::Gc => {
            let removed = ledger.gc()?;
            writeln!(out, "gc: removed {removed} unreferenced file(s)")?;
            Ok(())
        }
        RegistryAction::Fsck => {
            let report = ledger.fsck()?;
            for finding in &report.findings {
                let status = match &finding.status {
                    Ok(()) => "ok".to_string(),
                    Err(reason) => format!("BAD: {reason}"),
                };
                writeln!(
                    out,
                    "tenant {} g{}{}: {status}",
                    finding.tenant,
                    finding.generation,
                    if finding.live { " (live)" } else { "" }
                )?;
            }
            for orphan in &report.orphans {
                writeln!(out, "orphan: {}", orphan.display())?;
            }
            if report.findings.is_empty() && report.orphans.is_empty() {
                writeln!(out, "fsck: empty ledger, nothing to check")?;
            }
            if report.healthy() {
                writeln!(out, "fsck: healthy")?;
                Ok(())
            } else {
                Err("fsck: a live generation is missing or corrupt".into())
            }
        }
    }
}

/// The `conformance` driver: replay one reproducer token, or fuzz
/// `count` seeded scenarios, shrinking any divergence.
fn conformance<W: Write>(
    out: &mut W,
    replay: Option<&str>,
    seed: u64,
    count: usize,
) -> CommandResult {
    use generic_conformance::{run_scenario, shrink, Mutation, Scenario};

    if let Some(token) = replay {
        let scenario =
            Scenario::from_token(token).map_err(|e| format!("bad --replay token: {e}"))?;
        let report = run_scenario(&scenario);
        writeln!(out, "replaying {}", scenario.token())?;
        for (stage, checks) in &report.coverage {
            writeln!(out, "  {stage:<18} {checks} checks")?;
        }
        return match report.divergence {
            Some(divergence) => Err(format!("divergence reproduced: {divergence}").into()),
            None => {
                writeln!(out, "no divergence: every boundary agreed")?;
                Ok(())
            }
        };
    }

    let mut diverged = 0usize;
    let mut checks = 0u64;
    for i in 0..count {
        let scenario = Scenario::generate(seed.wrapping_add(i as u64));
        let report = run_scenario(&scenario);
        checks += report.total_checks();
        if let Some(divergence) = report.divergence {
            diverged += 1;
            writeln!(out, "DIVERGENCE in {}: {divergence}", scenario.token())?;
            let outcome = shrink(&scenario, Mutation::None, &divergence);
            writeln!(
                out,
                "  minimal reproducer: --replay \"{}\"",
                outcome.minimized.token()
            )?;
        }
    }
    writeln!(
        out,
        "{count} scenarios, {checks} boundary checks, {diverged} divergences"
    )?;
    if diverged > 0 {
        return Err(format!("{diverged} scenarios diverged").into());
    }
    Ok(())
}

/// Everything the `serve` subcommand parsed from the command line.
struct ServeArgs {
    ckpt_dir: PathBuf,
    data: PathBuf,
    model: Option<PathBuf>,
    budget_us: u64,
    checkpoint_every: u64,
    keep: usize,
    batch_max: usize,
    skip_bad_rows: bool,
    shards: usize,
    dead_letter_out: Option<PathBuf>,
    registry: Option<PathBuf>,
    tenant_header: bool,
    listen: Option<String>,
}

/// The `serve` driver: stream rows through an [`OnlineRuntime`].
///
/// Rows matching the model's feature count are inference requests
/// (answered within the budget via degraded tiers); rows with one extra
/// trailing column are labeled learning samples. Rows the runtime's
/// sanitizer refuses (NaN/Inf, out-of-range, bad label) are quarantined
/// and counted — the stream keeps flowing. Rows that are not numeric at
/// all abort unless `--skip-bad-rows` quarantines them too.
///
/// With `batch_max > 1`, consecutive inference requests are coalesced
/// into one SIMD-scored batch; labeled rows and end-of-stream flush the
/// queue first, so answers keep their per-row order and every request
/// is scored against the model state it would have seen unbatched.
///
/// With `--shards N > 0` the stream is served by the supervised sharded
/// runtime instead: N panic-isolated worker shards score concurrently
/// against RCU snapshots while a dedicated writer applies the labeled
/// rows; answers are printed in submission order once the stream ends.
fn serve<W: Write>(out: &mut W, args: &ServeArgs) -> CommandResult {
    if args.registry.is_some() && args.shards == 0 {
        return Err("--registry requires the sharded runtime (--shards N > 0)".into());
    }
    if args.tenant_header && args.registry.is_none() {
        return Err("--tenant-header requires --registry".into());
    }
    if args.listen.is_some() && args.shards == 0 {
        return Err("--listen requires the sharded runtime (--shards N > 0)".into());
    }
    let store = CheckpointStore::open(&args.ckpt_dir, args.keep, RetryPolicy::default())?;
    let config = RuntimeConfig {
        checkpoint_every: args.checkpoint_every,
        ..RuntimeConfig::default()
    };
    let runtime = match args.model.as_deref() {
        Some(path) => {
            let pipeline = load_pipeline(path)?;
            let mut rt = OnlineRuntime::new(pipeline, store, config)?;
            rt.checkpoint()?; // make the bootstrap durable before serving
            writeln!(
                out,
                "bootstrapped from {} (generation {})",
                path.display(),
                rt.generation()
            )?;
            rt
        }
        None => {
            let (rt, report) = OnlineRuntime::recover(store, config)?;
            writeln!(
                out,
                "recovered generation {} ({} samples learned) in {:.1} ms; \
                 scanned {} generation(s), rejected {}",
                rt.generation(),
                rt.seen(),
                report.elapsed.as_secs_f64() * 1e3,
                report.scanned,
                report.rejected.len()
            )?;
            rt
        }
    };
    if args.shards > 0 {
        serve_sharded(out, runtime, args)
    } else {
        serve_stream(out, runtime, args)
    }
}

/// Single-threaded streaming serve: one runtime answers and learns in
/// row order, micro-batching consecutive inference requests.
fn serve_stream<W: Write>(
    out: &mut W,
    mut runtime: OnlineRuntime,
    args: &ServeArgs,
) -> CommandResult {
    let budget = (args.budget_us > 0).then(|| Duration::from_micros(args.budget_us));
    let n_features = runtime.pipeline().encoder().spec().n_features();
    let text = read_stream(&args.data)?;
    let mut bad_rows = 0u64;
    let mut batcher = MicroBatcher::new(args.batch_max);
    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_stream_row(line, n_features) {
            Ok(StreamRow::Infer(features)) => {
                if batcher.push(features) {
                    drain_batch(&mut batcher, &mut runtime, budget, out)?;
                }
            }
            Ok(StreamRow::Learn(features, label)) => {
                // A labeled row is an ordering barrier: answer every
                // queued request before learning mutates the model.
                drain_batch(&mut batcher, &mut runtime, budget, out)?;
                match runtime.learn(&features, label) {
                    Ok(_) | Err(RuntimeError::Rejected(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }
            Err(message) => {
                if !args.skip_bad_rows {
                    return Err(format!("line {}: {message}", line_no + 1).into());
                }
                bad_rows += 1;
            }
        }
    }
    drain_batch(&mut batcher, &mut runtime, budget, out)?;

    runtime.checkpoint()?;
    if let Some(path) = &args.dead_letter_out {
        let letters: Vec<_> = runtime.dead_letters().cloned().collect();
        export_dead_letters(out, path, &letters)?;
    }
    let stats = runtime.stats();
    writeln!(out, "stream done: generation {}", runtime.generation())?;
    writeln!(
        out,
        "  learned {} (corrected {}, held out {}), quarantined {}, bad rows {}",
        stats.learned, stats.corrected, stats.held_out, stats.quarantined, bad_rows
    )?;
    writeln!(
        out,
        "  answered {}/{} (degraded {}, deadline misses {}, rejected {})",
        stats.answered, stats.infer_requests, stats.degraded, stats.deadline_misses, stats.rejected
    )?;
    writeln!(
        out,
        "  checkpoints {}, retrains {}, rollbacks {}",
        stats.checkpoints, stats.retrains, stats.rollbacks
    )?;
    let ladder = runtime.ladder();
    let tiers: Vec<String> = ladder
        .tier_dims()
        .iter()
        .zip(ladder.hits())
        .map(|(dims, hits)| format!("{dims}d:{hits}"))
        .collect();
    writeln!(out, "  tier hits: {}", tiers.join(" "))?;
    Ok(())
}

/// Sharded serve: submit the whole stream through the supervised
/// [`Server`], honoring backpressure (a full work queue blocks the
/// submitter, it never drops), then wait for every ticket in submission
/// order so answers print deterministically, and drain.
///
/// Unlike the single-threaded path, labeled rows are *not* strict
/// ordering barriers here: the writer applies them concurrently and
/// readers pick up the new model at the next published snapshot.
fn serve_sharded<W: Write>(out: &mut W, runtime: OnlineRuntime, args: &ServeArgs) -> CommandResult {
    let budget = (args.budget_us > 0).then(|| Duration::from_micros(args.budget_us));
    let n_features = runtime.pipeline().encoder().spec().n_features();
    let config = ServeConfig {
        shards: args.shards,
        batch_max: args.batch_max.max(1),
        ..ServeConfig::default()
    };
    let registry = match &args.registry {
        Some(dir) => {
            let dim = runtime.pipeline().model().dim();
            let registry = std::sync::Arc::new(ModelRegistry::open(
                dir,
                RegistryConfig {
                    dim,
                    ..RegistryConfig::default()
                },
            )?);
            writeln!(
                out,
                "registry {} ({} tenant(s) on disk)",
                dir.display(),
                registry.tenants()?.len()
            )?;
            Some(registry)
        }
        None => None,
    };
    let server = Server::start_with_registry(runtime, config, registry.clone())?;
    let handle = server.handle();

    // The TCP front-end comes up *before* the CSV stream is consumed, so
    // with `--data -` the process serves sockets while it waits for rows
    // on stdin; closing stdin ends the session and drains everything.
    let frontend = match &args.listen {
        Some(addr) => {
            let frontend = NetFrontend::bind(addr, handle.clone())?;
            writeln!(out, "listening on {}", frontend.local_addr())?;
            out.flush()?;
            Some(frontend)
        }
        None => None,
    };
    let text = read_stream(&args.data)?;

    let mut bad_rows = 0u64;
    let mut shed = 0u64;
    let mut quarantined_submit = 0u64;
    let mut tickets: Vec<Ticket> = Vec::new();
    let mut tenant_refused = 0u64;
    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // With --tenant-header the leading cell names the tenant whose
        // mapped model serves this row; the remaining cells are the
        // ordinary stream row.
        let (tenant, row) = if args.tenant_header {
            match line.split_once(',') {
                Some((t, rest)) => (Some(t.trim()), rest),
                None => (Some(line), ""),
            }
        } else {
            (None, line)
        };
        match parse_stream_row(row, n_features) {
            Ok(StreamRow::Infer(features)) => {
                loop {
                    let submitted = match tenant {
                        Some(t) => handle.submit_tenant(t, features.clone(), budget),
                        None => handle.submit(features.clone(), budget),
                    };
                    match submitted {
                        Ok(ticket) => {
                            tickets.push(ticket);
                            break;
                        }
                        Err(SubmitError::QueueFull) => {
                            // Backpressure: the stream source waits
                            // rather than dropping the request.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(SubmitError::DeadlineHopeless { .. }) => {
                            shed += 1;
                            break;
                        }
                        Err(SubmitError::Rejected(_)) => {
                            quarantined_submit += 1;
                            break;
                        }
                        Err(SubmitError::TenantUnavailable { .. }) => {
                            // An unknown or quarantined tenant sheds its
                            // own rows; the stream keeps flowing.
                            tenant_refused += 1;
                            break;
                        }
                        Err(e @ (SubmitError::Unavailable | SubmitError::ShuttingDown)) => {
                            return Err(format!("line {}: {e}", line_no + 1).into());
                        }
                    }
                }
            }
            Ok(StreamRow::Learn(features, label)) => loop {
                match handle.submit_learn(features.clone(), label) {
                    Ok(()) => break,
                    Err(SubmitError::QueueFull) => {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(SubmitError::Rejected(_)) => {
                        quarantined_submit += 1;
                        break;
                    }
                    Err(e) => return Err(format!("line {}: {e}", line_no + 1).into()),
                }
            },
            Err(message) => {
                if !args.skip_bad_rows {
                    return Err(format!("line {}: {message}", line_no + 1).into());
                }
                bad_rows += 1;
            }
        }
    }

    // Redeem tickets in submission order so output is deterministic.
    let mut canceled = 0u64;
    for ticket in tickets {
        match ticket.wait() {
            Ok(answer) => writeln!(out, "{}", answer.label)?,
            Err(ServeError::Rejected(_)) => {}
            Err(ServeError::Canceled) => canceled += 1,
        }
    }

    // Close the socket front-end (clients get a final GOODBYE frame)
    // before the drain tears down the shard queues beneath it.
    if let Some(frontend) = frontend {
        let net = frontend.shutdown();
        writeln!(
            out,
            "  net: {} connection(s), {} frame(s) in, answered {}, refused {}, malformed {}",
            net.connections, net.frames_received, net.answered, net.refused, net.malformed
        )?;
        if net.latency.count > 0 {
            writeln!(
                out,
                "  net latency: p50 {} us, p99 {} us, p999 {} us, max {} us",
                net.latency.p50_us, net.latency.p99_us, net.latency.p999_us, net.latency.max_us
            )?;
        }
    }

    let report = server.drain()?;
    if let Some(path) = &args.dead_letter_out {
        export_dead_letters(out, path, &report.dead_letters)?;
    }
    write_drain_report(out, &report, bad_rows, shed, quarantined_submit, canceled)?;
    if let Some(registry) = &registry {
        let stats = registry.stats();
        writeln!(
            out,
            "  registry: hits {}, cold loads {}, evictions {}, swaps {}, \
             quarantined {}, refused rows {}, resident {} B",
            stats.hits,
            stats.cold_loads,
            stats.evictions,
            stats.swaps,
            stats.quarantines,
            tenant_refused,
            registry.resident_bytes()
        )?;
        writeln!(
            out,
            "  ledger: publish retries {}, rollbacks {}, recoveries {}, tmp sweeps {}",
            stats.publish_retries, stats.rollbacks, stats.recoveries, stats.tmp_sweeps
        )?;
    }
    Ok(())
}

/// Prints the post-drain accounting for the sharded path in the same
/// style as the single-threaded stream summary.
fn write_drain_report<W: Write>(
    out: &mut W,
    report: &generic_hdc::DrainReport,
    bad_rows: u64,
    shed: u64,
    quarantined_submit: u64,
    canceled: u64,
) -> CommandResult {
    let serve = &report.serve;
    let writer = &report.writer;
    let workers = &report.workers;
    writeln!(
        out,
        "drained: generation {} (final checkpoint {})",
        report.generation,
        if report.final_checkpoint_ok {
            "ok"
        } else {
            "FAILED"
        }
    )?;
    writeln!(
        out,
        "  admitted {}/{} (queue-full {}, deadline-shed {}, malformed {}, bad rows {})",
        serve.admitted,
        serve.submitted,
        serve.rejected_queue_full,
        serve.rejected_deadline + shed,
        serve.rejected_malformed + quarantined_submit,
        bad_rows
    )?;
    writeln!(
        out,
        "  answered {} (degraded {}, deadline misses {}, canceled {})",
        workers.answered, workers.degraded, workers.deadline_misses, canceled
    )?;
    writeln!(
        out,
        "  learned {} (corrected {}, held out {}), quarantined {}, checkpoints {} (retries {})",
        writer.learned,
        writer.corrected,
        writer.held_out,
        writer.quarantined,
        writer.checkpoints,
        writer.checkpoint_retries
    )?;
    writeln!(
        out,
        "  supervision: panics {}, restarts {}, requeued {}, steals {}, circuit opens {}, \
         writer stalls {}",
        serve.shard_panics,
        serve.shard_restarts,
        serve.requeued,
        workers.steals,
        serve.circuit_opens,
        serve.writer_stalls
    )?;
    Ok(())
}

/// Writes the quarantine buffer as a dead-letter CSV (round-trippable
/// via `read_dead_letters_csv`).
fn export_dead_letters<W: Write>(
    out: &mut W,
    path: &Path,
    letters: &[generic_hdc::runtime::DeadLetter],
) -> CommandResult {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut writer = BufWriter::new(file);
    let n = generic_hdc::runtime::write_dead_letters_csv(&mut writer, letters)?;
    writer.flush()?;
    writeln!(out, "exported {n} dead letter(s) to {}", path.display())?;
    Ok(())
}

/// Flushes the micro-batch scheduler, printing answers in push order.
/// Per-row soft failures (quarantined requests) are silent,
/// exactly as in unbatched serving; hard runtime errors abort.
fn drain_batch<W: Write>(
    batcher: &mut MicroBatcher,
    runtime: &mut OnlineRuntime,
    budget: Option<Duration>,
    out: &mut W,
) -> CommandResult {
    for result in batcher.flush(runtime, budget) {
        match result {
            Ok(answer) => writeln!(out, "{}", answer.label)?,
            Err(RuntimeError::Rejected(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// One parsed stream row for `serve`.
enum StreamRow {
    /// An inference request (feature-count cells).
    Infer(Vec<f64>),
    /// A labeled learning sample (feature-count + 1 cells).
    Learn(Vec<f64>, usize),
}

/// Splits a stream row into features (and a trailing label when
/// present). Non-finite values pass through on purpose — the runtime's
/// sanitizer quarantines them, which is the behavior under test.
fn parse_stream_row(line: &str, n_features: usize) -> Result<StreamRow, String> {
    let cells: Vec<&str> = line.split(',').map(str::trim).collect();
    if cells.len() == n_features + 1 {
        let label: usize = cells[n_features].parse().map_err(|_| {
            format!(
                "label `{}` is not a non-negative integer",
                cells[n_features]
            )
        })?;
        let features = parse_cells(&cells[..n_features])?;
        Ok(StreamRow::Learn(features, label))
    } else if cells.len() == n_features {
        Ok(StreamRow::Infer(parse_cells(&cells)?))
    } else {
        Err(format!(
            "expected {n_features} or {} columns, found {}",
            n_features + 1,
            cells.len()
        ))
    }
}

fn parse_cells(cells: &[&str]) -> Result<Vec<f64>, String> {
    cells
        .iter()
        .map(|cell| {
            cell.parse()
                .map_err(|_| format!("`{cell}` is not a number"))
        })
        .collect()
}

/// Reads the stream source: a file path, or stdin for `-`.
fn read_stream(data: &Path) -> Result<String, Box<dyn Error>> {
    if data.as_os_str() == "-" {
        let mut text = String::new();
        std::io::stdin().read_to_string(&mut text)?;
        Ok(text)
    } else {
        Ok(std::fs::read_to_string(data)
            .map_err(|e| format!("cannot read {}: {e}", data.display()))?)
    }
}

fn report_skipped<W: Write>(report: &csv::CsvReport, out: &mut W) -> std::io::Result<()> {
    if !report.skipped.is_empty() {
        writeln!(
            out,
            "skipped {} malformed row(s); first: {}",
            report.skipped.len(),
            report.skipped[0]
        )?;
    }
    Ok(())
}

fn load_pipeline(path: &Path) -> Result<HdcPipeline, Box<dyn Error>> {
    let file =
        File::open(path).map_err(|e| format!("cannot open model {}: {e}", path.display()))?;
    Ok(HdcPipeline::read_from(BufReader::new(file))?)
}
