//! End-to-end CLI tests: train → info → predict → cluster against real
//! temp files, driving the same `run` entry point as the binary.

use std::fmt::Write as _;
use std::path::PathBuf;

use generic_cli::run;

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Writes a small separable 3-class CSV and returns its path.
fn write_dataset(dir: &std::path::Path, name: &str, labeled: bool) -> PathBuf {
    let mut text = String::from("# synthetic three-band data\n");
    for i in 0..90 {
        let class = i % 3;
        for j in 0..9 {
            let band = j / 3;
            let v = if band == class { 8.0 } else { 1.0 } + ((i * 3 + j) % 4) as f64 * 0.15;
            let _ = write!(text, "{v:.3},");
        }
        if labeled {
            let _ = writeln!(text, "{class}");
        } else {
            text.pop(); // trailing comma
            text.push('\n');
        }
    }
    let path = dir.join(name);
    std::fs::write(&path, text).expect("temp dir is writable");
    path
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("generic-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    dir
}

#[test]
fn train_info_predict_round_trip() {
    let dir = temp_dir("round-trip");
    let train_csv = write_dataset(&dir, "train.csv", true);
    let model = dir.join("model.ghdc");

    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "train",
            "--data",
            train_csv.to_str().expect("utf-8 path"),
            "--out",
            model.to_str().expect("utf-8 path"),
            "--dim",
            "1024",
            "--epochs",
            "10",
        ]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "train failed: {text}");
    assert!(text.contains("trained on 90 samples"), "{text}");
    assert!(model.exists());

    let mut out = Vec::new();
    let code = run(
        &argv(&["info", "--model", model.to_str().expect("utf-8 path")]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("dimensions:  1024"), "{text}");
    assert!(text.contains("classes:     3"), "{text}");

    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "predict",
            "--model",
            model.to_str().expect("utf-8 path"),
            "--data",
            train_csv.to_str().expect("utf-8 path"),
            "--labeled",
        ]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "{text}");
    let accuracy_line = text
        .lines()
        .find(|l| l.starts_with("accuracy:"))
        .expect("accuracy line present");
    assert!(accuracy_line.contains("100.0%"), "{accuracy_line}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_reports_nmi_for_labeled_data() {
    let dir = temp_dir("cluster");
    let csv = write_dataset(&dir, "points.csv", true);

    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "cluster",
            "--data",
            csv.to_str().expect("utf-8 path"),
            "--k",
            "3",
            "--dim",
            "1024",
            "--labeled",
        ]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("clustered 90 points into 3 groups"), "{text}");
    let nmi_line = text
        .lines()
        .find(|l| l.starts_with("NMI"))
        .expect("NMI line present");
    let nmi: f64 = nmi_line
        .rsplit(' ')
        .next()
        .expect("value present")
        .parse()
        .expect("numeric NMI");
    assert!(nmi > 0.9, "NMI too low: {nmi}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_streams_learns_and_survives_restart() {
    let dir = temp_dir("serve");
    let train_csv = write_dataset(&dir, "train.csv", true);
    let model = dir.join("model.ghdc");
    let ckpt_dir = dir.join("ckpts");

    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "train",
            "--data",
            train_csv.to_str().expect("utf-8 path"),
            "--out",
            model.to_str().expect("utf-8 path"),
            "--dim",
            "1024",
        ]),
        &mut out,
    );
    assert_eq!(code, 0);

    // An interleaved stream: learning rows (10 cols), inference rows
    // (9 cols), a NaN row the runtime must quarantine, and a ragged row
    // that --skip-bad-rows must absorb.
    let stream = dir.join("stream.csv");
    let mut text = String::new();
    for i in 0..30 {
        let class = i % 3;
        for j in 0..9 {
            let band = j / 3;
            let v = if band == class { 8.0 } else { 1.0 };
            let _ = write!(text, "{v:.1},");
        }
        if i % 5 == 0 {
            text.pop();
            text.push('\n'); // inference request
        } else {
            let _ = writeln!(text, "{class}"); // learning sample
        }
    }
    text.push_str("nan,1,1,1,1,1,1,1,1,0\n"); // quarantined by the runtime
    text.push_str("1,2,3\n"); // ragged: needs --skip-bad-rows
    std::fs::write(&stream, text).expect("temp dir is writable");

    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "serve",
            "--ckpt-dir",
            ckpt_dir.to_str().expect("utf-8 path"),
            "--data",
            stream.to_str().expect("utf-8 path"),
            "--model",
            model.to_str().expect("utf-8 path"),
            "--checkpoint-every",
            "8",
            "--skip-bad-rows",
        ]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "serve failed: {text}");
    assert!(text.contains("bootstrapped from"), "{text}");
    assert!(text.contains("quarantined 1, bad rows 1"), "{text}");
    assert!(text.contains("stream done"), "{text}");

    // Restart without --model: the runtime must recover from the newest
    // checkpoint generation and keep serving.
    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "serve",
            "--ckpt-dir",
            ckpt_dir.to_str().expect("utf-8 path"),
            "--data",
            stream.to_str().expect("utf-8 path"),
            "--skip-bad-rows",
        ]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "recovery serve failed: {text}");
    assert!(text.contains("recovered generation"), "{text}");

    // The checkpoint directory is a ledger: the registry admin verbs
    // check it and list its retained generations.
    let ckpt = ckpt_dir.to_str().expect("utf-8 path");
    let mut out = Vec::new();
    let code = run(&argv(&["registry", "fsck", "--dir", ckpt]), &mut out);
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "fsck failed: {text}");
    assert!(text.contains("fsck: healthy"), "{text}");
    let mut out = Vec::new();
    let code = run(
        &argv(&["registry", "history", "--dir", ckpt, "--tenant", "ckpt"]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "history failed: {text}");
    let mut on_disk: Vec<String> = std::fs::read_dir(&ckpt_dir)
        .expect("checkpoint dir readable")
        .filter_map(|e| {
            let name = e.expect("entry readable").file_name();
            let gen = name
                .to_str()?
                .strip_prefix("ckpt.")?
                .strip_suffix(".ghdc")?;
            Some(gen.to_owned())
        })
        .collect();
    on_disk.sort_by_key(|g| g[1..].parse::<u64>().expect("numbered generation"));
    let listed: Vec<String> = text
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next().map(str::to_owned))
        .collect();
    assert!(!listed.is_empty(), "{text}");
    assert_eq!(listed, on_disk, "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_serve_answers_and_exports_dead_letters() {
    let dir = temp_dir("serve-sharded");
    let train_csv = write_dataset(&dir, "train.csv", true);
    let model = dir.join("model.ghdc");
    let ckpt_dir = dir.join("ckpts");
    let dead_letters = dir.join("quarantine.csv");

    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "train",
            "--data",
            train_csv.to_str().expect("utf-8 path"),
            "--out",
            model.to_str().expect("utf-8 path"),
            "--dim",
            "1024",
        ]),
        &mut out,
    );
    assert_eq!(code, 0);

    // Interleaved stream with one quarantined row (NaN label row) and
    // one ragged row absorbed by --skip-bad-rows.
    let stream = dir.join("stream.csv");
    let mut text = String::new();
    let mut inferences = 0usize;
    for i in 0..40 {
        let class = i % 3;
        for j in 0..9 {
            let band = j / 3;
            let v = if band == class { 8.0 } else { 1.0 };
            let _ = write!(text, "{v:.1},");
        }
        if i % 4 == 0 {
            text.pop();
            text.push('\n');
            inferences += 1;
        } else {
            let _ = writeln!(text, "{class}");
        }
    }
    text.push_str("nan,1,1,1,1,1,1,1,1,0\n"); // writer quarantines this
    text.push_str("1,2,3\n"); // ragged
    std::fs::write(&stream, text).expect("temp dir is writable");

    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "serve",
            "--ckpt-dir",
            ckpt_dir.to_str().expect("utf-8 path"),
            "--data",
            stream.to_str().expect("utf-8 path"),
            "--model",
            model.to_str().expect("utf-8 path"),
            "--shards",
            "2",
            "--dead-letter-out",
            dead_letters.to_str().expect("utf-8 path"),
            "--skip-bad-rows",
        ]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "sharded serve failed: {text}");
    assert!(text.contains("drained: generation"), "{text}");
    assert!(text.contains("final checkpoint ok"), "{text}");
    assert!(text.contains("supervision: panics 0"), "{text}");

    // Every inference row printed one predicted label, in order.
    let answers: Vec<&str> = text
        .lines()
        .filter(|l| l.len() == 1 && l.chars().all(|c| c.is_ascii_digit()))
        .collect();
    assert_eq!(answers.len(), inferences, "{text}");

    // The dead-letter export exists and round-trips losslessly.
    let csv = std::fs::read_to_string(&dead_letters).expect("export written");
    let letters = generic_hdc::runtime::read_dead_letters_csv(&csv).expect("valid CSV");
    assert_eq!(letters.len(), 1, "{csv}");
    assert!(letters[0].features[0].is_nan());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn skip_bad_rows_quarantines_malformed_training_rows() {
    let dir = temp_dir("skip-bad");
    let train_csv = write_dataset(&dir, "train.csv", true);
    // Poison the file with malformed rows.
    let mut text = std::fs::read_to_string(&train_csv).expect("readable");
    text.push_str("not,a,number,at,all,x,y,z,w,0\n");
    text.push_str("1,2\n");
    std::fs::write(&train_csv, text).expect("writable");
    let model = dir.join("model.ghdc");

    // Strict mode fails with line context.
    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "train",
            "--data",
            train_csv.to_str().expect("utf-8 path"),
            "--out",
            model.to_str().expect("utf-8 path"),
            "--dim",
            "512",
        ]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("line 92"), "{text}");

    // Tolerant mode trains on the clean rows and reports the skips.
    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "train",
            "--data",
            train_csv.to_str().expect("utf-8 path"),
            "--out",
            model.to_str().expect("utf-8 path"),
            "--dim",
            "512",
            "--skip-bad-rows",
        ]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("skipped 2 malformed row(s)"), "{text}");
    assert!(text.contains("trained on 90 samples"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_prints_help_and_fails() {
    let mut out = Vec::new();
    let code = run(&argv(&["frobnicate"]), &mut out);
    assert_eq!(code, 2);
    let text = String::from_utf8(out).expect("utf-8 output");
    assert!(text.contains("USAGE"), "{text}");

    let mut out = Vec::new();
    let code = run(&argv(&["--help"]), &mut out);
    assert_eq!(code, 0);
}

#[test]
fn missing_files_are_reported_not_panicked() {
    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "predict",
            "--model",
            "/nonexistent.ghdc",
            "--data",
            "/nonexistent.csv",
        ]),
        &mut out,
    );
    assert_eq!(code, 1);
    let text = String::from_utf8(out).expect("utf-8 output");
    assert!(text.contains("error:"), "{text}");
}

#[test]
fn sharded_serve_routes_tenant_rows_through_the_registry() {
    use generic_hdc::{HdcPipeline, ModelRegistry, QuantizedModel, RegistryConfig};

    let dir = temp_dir("serve-tenant");
    let train_csv = write_dataset(&dir, "train.csv", true);
    let model = dir.join("model.ghdc");
    let ckpt_dir = dir.join("ckpts");
    let registry_dir = dir.join("tenants");

    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "train",
            "--data",
            train_csv.to_str().expect("utf-8 path"),
            "--out",
            model.to_str().expect("utf-8 path"),
            "--dim",
            "1024",
        ]),
        &mut out,
    );
    assert_eq!(code, 0);

    // Publish the trained class memory for one tenant (the registry
    // shares the serving encoder, so dims line up by construction).
    let pipeline = {
        let file = std::fs::File::open(&model).expect("model written");
        HdcPipeline::read_from(std::io::BufReader::new(file)).expect("model parses")
    };
    let registry = ModelRegistry::open(
        &registry_dir,
        RegistryConfig {
            dim: 1024,
            ..RegistryConfig::default()
        },
    )
    .expect("registry opens");
    let quantized = QuantizedModel::from_model(pipeline.model(), 8).expect("valid width");
    registry.publish("acme", &quantized).expect("publish");
    drop(registry);

    // Tenant-prefixed inference rows; one row names an unknown tenant
    // (shed, counted) and plain rows would be rejected by --tenant-header
    // parsing so all rows carry a tenant cell.
    let stream = dir.join("stream.csv");
    let mut text = String::new();
    let mut served = 0usize;
    for i in 0..12 {
        let tenant = if i == 5 { "ghost" } else { "acme" };
        let class = i % 3;
        let _ = write!(text, "{tenant},");
        for j in 0..9 {
            let band = j / 3;
            let v = if band == class { 8.0 } else { 1.0 };
            let _ = write!(text, "{v:.1},");
        }
        text.pop();
        text.push('\n');
        if tenant == "acme" {
            served += 1;
        }
    }
    std::fs::write(&stream, text).expect("temp dir is writable");

    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "serve",
            "--ckpt-dir",
            ckpt_dir.to_str().expect("utf-8 path"),
            "--data",
            stream.to_str().expect("utf-8 path"),
            "--model",
            model.to_str().expect("utf-8 path"),
            "--shards",
            "2",
            "--registry",
            registry_dir.to_str().expect("utf-8 path"),
            "--tenant-header",
        ]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "tenant serve failed: {text}");
    assert!(text.contains("registry "), "{text}");
    assert!(text.contains("1 tenant(s) on disk"), "{text}");
    assert!(text.contains("refused rows 1"), "{text}");

    let answers: Vec<&str> = text
        .lines()
        .filter(|l| l.len() == 1 && l.chars().all(|c| c.is_ascii_digit()))
        .collect();
    assert_eq!(answers.len(), served, "{text}");

    // Registry without shards (or tenant-header without registry) is a
    // configuration error, not a silent fallback.
    let mut out = Vec::new();
    let code = run(
        &argv(&[
            "serve",
            "--ckpt-dir",
            ckpt_dir.to_str().expect("utf-8 path"),
            "--data",
            stream.to_str().expect("utf-8 path"),
            "--registry",
            registry_dir.to_str().expect("utf-8 path"),
        ]),
        &mut out,
    );
    assert_ne!(code, 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_admin_round_trip_pins_golden_output() {
    use generic_hdc::{BinaryHv, HdcModel, IntHv, ModelRegistry, QuantizedModel, RegistryConfig};

    let dir = temp_dir("registry-admin");
    let reg_dir = dir.join("tenants");
    std::fs::remove_dir_all(&reg_dir).ok();

    // Publish two generations of the same-shaped model so both images
    // have identical, deterministic sizes.
    let model = |seed: u64| {
        let encoded: Vec<IntHv> = (0..3)
            .map(|c| IntHv::from(BinaryHv::random_seeded(256, seed * 31 + c).unwrap()))
            .collect();
        let trained = HdcModel::fit(&encoded, &[0, 1, 2], 3).unwrap();
        QuantizedModel::from_model(&trained, 8).unwrap()
    };
    let first = model(1);
    let registry = ModelRegistry::open(
        &reg_dir,
        RegistryConfig {
            dim: 256,
            ..RegistryConfig::default()
        },
    )
    .expect("registry dir is creatable");
    registry.publish("acme", &first).unwrap();
    registry.publish("acme", &model(2)).unwrap();
    drop(registry);

    let mut bytes = Vec::new();
    generic_hdc::io::write_packed(&first, &mut bytes).unwrap();
    let size = format!("{} B", bytes.len());
    let reg = reg_dir.to_str().expect("utf-8 path");

    // Golden: `registry history` output is pinned byte-for-byte.
    let mut out = Vec::new();
    let code = run(
        &argv(&["registry", "history", "--dir", reg, "--tenant", "acme"]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "{text}");
    let expected = format!(
        "tenant acme: 2 generation(s)\n  g{:<4} {:>10}\n  g{:<4} {:>10}  (live)\n",
        1, size, 2, size
    );
    assert_eq!(text, expected);

    // Rollback to the previous generation, then history shows g1 live.
    let mut out = Vec::new();
    let code = run(
        &argv(&["registry", "rollback", "--dir", reg, "--tenant", "acme"]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "{text}");
    assert_eq!(text, "tenant acme: live generation is now g1\n");

    let mut out = Vec::new();
    let code = run(
        &argv(&["registry", "history", "--dir", reg, "--tenant", "acme"]),
        &mut out,
    );
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "{text}");
    let expected = format!(
        "tenant acme: 2 generation(s)\n  g{:<4} {:>10}  (live)\n  g{:<4} {:>10}\n",
        1, size, 2, size
    );
    assert_eq!(text, expected);

    // Fsck reports both generations healthy.
    let mut out = Vec::new();
    let code = run(&argv(&["registry", "fsck", "--dir", reg]), &mut out);
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "{text}");
    assert_eq!(
        text,
        "tenant acme g1 (live): ok\ntenant acme g2: ok\nfsck: healthy\n"
    );

    // A planted staging orphan is swept by the open-time recovery scan,
    // leaving gc itself nothing to remove — both counts are reported.
    std::fs::write(reg_dir.join("acme.g9.ghdc.tmp"), b"torn").unwrap();
    let mut out = Vec::new();
    let code = run(&argv(&["registry", "gc", "--dir", reg]), &mut out);
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_eq!(code, 0, "{text}");
    assert_eq!(
        text,
        "recovery: swept 1 orphaned staging file(s)\ngc: removed 0 unreferenced file(s)\n"
    );

    // Corrupting the live image makes fsck fail loudly.
    let live = reg_dir.join("acme.g1.ghdc");
    let mut image = std::fs::read(&live).unwrap();
    let mid = image.len() / 2;
    image[mid] ^= 0x40;
    std::fs::write(&live, image).unwrap();
    let mut out = Vec::new();
    let code = run(&argv(&["registry", "fsck", "--dir", reg]), &mut out);
    let text = String::from_utf8(out).expect("utf-8 output");
    assert_ne!(code, 0, "{text}");
    assert!(text.contains("tenant acme g1 (live): BAD"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}
