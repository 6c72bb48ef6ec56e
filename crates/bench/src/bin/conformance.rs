//! Cross-layer differential conformance runner: fuzzes N seeded
//! end-to-end scenarios through every fast-kernel / scalar-oracle pair
//! (encoding, retraining, scoring, quantized scoring, resilient
//! inference, checkpoint/restore, simulator scores and activity) and
//! writes `BENCH_conformance.json`.
//!
//! Gates (enforced in both modes — these are correctness, not perf):
//! - zero divergences across all scenarios,
//! - every registered stage exercised at least once,
//! - the mutation self-check: a deliberately injected encoder bug is
//!   caught and shrunk to ≤ 8 samples × ≤ 256 dims.
//!
//! Any real divergence is shrunk to a minimal reproducer and emitted as
//! a `#[test]`-ready fixture under `conformance_fixtures/`; its replay
//! token also drives `generic conformance --replay <token>`.
//!
//! Usage: `cargo run -p generic-bench --release --bin conformance
//! [seed] [--smoke]`

use std::path::Path;
use std::time::Instant;

use generic_bench::cli;
use generic_bench::report::render_table;
use generic_conformance::oracle::StageKind;
use generic_conformance::{
    run_scenario, run_scenario_mutated, shrink, Mutation, Scenario, ShrinkOutcome,
};

/// Scenario counts: the full run satisfies the ≥200 acceptance floor.
const FULL_SCENARIOS: usize = 200;
const SMOKE_SCENARIOS: usize = 24;

/// The mutation self-check must shrink its reproducer at least this far.
const SELF_CHECK_MAX_SAMPLES: usize = 8;
const SELF_CHECK_MAX_DIM: usize = 256;

struct DivergenceRecord {
    token: String,
    stage: &'static str,
    kernel: String,
    detail: String,
    minimized_token: String,
    shrink_attempts: u64,
    shrink_accepted: u64,
    fixture: String,
}

fn main() {
    let seed = cli::seed_arg(42);
    let smoke = cli::smoke_flag();
    let n_scenarios = if smoke {
        SMOKE_SCENARIOS
    } else {
        FULL_SCENARIOS
    };
    println!(
        "conformance: scenarios={n_scenarios} seed={seed} mode={}",
        if smoke { "smoke" } else { "full" }
    );

    let started = Instant::now();
    let mut coverage = vec![0u64; StageKind::ALL.len()];
    let mut divergences: Vec<DivergenceRecord> = Vec::new();
    let fixture_dir = Path::new("conformance_fixtures");
    for i in 0..n_scenarios {
        let scenario = Scenario::generate(seed.wrapping_add(i as u64));
        let report = run_scenario(&scenario);
        for (slot, &(_, checks)) in coverage.iter_mut().zip(&report.coverage) {
            *slot += checks;
        }
        if let Some(divergence) = report.divergence {
            eprintln!("DIVERGENCE in scenario {}: {divergence}", scenario.token());
            let outcome = shrink(&scenario, Mutation::None, &divergence);
            let fixture = generic_conformance::write_fixture(
                fixture_dir,
                &outcome.minimized,
                &outcome.divergence,
            )
            .map(|p| p.display().to_string())
            .unwrap_or_else(|e| format!("<fixture write failed: {e}>"));
            eprintln!(
                "  shrunk to {} (fixture: {fixture})",
                outcome.minimized.token()
            );
            divergences.push(DivergenceRecord {
                token: scenario.token(),
                stage: outcome.divergence.stage.name(),
                kernel: outcome.divergence.kernel.clone(),
                detail: outcome.divergence.detail.clone(),
                minimized_token: outcome.minimized.token(),
                shrink_attempts: outcome.attempts,
                shrink_accepted: outcome.accepted,
                fixture,
            });
        }
    }
    let scenario_secs = started.elapsed().as_secs_f64();

    // Mutation self-check: the harness itself must be able to catch and
    // shrink a real kernel bug, otherwise "zero divergences" means
    // nothing.
    let self_check = mutation_self_check(seed);
    let total_checks: u64 = coverage.iter().sum();

    let header: Vec<String> = ["stage", "checks"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let rows: Vec<Vec<String>> = StageKind::ALL
        .iter()
        .zip(&coverage)
        .map(|(stage, &checks)| vec![stage.name().to_string(), checks.to_string()])
        .collect();
    println!("\n{}", render_table(&header, &rows));
    println!(
        "{n_scenarios} scenarios, {total_checks} boundary checks, {} divergences, {scenario_secs:.1}s",
        divergences.len()
    );
    println!(
        "mutation self-check: caught at {}/{}, shrunk to {} samples × {} dims \
         ({} attempts, {} accepted)",
        self_check.divergence.stage,
        self_check.divergence.kernel,
        self_check.minimized.n_samples,
        self_check.minimized.dim,
        self_check.attempts,
        self_check.accepted
    );

    let json = render_json(
        seed,
        smoke,
        n_scenarios,
        scenario_secs,
        &coverage,
        &divergences,
        &self_check,
    );
    generic_bench::report::write_record("conformance", smoke, &json);

    let mut failed = false;
    if !divergences.is_empty() {
        eprintln!(
            "GATE FAILED: {} divergences (reproducers under {})",
            divergences.len(),
            fixture_dir.display()
        );
        failed = true;
    }
    if let Some(stage) = StageKind::ALL
        .iter()
        .zip(&coverage)
        .find(|(_, &checks)| checks == 0)
    {
        eprintln!("GATE FAILED: stage {} was never exercised", stage.0);
        failed = true;
    }
    if self_check.minimized.n_samples > SELF_CHECK_MAX_SAMPLES
        || self_check.minimized.dim > SELF_CHECK_MAX_DIM
    {
        eprintln!(
            "GATE FAILED: mutation self-check only shrank to {} samples × {} dims \
             (need ≤ {SELF_CHECK_MAX_SAMPLES} × ≤ {SELF_CHECK_MAX_DIM})",
            self_check.minimized.n_samples, self_check.minimized.dim
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("all gates passed");
}

/// Injects a known encoder bug, asserts the harness reports it at the
/// encode boundary, and shrinks it. Exits nonzero if the bug sails
/// through undetected.
fn mutation_self_check(seed: u64) -> ShrinkOutcome {
    let scenario = Scenario::generate(seed ^ 0x5E1F_C4EC);
    let report = run_scenario_mutated(&scenario, Mutation::EncodeBitFlip);
    let Some(divergence) = report.divergence else {
        eprintln!("GATE FAILED: injected encoder bug was not detected");
        std::process::exit(1);
    };
    if divergence.stage != StageKind::Encode {
        eprintln!(
            "GATE FAILED: injected encoder bug surfaced at stage {} instead of encode",
            divergence.stage
        );
        std::process::exit(1);
    }
    shrink(&scenario, Mutation::EncodeBitFlip, &divergence)
}

fn render_json(
    seed: u64,
    smoke: bool,
    n_scenarios: usize,
    scenario_secs: f64,
    coverage: &[u64],
    divergences: &[DivergenceRecord],
    self_check: &ShrinkOutcome,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"conformance-v1\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"scenarios\": {n_scenarios},\n"));
    out.push_str(&format!("  \"elapsed_s\": {scenario_secs:.3},\n"));
    out.push_str(&format!(
        "  \"total_checks\": {},\n",
        coverage.iter().sum::<u64>()
    ));
    out.push_str("  \"stage_coverage\": {\n");
    for (i, (stage, &checks)) in StageKind::ALL.iter().zip(coverage).enumerate() {
        out.push_str(&format!(
            "    \"{}\": {checks}{}\n",
            stage.name(),
            if i + 1 < StageKind::ALL.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"divergences\": [\n");
    for (i, d) in divergences.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"token\": \"{}\", \"stage\": \"{}\", \"kernel\": \"{}\", \
             \"detail\": \"{}\", \"minimized_token\": \"{}\", \
             \"shrink_attempts\": {}, \"shrink_accepted\": {}, \"fixture\": \"{}\"}}{}\n",
            d.token,
            d.stage,
            d.kernel,
            json_escape(&d.detail),
            d.minimized_token,
            d.shrink_attempts,
            d.shrink_accepted,
            json_escape(&d.fixture),
            if i + 1 < divergences.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"mutation_self_check\": {{\"stage\": \"{}\", \"kernel\": \"{}\", \
         \"initial_token\": \"{}\", \"minimized_token\": \"{}\", \
         \"minimized_samples\": {}, \"minimized_dim\": {}, \
         \"shrink_attempts\": {}, \"shrink_accepted\": {}}}\n",
        self_check.divergence.stage.name(),
        self_check.divergence.kernel,
        self_check.initial.token(),
        self_check.minimized.token(),
        self_check.minimized.n_samples,
        self_check.minimized.dim,
        self_check.attempts,
        self_check.accepted
    ));
    out.push_str("}\n");
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
