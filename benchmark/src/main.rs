//! `benchmark`: the end-to-end benchmark of `generic serve --listen`.
//!
//! ```text
//! benchmark run (--workload NAME | --all) [--seed N] [--seconds S]
//!               [--trace [0|1]] [--smoke] [--out DIR]
//! benchmark compare BASE.json... -- CHANGE.json... [--benchmark-json PATH]
//! ```
//!
//! `run` builds the workspace's `generic` binary, trains and serves each
//! workload through it as child processes, drives the server over GNET
//! frames, checks the answers, and prints one `workload metric value
//! unit` line per metric, then a JSON summary as the last line. See
//! README.md for the workloads, the metrics and how to compare runs.

mod compare;
mod json;
mod loadgen;
mod procfs;
mod replay;
mod report;
mod run;
mod server;
mod stats;
mod tenants;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{metrics_json, Machine};
use run::Outcome;
use workload::{Workload, WORKLOADS};

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

const USAGE: &str = "\
usage: benchmark run (--workload NAME | --all) [--seed N] [--seconds S]
                     [--trace [0|1]] [--smoke] [--out DIR]
       benchmark compare BASE.json... -- CHANGE.json... [--benchmark-json PATH]
workloads: isolet-shared, page-tiny, isolet-learn, tenants-zipf";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok((workloads, opts)) => match execute(&workloads, &opts) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") => match compare::main(&args[1..]) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse_run(args: &[String]) -> Result<(Vec<&'static Workload>, run::Options), String> {
    let mut workloads = Vec::new();
    let mut opts = run::Options {
        seed: 42,
        seconds: 22.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/benchmark"),
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                let name = value(i)?;
                workloads.push(workload::find(name).ok_or(format!("unknown workload `{name}`"))?);
                i += 1;
            }
            "--all" => workloads.extend(WORKLOADS.iter()),
            "--seed" => {
                opts.seed = value(i)?.parse().map_err(|_| "--seed expects an integer")?;
                i += 1;
            }
            "--seconds" => {
                opts.seconds = value(i)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds expects a positive number")?;
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    opts.trace = true;
                    i += 1;
                }
                _ => opts.trace = true,
            },
            "--smoke" => opts.smoke = true,
            "--out" => {
                opts.out = PathBuf::from(value(i)?);
                i += 1;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if workloads.is_empty() {
        return Err("name a --workload or pass --all".to_owned());
    }
    Ok((workloads, opts))
}

/// Runs every workload; returns whether every run was valid.
fn execute(workloads: &[&'static Workload], opts: &run::Options) -> BenchResult<bool> {
    let generic = server::build_generic()?;
    std::fs::create_dir_all(&opts.out)?;
    let machine = Machine::detect();
    let mut outcomes = Vec::new();
    for &w in workloads {
        let outcome = run::run_workload(w, opts, &generic, &machine)?;
        print_outcome(&outcome);
        write_result(&opts.out, &outcome)?;
        outcomes.push(outcome);
    }
    // A single workload's metrics keep their own names; `--all`
    // prefixes each with its workload.
    let prefix = |o: &Outcome| {
        if outcomes.len() == 1 {
            String::new()
        } else {
            format!("{}.", o.workload)
        }
    };
    let correct = outcomes.iter().all(|o| o.failures.is_empty());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics_json(outcomes.iter().flat_map(|o| {
            o.metrics
                .iter()
                .map(move |m| (format!("{}{}", prefix(o), m.name), m))
        }))
    );
    Ok(correct)
}

fn print_outcome(o: &Outcome) {
    o.header.print(o.workload);
    for (key, value) in &o.diagnostics {
        println!("# {} {key} {value}", o.workload);
    }
    for m in &o.metrics {
        println!("{} {} {} {}", o.workload, m.name, m.value, m.unit);
    }
    for failure in &o.failures {
        println!("# {} FAILED: {failure}", o.workload);
        eprintln!("{}: FAILED: {failure}", o.workload);
    }
}

/// Writes `<out>/<workload>.json`, the file `benchmark compare` reads.
fn write_result(out: &Path, o: &Outcome) -> BenchResult<()> {
    let failures: Vec<String> = o.failures.iter().map(|f| json::string(f)).collect();
    let diagnostics: Vec<String> = o
        .diagnostics
        .iter()
        .map(|(k, v)| format!("{}: {}", json::string(k), json::string(v)))
        .collect();
    let text = format!(
        "{{\"workload\": {}, \"header\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failures\": [{}], \"metrics\": {}, \"diagnostics\": {{{}}}}}\n",
        json::string(o.workload),
        o.header.to_json(),
        o.failures.is_empty(),
        o.attempted,
        o.failed,
        failures.join(", "),
        metrics_json(o.metrics.iter().map(|m| (m.name.to_owned(), m))),
        diagnostics.join(", ")
    );
    std::fs::write(out.join(format!("{}.json", o.workload)), text)?;
    Ok(())
}
