//! `benchmark compare BASE.json… -- CHANGE.json…`: for each workload
//! and end-to-end metric, each side's median and quartiles, the share of
//! pairs the change won, and a verdict under the bounds `BENCHMARK.json`
//! fixes.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::report::fnv1a;
use crate::stats::{median, quartiles};

/// Share of pairs a change must win before it counts as a gain.
const WIN_SHARE: f64 = 0.9;

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics and their bounds from `BENCHMARK.json`.
pub fn load_bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("an end_to_end metric has no name")?
                    .to_owned(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end_to_end metric has no bound")?,
            })
        })
        .collect()
}

/// One result file written by `benchmark run`.
#[derive(Debug, Clone)]
pub struct RunFile {
    pub path: String,
    pub workload: String,
    pub mode: String,
    pub trace: bool,
    pub cores: u64,
    pub benchmark_json: String,
    pub metrics: BTreeMap<String, f64>,
}

pub fn parse_run(path: &str, text: &str) -> Result<RunFile, String> {
    let doc = Json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let header = doc.get("header").ok_or(format!("{path}: no header"))?;
    let field = |key: &str| {
        header
            .get(key)
            .ok_or(format!("{path}: header has no {key}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or(format!("{path}: no metrics"))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunFile {
        path: path.to_owned(),
        workload: doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: no workload"))?
            .to_owned(),
        mode: field("mode")?.as_str().unwrap_or_default().to_owned(),
        trace: field("trace")?.as_bool().unwrap_or(true),
        cores: field("cores")?.as_f64().unwrap_or(0.0) as u64,
        benchmark_json: field("benchmark_json")?
            .as_str()
            .unwrap_or_default()
            .to_owned(),
        metrics,
    })
}

/// Refuses result sets that were not measured the same way: smoke or
/// traced runs, different core counts, or another `BENCHMARK.json`.
pub fn check_comparable(runs: &[RunFile], benchmark_json: &str) -> Result<(), String> {
    let first = runs.first().ok_or("no result files")?;
    for run in runs {
        if run.mode != "full" {
            return Err(format!(
                "{}: {} results cannot be compared",
                run.path, run.mode
            ));
        }
        if run.trace {
            return Err(format!(
                "{}: traced runs carry per-layer metrics only",
                run.path
            ));
        }
        if run.cores != first.cores {
            return Err(format!(
                "{} ran on {} cores, {} on {}",
                run.path, run.cores, first.path, first.cores
            ));
        }
        if run.benchmark_json != benchmark_json {
            return Err(format!(
                "{} was measured under BENCHMARK.json {}, not {benchmark_json}",
                run.path, run.benchmark_json
            ));
        }
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    pub base: (f64, f64, f64),
    pub change: (f64, f64, f64),
    /// Share of (base i, change i) pairs the change won; ties count for
    /// neither side.
    pub won: f64,
    pub verdict: Verdict,
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(values);
    (median(values), q1, q3)
}

/// The verdict rule: a spread between the base quartiles wider than the
/// bound leaves the metric unresolved unless every change run beats
/// every base run; a gain needs nine tenths of the pairs and a median
/// shift beyond the base spread; a regression is a median worse by more
/// than the bound.
pub fn compare_metric(base: &[f64], change: &[f64], bound: &Bound) -> Comparison {
    let better = |a: f64, b: f64| {
        if bound.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let pairs = base.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], base[i])).count();
    let won = wins as f64 / pairs.max(1) as f64;
    let (bm, bq1, bq3) = summary(base);
    let (cm, cq1, cq3) = summary(change);
    let spread = bq3 - bq1;
    let scale = bm.abs().max(f64::MIN_POSITIVE);
    let worse_share = if bound.higher_is_better {
        (bm - cm) / scale
    } else {
        (cm - bm) / scale
    };
    let every_run_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
    let verdict = if spread > bound.bound * scale {
        if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if won >= WIN_SHARE && better(cm, bm) && (cm - bm).abs() > spread {
        Verdict::Improved
    } else if worse_share > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Comparison {
        base: (bm, bq1, bq3),
        change: (cm, cq1, cq3),
        won,
        verdict,
    }
}

/// Runs the subcommand; returns the report text.
pub fn main(args: &[String]) -> Result<String, String> {
    let mut bench_path = "BENCHMARK.json".to_owned();
    let mut base_paths = Vec::new();
    let mut change_paths = Vec::new();
    let mut after_separator = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => after_separator = true,
            "--benchmark-json" => {
                bench_path = it.next().ok_or("--benchmark-json needs a path")?.clone();
            }
            path if after_separator => change_paths.push(path.to_owned()),
            path => base_paths.push(path.to_owned()),
        }
    }
    if base_paths.is_empty() || change_paths.is_empty() {
        return Err("usage: benchmark compare BASE.json... -- CHANGE.json...".to_owned());
    }
    let bench_bytes =
        std::fs::read(&bench_path).map_err(|e| format!("cannot read {bench_path}: {e}"))?;
    let bench_hash = format!("{:016x}", fnv1a(&bench_bytes));
    let bench_doc = Json::parse(&String::from_utf8_lossy(&bench_bytes))
        .map_err(|e| format!("{bench_path}: {e}"))?;
    let bounds = load_bounds(&bench_doc)?;
    let load = |paths: &[String]| -> Result<Vec<RunFile>, String> {
        paths
            .iter()
            .map(|p| {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
                parse_run(p, &text)
            })
            .collect()
    };
    let base = load(&base_paths)?;
    let change = load(&change_paths)?;
    let everything: Vec<RunFile> = base.iter().chain(&change).cloned().collect();
    check_comparable(&everything, &bench_hash)?;
    Ok(report(&base, &change, &bounds))
}

/// The comparison table, one row per workload and metric.
pub fn report(base: &[RunFile], change: &[RunFile], bounds: &[Bound]) -> String {
    let mut workloads: Vec<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = format!(
        "{:<14} {:<16} {:>36} {:>36} {:>8} {:>5}  verdict\n",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta", "won"
    );
    for workload in workloads {
        let values = |runs: &[RunFile], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        for bound in bounds {
            let b = values(base, &bound.name);
            let c = values(change, &bound.name);
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let cmp = compare_metric(&b, &c, bound);
            let side = |(m, q1, q3): (f64, f64, f64)| format!("{m:.4} [{q1:.4}, {q3:.4}]");
            out.push_str(&format!(
                "{workload:<14} {:<16} {:>36} {:>36} {:>+7.2}% {:>5.2}  {}\n",
                bound.name,
                side(cmp.base),
                side(cmp.change),
                (cmp.change.0 - cmp.base.0) / cmp.base.0.abs().max(f64::MIN_POSITIVE) * 100.0,
                cmp.won,
                cmp.verdict.name()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "p95_ms".to_owned(),
            higher_is_better: false,
            bound,
        }
    }

    fn higher(bound: f64) -> Bound {
        Bound {
            name: "throughput_rps".to_owned(),
            higher_is_better: true,
            bound,
        }
    }

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    #[test]
    fn the_same_distribution_is_unchanged() {
        let change: Vec<f64> = BASE.iter().rev().copied().collect();
        assert_eq!(
            compare_metric(&BASE, &change, &higher(0.1)).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            compare_metric(&BASE, &change, &lower(0.1)).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_consistent_gain_beyond_the_spread_is_improved() {
        let faster: Vec<f64> = BASE.iter().map(|v| v * 1.05).collect();
        let cmp = compare_metric(&BASE, &faster, &higher(0.1));
        assert_eq!(cmp.won, 1.0);
        assert_eq!(cmp.verdict, Verdict::Improved);
        // The same shift is a regression for a lower-is-better metric,
        // once it exceeds the bound.
        assert_eq!(
            compare_metric(&BASE, &faster, &lower(0.02)).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare_metric(&BASE, &faster, &lower(0.1)).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_gain_winning_too_few_pairs_is_not_claimed() {
        let mut mixed: Vec<f64> = BASE.iter().map(|v| v * 1.05).collect();
        mixed[0] = 90.0;
        mixed[1] = 90.0;
        let cmp = compare_metric(&BASE, &mixed, &higher(0.1));
        assert_eq!(cmp.won, 0.8);
        assert_eq!(cmp.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0,
        ];
        let change: Vec<f64> = noisy.iter().map(|v| v * 0.9).collect();
        assert_eq!(
            compare_metric(&noisy, &change, &higher(0.1)).verdict,
            Verdict::Unresolved
        );
        let far = [200.0; 10];
        assert_eq!(
            compare_metric(&noisy, &far, &higher(0.1)).verdict,
            Verdict::Improved
        );
    }

    fn run_json(
        mode: &str,
        trace: bool,
        cores: u64,
        hash: &str,
        workload: &str,
        p95: f64,
    ) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"header\": {{\"mode\": \"{mode}\", \"trace\": {trace}, \
             \"cores\": {cores}, \"benchmark_json\": \"{hash}\"}}, \"correct\": true, \
             \"metrics\": {{\"p95_ms\": {{\"value\": {p95}, \"unit\": \"ms\"}}}}}}"
        )
    }

    #[test]
    fn result_sets_measured_differently_are_refused() {
        let ok = parse_run("a", &run_json("full", false, 2, "h", "page-tiny", 0.3)).unwrap();
        assert_eq!(ok.metrics["p95_ms"], 0.3);
        assert!(check_comparable(&[ok.clone(), ok.clone()], "h").is_ok());
        let smoke = parse_run("b", &run_json("smoke", false, 2, "h", "page-tiny", 0.3)).unwrap();
        assert!(check_comparable(&[ok.clone(), smoke], "h").is_err());
        let traced = parse_run("c", &run_json("full", true, 2, "h", "page-tiny", 0.3)).unwrap();
        assert!(check_comparable(&[ok.clone(), traced], "h").is_err());
        let four = parse_run("d", &run_json("full", false, 4, "h", "page-tiny", 0.3)).unwrap();
        assert!(check_comparable(&[ok.clone(), four], "h").is_err());
        assert!(check_comparable(&[ok], "other").is_err());
    }

    #[test]
    fn the_report_has_a_row_per_workload_and_metric() {
        let runs = |scale: f64| -> Vec<RunFile> {
            BASE.iter()
                .enumerate()
                .map(|(i, v)| {
                    let w = if i % 2 == 0 {
                        "page-tiny"
                    } else {
                        "isolet-shared"
                    };
                    parse_run("r", &run_json("full", false, 2, "h", w, v * scale / 100.0)).unwrap()
                })
                .collect()
        };
        let text = report(&runs(1.0), &runs(1.5), &[lower(0.1)]);
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.ends_with("regressed")), "{text}");
        let bounds = load_bounds(
            &Json::parse(
                r#"{"end_to_end": [{"name": "p95_ms", "unit": "ms", "better": "lower", "bound": 0.2}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(bounds, vec![lower(0.2)]);
    }
}
