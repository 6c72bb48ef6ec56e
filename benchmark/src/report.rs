//! Metrics, the run header stamped into every result, and the result
//! files.

use std::path::Path;
use std::process::Command;

use generic_hdc::ScoreBatch;

use crate::json;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, each metric under the
/// name given with it.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = (String, &'a Metric)>) -> String {
    let fields: Vec<String> = metrics
        .into_iter()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// What a result was measured on and how; `compare` refuses to mix
/// results whose mode, trace flag, core count or benchmark definition
/// differ.
#[derive(Debug, Clone)]
pub struct Header {
    pub machine: Machine,
    pub seed: u64,
    pub mode: &'static str,
    pub trace: bool,
    pub warmup_s: f64,
    pub closed_s: f64,
    pub open_s: f64,
    pub server_argv: Vec<String>,
}

impl Header {
    pub fn to_json(&self) -> String {
        let argv: Vec<String> = self.server_argv.iter().map(|a| json::string(a)).collect();
        format!(
            "{{\"git\": {}, \"cores\": {}, \"isa\": {}, \"generic_force_portable\": {}, \
             \"seed\": {}, \"mode\": {}, \"trace\": {}, \"warmup_s\": {}, \"closed_s\": {}, \
             \"open_s\": {}, \"server_argv\": [{}], \"benchmark_json\": {}}}",
            json::string(&self.machine.git),
            self.machine.cores,
            json::string(&self.machine.isa),
            json::string(&self.machine.force_portable),
            self.seed,
            json::string(self.mode),
            self.trace,
            json::number(self.warmup_s),
            json::number(self.closed_s),
            json::number(self.open_s),
            argv.join(", "),
            json::string(&self.machine.benchmark_json)
        )
    }

    pub fn print(&self, workload: &str) {
        println!(
            "# {workload}: git {} | cores {} | isa {} | GENERIC_FORCE_PORTABLE {} | seed {} | \
             mode {} | trace {} | phases warm-up {} s, closed {} s, open {} s | \
             BENCHMARK.json {}",
            self.machine.git,
            self.machine.cores,
            self.machine.isa,
            self.machine.force_portable,
            self.seed,
            self.mode,
            self.trace,
            self.warmup_s,
            self.closed_s,
            self.open_s,
            self.machine.benchmark_json
        );
        println!("# {workload}: server: {}", self.server_argv.join(" "));
    }
}

/// The fields of the header that describe the machine and checkout.
#[derive(Debug, Clone)]
pub struct Machine {
    pub git: String,
    pub cores: usize,
    pub isa: String,
    pub force_portable: String,
    /// FNV-1a of `BENCHMARK.json` in the working directory.
    pub benchmark_json: String,
}

impl Machine {
    pub fn detect() -> Machine {
        Machine {
            git: git_rev(),
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            isa: ScoreBatch::new().isa().to_string(),
            force_portable: std::env::var("GENERIC_FORCE_PORTABLE")
                .unwrap_or_else(|_| "unset".to_owned()),
            benchmark_json: std::fs::read("BENCHMARK.json")
                .map_or_else(|_| "none".to_owned(), |b| format!("{:016x}", fnv1a(&b))),
        }
    }
}

/// `git rev-parse HEAD`, with `-dirty` when the work tree has changes;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_owned();
    }
    let run = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    match (run(&["rev-parse", "HEAD"]), run(&["status", "--porcelain"])) {
        (Some(rev), Some(status)) if status.is_empty() => rev,
        (Some(rev), Some(_)) => format!("{rev}-dirty"),
        _ => "unknown".to_owned(),
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_as_the_contract_object() {
        let metrics = [
            Metric::new("p50_ms", 0.2034, "ms"),
            Metric::new("setup_s", 1.5, "s"),
        ];
        let text = metrics_json(metrics.iter().map(|m| (m.name.to_owned(), m)));
        let doc = json::Json::parse(&text).unwrap();
        let p50 = doc.get("p50_ms").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(0.2034));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
