//! The programs under test as child processes: the `generic` binary
//! built from this checkout, `generic train`, and `generic serve
//! --listen` with its drain report.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use crate::BenchResult;

/// Builds the workspace's `generic` binary with the workspace's own
/// release profile, into the target directory this executable was built
/// in, and returns its path (next to this executable).
pub fn build_generic() -> BenchResult<PathBuf> {
    let exe = std::env::current_exe()?;
    let profile_dir = exe.parent().ok_or("executable has no directory")?;
    let target_dir = profile_dir
        .parent()
        .ok_or("executable is not inside a cargo target directory")?;
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark package has no parent directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "generic-cli", "--bin", "generic"])
        .arg("--manifest-path")
        .arg(workspace.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(format!("building the generic binary failed ({status})").into());
    }
    Ok(profile_dir.join("generic"))
}

/// Runs `generic train` to completion and returns its wall time.
pub fn train(
    generic: &Path,
    csv: &Path,
    model: &Path,
    dim: usize,
    epochs: usize,
) -> BenchResult<Duration> {
    let start = Instant::now();
    let output = Command::new(generic)
        .arg("train")
        .arg("--data")
        .arg(csv)
        .arg("--out")
        .arg(model)
        .args(["--dim", &dim.to_string(), "--epochs", &epochs.to_string()])
        .stdin(Stdio::null())
        .output()?;
    let elapsed = start.elapsed();
    if !output.status.success() {
        return Err(format!(
            "generic train failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )
        .into());
    }
    Ok(elapsed)
}

/// A running `generic serve --listen` child. Dropping it kills and
/// reaps the process; [`Server::shutdown`] drains it gracefully.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub argv: Vec<String>,
}

impl Server {
    /// Spawns `generic <args>` and waits for its `listening on ADDR`
    /// announcement.
    pub fn spawn(generic: &Path, args: Vec<String>) -> BenchResult<Server> {
        let mut child = Command::new(generic)
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("child stdout is not piped")?;
        let mut server = Server {
            child,
            stdin,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            argv: std::iter::once("generic".to_owned()).chain(args).collect(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            if server.stdout.read_line(&mut line)? == 0 {
                return Err("generic serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr.parse()?;
                return Ok(server);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes stdin (the control stream), which drains the server;
    /// returns the rest of its stdout and its exit status.
    pub fn shutdown(mut self) -> BenchResult<(String, ExitStatus)> {
        drop(self.stdin.take());
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let status = self.child.wait()?;
        Ok((rest, status))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The counters of the drain report `generic serve` prints on exit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrainReport {
    pub connections: u64,
    pub frames_in: u64,
    pub net_answered: u64,
    pub net_refused: u64,
    pub net_malformed: u64,
    pub final_checkpoint_ok: bool,
    pub admitted: u64,
    pub submitted: u64,
    pub answered: u64,
    pub degraded: u64,
    pub canceled: u64,
    pub learned: u64,
    pub held_out: u64,
    pub quarantined: u64,
    pub checkpoints: u64,
    pub panics: u64,
    pub steals: u64,
    /// `None` when the server ran without `--registry`.
    pub registry: Option<RegistryLine>,
}

/// The drain report's `registry:` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryLine {
    pub hits: u64,
    pub cold_loads: u64,
    pub evictions: u64,
    pub quarantined: u64,
    pub resident_bytes: u64,
}

/// The number following `key ` in `line`.
fn field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("{key} "))? + key.len() + 1;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Parses the drain report out of `generic serve`'s stdout.
pub fn parse_drain_report(text: &str) -> BenchResult<DrainReport> {
    let mut report = DrainReport::default();
    let mut seen = [false; 4];
    let missing = |line: &str| format!("unparsable drain report line: {line}");
    for raw in text.lines() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("net: ") {
            report.connections = rest
                .split_whitespace()
                .next()
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| missing(line))?;
            report.frames_in = field(line, "connection(s),").ok_or_else(|| missing(line))?;
            report.net_answered = field(line, "answered").ok_or_else(|| missing(line))?;
            report.net_refused = field(line, "refused").ok_or_else(|| missing(line))?;
            report.net_malformed = field(line, "malformed").ok_or_else(|| missing(line))?;
        } else if line.starts_with("drained: ") {
            report.final_checkpoint_ok = line.ends_with("(final checkpoint ok)");
            seen[0] = true;
        } else if let Some(rest) = line.strip_prefix("admitted ") {
            let (admitted, submitted) = rest
                .split_whitespace()
                .next()
                .and_then(|s| s.split_once('/'))
                .ok_or_else(|| missing(line))?;
            report.admitted = admitted.parse()?;
            report.submitted = submitted.parse()?;
            seen[1] = true;
        } else if line.starts_with("answered ") {
            report.answered = field(line, "answered").ok_or_else(|| missing(line))?;
            report.degraded = field(line, "(degraded").ok_or_else(|| missing(line))?;
            report.canceled = field(line, "canceled").ok_or_else(|| missing(line))?;
            seen[2] = true;
        } else if line.starts_with("learned ") {
            report.learned = field(line, "learned").ok_or_else(|| missing(line))?;
            report.held_out = field(line, "held out").ok_or_else(|| missing(line))?;
            report.quarantined = field(line, "quarantined").ok_or_else(|| missing(line))?;
            report.checkpoints = field(line, "checkpoints").ok_or_else(|| missing(line))?;
        } else if line.starts_with("supervision: ") {
            report.panics = field(line, "panics").ok_or_else(|| missing(line))?;
            report.steals = field(line, "steals").ok_or_else(|| missing(line))?;
            seen[3] = true;
        } else if line.starts_with("registry: ") {
            report.registry = Some(RegistryLine {
                hits: field(line, "hits").ok_or_else(|| missing(line))?,
                cold_loads: field(line, "cold loads").ok_or_else(|| missing(line))?,
                evictions: field(line, "evictions").ok_or_else(|| missing(line))?,
                quarantined: field(line, "quarantined").ok_or_else(|| missing(line))?,
                resident_bytes: field(line, "resident").ok_or_else(|| missing(line))?,
            });
        }
    }
    if seen.iter().all(|&s| s) {
        Ok(report)
    } else {
        Err("generic serve printed no complete drain report".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured stdout of `generic serve --shards 2 --listen 127.0.0.1:0
    // --registry reg --data -` after one Infer, one Learn and one Infer
    // for an unknown tenant over one connection.
    const SERVE_OUTPUT: &str = "\
bootstrapped from m.ghdc (generation 1)
registry reg (0 tenant(s) on disk)
listening on 127.0.0.1:42847
  net: 1 connection(s), 3 frame(s) in, answered 1, refused 1, malformed 0
  net latency: p50 259 us, p99 259 us, p999 259 us, max 259 us
drained: generation 2 (final checkpoint ok)
  admitted 1/2 (queue-full 0, deadline-shed 0, malformed 1, bad rows 0)
  answered 1 (degraded 0, deadline misses 0, canceled 0)
  learned 1 (corrected 1, held out 0), quarantined 0, checkpoints 2 (retries 0)
  supervision: panics 0, restarts 0, requeued 0, steals 0, circuit opens 0, writer stalls 0
  registry: hits 0, cold loads 0, evictions 0, swaps 0, quarantined 0, refused rows 0, resident 0 B
  ledger: publish retries 0, rollbacks 0, recoveries 0, tmp sweeps 0
";

    #[test]
    fn parses_a_captured_drain_report() {
        let r = parse_drain_report(SERVE_OUTPUT).unwrap();
        assert_eq!(r.connections, 1);
        assert_eq!(r.frames_in, 3);
        assert_eq!((r.net_answered, r.net_refused, r.net_malformed), (1, 1, 0));
        assert!(r.final_checkpoint_ok);
        assert_eq!((r.admitted, r.submitted), (1, 2));
        assert_eq!((r.answered, r.degraded, r.canceled), (1, 0, 0));
        assert_eq!((r.learned, r.held_out, r.quarantined), (1, 0, 0));
        assert_eq!(r.checkpoints, 2);
        assert_eq!((r.panics, r.steals), (0, 0));
        assert_eq!(r.registry, Some(RegistryLine::default()));
    }

    #[test]
    fn reads_nonzero_counters_and_failed_checkpoints() {
        let text = SERVE_OUTPUT
            .replace("final checkpoint ok", "final checkpoint FAILED")
            .replace("steals 0", "steals 1234")
            .replace("hits 0, cold loads 0", "hits 98765, cold loads 64")
            .replace("resident 0 B", "resident 3407872 B")
            .replace("held out 0", "held out 812");
        let r = parse_drain_report(&text).unwrap();
        assert!(!r.final_checkpoint_ok);
        assert_eq!(r.steals, 1234);
        assert_eq!(r.held_out, 812);
        let registry = r.registry.unwrap();
        assert_eq!((registry.hits, registry.cold_loads), (98765, 64));
        assert_eq!(registry.resident_bytes, 3_407_872);
    }

    #[test]
    fn a_report_without_registry_or_net_lines_still_parses() {
        let text: String = SERVE_OUTPUT
            .lines()
            .filter(|l| !l.contains("registry") && !l.contains("net"))
            .map(|l| format!("{l}\n"))
            .collect();
        let r = parse_drain_report(&text).unwrap();
        assert_eq!(r.registry, None);
        assert_eq!(r.connections, 0);
    }

    #[test]
    fn a_truncated_report_is_an_error() {
        let cut = &SERVE_OUTPUT[..SERVE_OUTPUT.find("  answered").unwrap()];
        assert!(parse_drain_report(cut).is_err());
        assert!(parse_drain_report("error: cannot open model").is_err());
    }
}
