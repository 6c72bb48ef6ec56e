//! The server's resource use, read from `/proc/<pid>` between phases.

use std::path::Path;

/// CPU time from `/proc/<pid>/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    pub utime: u64,
    pub stime: u64,
}

impl CpuTicks {
    pub fn total(self) -> u64 {
        self.utime + self.stime
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) from the text of
/// `/proc/<pid>/stat`. The command name may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is field 3 (state).
    Some(CpuTicks {
        utime: fields.get(11)?.parse().ok()?,
        stime: fields.get(12)?.parse().ok()?,
    })
}

/// The lines of `/proc/<pid>/status` this benchmark uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    pub vm_hwm_kb: u64,
    pub threads: u64,
    pub voluntary_ctxt_switches: u64,
    pub nonvoluntary_ctxt_switches: u64,
}

/// Parses `/proc/<pid>/status` (or a task's status); absent keys read
/// as 0, since a task status carries no memory lines.
pub fn parse_status(text: &str) -> Status {
    let mut status = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let number = value
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        match key {
            "VmHWM" => status.vm_hwm_kb = number,
            "Threads" => status.threads = number,
            "voluntary_ctxt_switches" => status.voluntary_ctxt_switches = number,
            "nonvoluntary_ctxt_switches" => status.nonvoluntary_ctxt_switches = number,
            _ => {}
        }
    }
    status
}

pub fn cpu_ticks(pid: u32) -> Option<CpuTicks> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

pub fn status(pid: u32) -> Option<Status> {
    Some(parse_status(
        &std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?,
    ))
}

/// Context switches summed over every live thread of the process.
pub fn context_switches(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|task| std::fs::read_to_string(task.path().join("status")).ok())
        .map(|text| {
            let s = parse_status(&text);
            s.voluntary_ctxt_switches + s.nonvoluntary_ctxt_switches
        })
        .sum()
}

/// Host-wide (steal, total) clock ticks from the first line of
/// `/proc/stat`: time the hypervisor ran something else while this
/// machine's CPUs wanted to run.
pub fn parse_host_ticks(text: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user and nice.
    let counted = fields.get(..8)?;
    Some((counted[7], counted.iter().sum()))
}

pub fn host_ticks() -> Option<(u64, u64)> {
    parse_host_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Clock ticks per second (`AT_CLKTCK` from the auxiliary vector),
/// 100 when it cannot be read.
pub fn clock_ticks_per_second() -> u64 {
    const AT_CLKTCK: u64 = 17;
    std::fs::read(Path::new("/proc/self/auxv"))
        .ok()
        .and_then(|bytes| {
            bytes.chunks_exact(16).find_map(|pair| {
                let key = u64::from_ne_bytes(pair[..8].try_into().ok()?);
                let value = u64::from_ne_bytes(pair[8..].try_into().ok()?);
                (key == AT_CLKTCK && value > 0).then_some(value)
            })
        })
        .unwrap_or(100)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a `generic serve` process; the command name is
    // edited to hold a space and a parenthesis.
    const STAT: &str = "41237 (gen ric) x) S 41200 41237 41200 0 -1 4194560 1822 0 0 0 \
                        731 95 0 0 20 0 9 0 1734821 129437696 1369 18446744073709551615 1 1 \
                        0 0 0 0 0 4096 1088 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n";

    const STATUS: &str = "Name:\tgeneric\nUmask:\t0022\nState:\tS (sleeping)\n\
                          Tgid:\t41237\nPid:\t41237\nVmPeak:\t  126404 kB\nVmSize:\t  126404 kB\n\
                          VmHWM:\t    5476 kB\nVmRSS:\t    5476 kB\nThreads:\t9\n\
                          voluntary_ctxt_switches:\t38\nnonvoluntary_ctxt_switches:\t4\n";

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let ticks = parse_stat(STAT).unwrap();
        assert_eq!(
            ticks,
            CpuTicks {
                utime: 731,
                stime: 95
            }
        );
        assert_eq!(ticks.total(), 826);
        assert_eq!(parse_stat("12 (short) S 1"), None);
        assert_eq!(parse_stat("no parenthesis"), None);
    }

    #[test]
    fn status_reads_memory_threads_and_switches() {
        let s = parse_status(STATUS);
        assert_eq!(s.vm_hwm_kb, 5476);
        assert_eq!(s.threads, 9);
        assert_eq!(s.voluntary_ctxt_switches, 38);
        assert_eq!(s.nonvoluntary_ctxt_switches, 4);
        // A task status has no memory lines.
        assert_eq!(parse_status("Threads:\t1\n").vm_hwm_kb, 0);
    }

    #[test]
    fn host_ticks_read_steal_and_total() {
        let stat = "cpu  487842 0 104068 782823 4041 0 33659 5953 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(
            parse_host_ticks(stat),
            Some((5953, 487_842 + 104_068 + 782_823 + 4041 + 33_659 + 5953))
        );
        assert_eq!(parse_host_ticks("cpu0 1 2 3"), None);
        assert!(host_ticks().is_some());
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_ticks(pid).is_some());
        assert!(status(pid).unwrap().threads >= 1);
        assert!(context_switches(pid) > 0);
        assert!(clock_ticks_per_second() > 0);
    }
}
