//! Spans recorded around the benchmark's own calls into each layer:
//! kept in a preallocated per-thread buffer, written out as a Chrome
//! trace-event file, and summarised as a self-time table.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans one tracer keeps; later spans are counted as dropped.
pub const SPAN_CAPACITY: usize = 1 << 17;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Request the span belongs to.
    pub rid: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// The server's `elapsed_us` for answer reads, 0 otherwise.
    pub elapsed_us: u64,
}

/// One thread's span buffer. A disabled tracer records nothing and
/// allocates nothing.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    dropped: u64,
    enabled: bool,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            tid,
            spans: Vec::with_capacity(if enabled { SPAN_CAPACITY } else { 0 }),
            dropped: 0,
            enabled,
        }
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, rid: u64, parent: Option<u32>) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= SPAN_CAPACITY {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            rid,
            parent,
            elapsed_us: 0,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Ends an open span now, keyed by `rid` (a read learns its request
    /// id only once the frame is in) and carrying the server's elapsed
    /// time.
    pub fn close(&mut self, span: Option<u32>, rid: u64, elapsed_us: u64) {
        if let Some(i) = span {
            let now = self.epoch.elapsed().as_nanos() as u64;
            let s = &mut self.spans[i as usize];
            s.dur_ns = now.saturating_sub(s.start_ns);
            s.rid = rid;
            s.elapsed_us = elapsed_us;
        }
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Writes every tracer's spans as Chrome trace-event JSON (`ph: "X"`
/// complete events, microsecond timestamps).
pub fn write_chrome(path: &Path, tracers: &[&Tracer]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[")?;
    let mut first = true;
    for tracer in tracers {
        for s in &tracer.spans {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            let cat = s.name.split('.').next().unwrap_or(s.name);
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"rid\":{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                tracer.tid,
                s.rid
            )?;
            if s.elapsed_us > 0 {
                write!(out, ",\"elapsed_us\":{}", s.elapsed_us)?;
            }
            out.write_all(b"}}")?;
        }
    }
    out.write_all(b"],\"displayTimeUnit\":\"ns\"}\n")?;
    out.flush()
}

/// Per span name: (count, total ns, self ns), where self time is a
/// span's duration minus the durations of its direct children.
pub fn self_times(tracers: &[&Tracer]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for tracer in tracers {
        let mut children = vec![0u64; tracer.spans.len()];
        for s in &tracer.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.dur_ns;
            }
        }
        for (s, child_ns) in tracer.spans.iter().zip(children) {
            let entry = table.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.dur_ns;
            entry.2 += s.dur_ns.saturating_sub(child_ns);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(Instant::now(), 0, true);
        let parent = t.open("request", 1, None);
        let child = t.open("encoding.encode", 1, parent);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child, 1, 0);
        t.close(parent, 1, 0);
        let table = self_times(&[&t]);
        let (n, total, own) = table["request"];
        let (_, child_total, child_own) = table["encoding.encode"];
        assert_eq!(n, 1);
        assert_eq!(own, total - child_total);
        assert_eq!(child_own, child_total);
        assert!(child_total >= 2_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0, false);
        let s = t.open("net.write", 1, None);
        t.close(s, 1, 5);
        assert!(s.is_none());
        assert!(self_times(&[&t]).is_empty());
    }
}
