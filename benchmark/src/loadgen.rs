//! The load generator: GNET frames over at most two loopback
//! connections, driven by at most two threads (the calling thread plus
//! one scoped helper).

use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use generic_hdc::net::read_frame;
use generic_hdc::{Frame, NetStatus};

use crate::trace::Tracer;
use crate::workload::{mix, Arrival, Inputs, Req, Stream, Traffic, Workload};
use crate::BenchResult;

/// Requests each closed-loop connection keeps in flight.
const IN_FLIGHT: usize = 32;
/// Width of the intervals whose answered-Infer rates give
/// `throughput_rps`.
pub const INTERVAL: Duration = Duration::from_millis(250);
/// Pause before resending a Learn refused with QueueFull.
const LEARN_RETRY: Duration = Duration::from_micros(50);
/// Failure notes kept for the report (all failures are counted).
const NOTES_KEPT: usize = 8;

/// Everything the generator checks answers against.
pub struct Ctx<'a> {
    pub workload: &'a Workload,
    pub inputs: &'a Inputs,
    /// Dimensions each tenant's answers must report (shared-model
    /// answers report the workload's D).
    pub tenant_dims: &'a [usize],
    pub seed: u64,
}

impl Ctx<'_> {
    /// A seeded 2 % of answers is kept for the scalar-oracle replay.
    fn sampled(&self, rid: u64) -> bool {
        mix(self.seed, rid).is_multiple_of(50)
    }
}

/// An answered request kept for the oracle replay.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub req: Req,
    pub label: u64,
    pub dims: u32,
}

/// Counts from one phase (merged over its connections).
#[derive(Debug, Default)]
pub struct Tally {
    pub infer_sent: u64,
    pub answered: u64,
    /// Answers whose label is the generator's ground truth.
    pub correct: u64,
    pub learn_accepted: u64,
    /// QueueFull refusals of Learn frames: flow control, not failures.
    pub learn_backpressure: u64,
    /// Refusals of every other kind.
    pub refused: u64,
    /// The Learn frames among `refused`.
    pub learn_refused: u64,
    /// Refusals and failed checks.
    pub failures: u64,
    pub notes: Vec<String>,
    /// Server-side `elapsed_us` of every answer.
    pub elapsed_us: Vec<f64>,
    pub answers_per_shard: Vec<u64>,
    pub degraded: u64,
    pub samples: Vec<Sample>,
    /// Request and response bytes on the wire.
    pub wire_bytes: u64,
    /// Closed loop only: answered Infers per [`INTERVAL`] after the
    /// warm-up.
    pub per_interval: Vec<u64>,
    /// Closed loop only: Learns accepted after the warm-up.
    pub measured_learns: u64,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failures += 1;
        if self.notes.len() < NOTES_KEPT {
            self.notes.push(note);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.infer_sent += other.infer_sent;
        self.answered += other.answered;
        self.correct += other.correct;
        self.learn_accepted += other.learn_accepted;
        self.measured_learns += other.measured_learns;
        self.learn_backpressure += other.learn_backpressure;
        self.refused += other.refused;
        self.learn_refused += other.learn_refused;
        self.failures += other.failures;
        for note in other.notes {
            if self.notes.len() < NOTES_KEPT {
                self.notes.push(note);
            }
        }
        self.elapsed_us.extend(other.elapsed_us);
        if self.answers_per_shard.len() < other.answers_per_shard.len() {
            self.answers_per_shard
                .resize(other.answers_per_shard.len(), 0);
        }
        for (mine, theirs) in self
            .answers_per_shard
            .iter_mut()
            .zip(other.answers_per_shard)
        {
            *mine += theirs;
        }
        self.degraded += other.degraded;
        self.samples.extend(other.samples);
        self.wire_bytes += other.wire_bytes;
        if self.per_interval.len() < other.per_interval.len() {
            self.per_interval.resize(other.per_interval.len(), 0);
        }
        for (mine, theirs) in self.per_interval.iter_mut().zip(other.per_interval) {
            *mine += theirs;
        }
    }

    /// Operations attempted: every Infer, and every Learn that was not
    /// turned back by flow control.
    pub fn attempted(&self) -> u64 {
        self.infer_sent + self.learn_accepted + self.learn_refused
    }

    /// Checks one answer and records it.
    #[allow(clippy::too_many_arguments)]
    fn answer(
        &mut self,
        ctx: &Ctx,
        rid: u64,
        req: Req,
        label: u64,
        dims: u32,
        shard: u32,
        degraded: bool,
        elapsed_us: u64,
    ) {
        self.answered += 1;
        self.elapsed_us.push(elapsed_us as f64);
        let shard = shard as usize;
        if self.answers_per_shard.len() <= shard {
            self.answers_per_shard.resize(shard + 1, 0);
        }
        self.answers_per_shard[shard] += 1;
        if degraded {
            self.degraded += 1;
        }
        if label >= ctx.inputs.n_classes as u64 {
            self.fail(format!("request {rid}: label {label} is not a class"));
        }
        let want_dims = match (ctx.workload.traffic, req.tenant) {
            (Traffic::Tenants, Some(t)) => ctx.tenant_dims[usize::from(t)],
            _ => ctx.workload.dim,
        };
        if dims as usize != want_dims {
            self.fail(format!(
                "request {rid}: answered at {dims} dims, expected {want_dims}"
            ));
        }
        if label == ctx.inputs.pool_labels[req.pool as usize] as u64 {
            self.correct += 1;
        }
        if ctx.sampled(rid) {
            self.samples.push(Sample { req, label, dims });
        }
    }
}

/// A socket reader that counts the bytes it delivers: the wire size of
/// every response.
struct Counted {
    inner: TcpStream,
    bytes: u64,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

type Reader = BufReader<Counted>;

/// One loopback connection.
pub struct Conn {
    reader: Reader,
    writer: TcpStream,
    next_id: u64,
}

impl Conn {
    /// Connects with Nagle off and a read timeout, so a stalled server
    /// fails the run instead of hanging it. Request ids start at
    /// `id_base`, keeping them distinct across connections.
    pub fn connect(addr: SocketAddr, id_base: u64) -> BenchResult<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(Counted {
                inner: stream,
                bytes: 0,
            }),
            next_id: id_base,
        })
    }

    fn send(
        &mut self,
        ctx: &Ctx,
        req: Req,
        tally: &mut Tally,
        tracer: &mut Tracer,
    ) -> BenchResult<u64> {
        let rid = self.next_id;
        self.next_id += 1;
        send_frame(&mut self.writer, ctx, req, rid, tally, tracer)?;
        Ok(rid)
    }
}

fn send_frame(
    writer: &mut TcpStream,
    ctx: &Ctx,
    req: Req,
    rid: u64,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> BenchResult<()> {
    let bytes = ctx.inputs.frame(req, rid).encode();
    let span = tracer.open("net.write", rid, None);
    writer.write_all(&bytes)?;
    tracer.close(span, rid, 0);
    tally.wire_bytes += bytes.len() as u64;
    if !req.learn {
        tally.infer_sent += 1;
    }
    Ok(())
}

fn recv_frame(reader: &mut Reader, tracer: &mut Tracer) -> BenchResult<Frame> {
    let span = tracer.open("net.read", 0, None);
    let frame = read_frame(reader)?.ok_or("the server closed the connection")?;
    let (rid, elapsed_us) = match &frame {
        Frame::Answer {
            request_id,
            elapsed_us,
            ..
        } => (*request_id, *elapsed_us),
        Frame::Accepted { request_id } | Frame::Refusal { request_id, .. } => (*request_id, 0),
        _ => (0, 0),
    };
    tracer.close(span, rid, elapsed_us);
    Ok(frame)
}

/// What a response did to the request it answered.
enum Outcome {
    Answered,
    Accepted,
    /// A Learn turned back by flow control: resend it.
    Retry,
    Refused,
}

/// Matches a response to the request it must answer and checks it. A
/// Learn refused with QueueFull is the writer's flow control, never a
/// failure: the closed loop resends it, the open loop drops it.
fn settle(ctx: &Ctx, frame: Frame, rid: u64, req: Req, tally: &mut Tally) -> BenchResult<Outcome> {
    match frame {
        Frame::Answer {
            request_id,
            elapsed_us,
            label,
            dims_used,
            shard,
            degraded,
            ..
        } if request_id == rid && !req.learn => {
            tally.answer(ctx, rid, req, label, dims_used, shard, degraded, elapsed_us);
            Ok(Outcome::Answered)
        }
        Frame::Accepted { request_id } if request_id == rid && req.learn => {
            tally.learn_accepted += 1;
            Ok(Outcome::Accepted)
        }
        Frame::Refusal {
            request_id,
            status: NetStatus::QueueFull,
            ..
        } if request_id == rid && req.learn => {
            tally.learn_backpressure += 1;
            Ok(Outcome::Retry)
        }
        Frame::Refusal {
            request_id,
            status,
            detail,
        } if request_id == rid => {
            tally.refused += 1;
            if req.learn {
                tally.learn_refused += 1;
            }
            tally.fail(format!("request {rid} refused ({status}): {detail}"));
            Ok(Outcome::Refused)
        }
        other => Err(format!("request {rid}: unexpected response {other:?}").into()),
    }
}

/// Sends one Infer and waits for its answer: the readiness probe that
/// ends a cold start.
pub fn probe(ctx: &Ctx, conn: &mut Conn, req: Req, tally: &mut Tally) -> BenchResult<()> {
    let mut tracer = Tracer::new(Instant::now(), 0, false);
    let rid = conn.send(ctx, req, tally, &mut tracer)?;
    let frame = recv_frame(&mut conn.reader, &mut tracer)?;
    match settle(ctx, frame, rid, req, tally)? {
        Outcome::Answered => Ok(()),
        _ => Err("the readiness probe was not answered".into()),
    }
}

/// Closed loop over two connections: each keeps [`IN_FLIGHT`] requests
/// in flight and sends the next one as each response arrives. On
/// `isolet-learn` the second connection sends Learn frames. The first
/// `warmup` is not measured; it runs without a pause into the measured
/// `duration`, so the server's threads stay busy across the boundary.
pub fn closed_phase(
    ctx: &Ctx,
    conns: (&mut Conn, &mut Conn),
    tracers: (&mut Tracer, &mut Tracer),
    warmup: Duration,
    duration: Duration,
    salt: u64,
) -> BenchResult<Tally> {
    let measured = Instant::now() + warmup;
    let end = measured + duration;
    let second_learns = ctx.workload.traffic == Traffic::Learn;
    let stream_a = Stream::new(ctx.workload, mix(ctx.seed, salt), false);
    let stream_b = Stream::new(ctx.workload, mix(ctx.seed, salt + 1), second_learns);
    let (conn_a, conn_b) = conns;
    let (tracer_a, tracer_b) = tracers;
    std::thread::scope(|scope| {
        let helper =
            scope.spawn(move || drive_closed(ctx, conn_b, stream_b, tracer_b, measured, end));
        let mut tally = drive_closed(ctx, conn_a, stream_a, tracer_a, measured, end)?;
        let other = helper
            .join()
            .map_err(|_| "closed-loop connection thread panicked")??;
        tally.merge(other);
        Ok(tally)
    })
}

fn drive_closed(
    ctx: &Ctx,
    conn: &mut Conn,
    mut stream: Stream,
    tracer: &mut Tracer,
    measured: Instant,
    end: Instant,
) -> BenchResult<Tally> {
    let intervals = ((end - measured).as_nanos() / INTERVAL.as_nanos()) as usize;
    let mut tally = Tally {
        per_interval: vec![0; intervals],
        ..Tally::default()
    };
    let received_before = conn.reader.get_ref().bytes;
    let mut inflight: VecDeque<(u64, Req)> = VecDeque::with_capacity(IN_FLIGHT);
    while inflight.len() < IN_FLIGHT {
        let req = stream.next_req();
        inflight.push_back((conn.send(ctx, req, &mut tally, tracer)?, req));
    }
    // Answers come back in request order on one connection.
    while let Some((rid, req)) = inflight.pop_front() {
        let frame = recv_frame(&mut conn.reader, tracer)?;
        let outcome = settle(ctx, frame, rid, req, &mut tally)?;
        let now = Instant::now();
        if let Some(since) = now.checked_duration_since(measured) {
            match outcome {
                Outcome::Answered => {
                    let slot = (since.as_nanos() / INTERVAL.as_nanos()) as usize;
                    if let Some(count) = tally.per_interval.get_mut(slot) {
                        *count += 1;
                    }
                }
                Outcome::Accepted => tally.measured_learns += 1,
                Outcome::Retry | Outcome::Refused => {}
            }
        }
        if now >= end {
            continue;
        }
        let next = match outcome {
            Outcome::Retry => {
                std::thread::sleep(LEARN_RETRY);
                req
            }
            _ => stream.next_req(),
        };
        inflight.push_back((conn.send(ctx, next, &mut tally, tracer)?, next));
    }
    tally.wire_bytes += conn.reader.get_ref().bytes - received_before;
    Ok(tally)
}

/// What the open loop measured, per request, from the schedule.
#[derive(Debug, Default)]
pub struct OpenResult {
    pub tally: Tally,
    /// Answered Infers: answer receipt minus scheduled send time, ms.
    pub latency_ms: Vec<f64>,
    /// Answered Infers: receipt minus actual send minus the server's
    /// elapsed time, µs (transport and frame handling).
    pub overhead_us: Vec<f64>,
    /// Every request: actual send minus scheduled send, µs.
    pub late_us: Vec<f64>,
    pub due_infers: u64,
    /// Infers answered within the workload's latency limit.
    pub within_limit: u64,
}

/// Open loop on one connection: the calling thread sends on the
/// schedule, a helper thread receives. Requests are timed from the time
/// they were due, so a stall also delays every later request.
pub fn open_phase(
    ctx: &Ctx,
    conn: &mut Conn,
    schedule: &[Arrival],
    tracers: (&mut Tracer, &mut Tracer),
) -> BenchResult<OpenResult> {
    let n = schedule.len();
    let base = conn.next_id;
    conn.next_id += n as u64;
    let sent_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let start = Instant::now() + Duration::from_millis(2);
    let Conn { reader, writer, .. } = conn;
    let (send_tracer, recv_tracer) = tracers;
    let sent_ns = &sent_ns;
    std::thread::scope(|scope| {
        let receiver = scope
            .spawn(move || receive_open(ctx, reader, schedule, base, start, sent_ns, recv_tracer));
        let mut tally = Tally::default();
        let mut late_us = Vec::with_capacity(n);
        let mut send_result = Ok(());
        for (i, arrival) in schedule.iter().enumerate() {
            let due = start + Duration::from_nanos(arrival.at_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let rid = base + i as u64;
            send_result = send_frame(writer, ctx, arrival.req, rid, &mut tally, send_tracer);
            if send_result.is_err() {
                break;
            }
            let sent = start.elapsed().as_nanos() as u64;
            sent_ns[i].store(sent, Ordering::Release);
            late_us.push(sent.saturating_sub(arrival.at_ns) as f64 / 1e3);
        }
        let mut result = receiver
            .join()
            .map_err(|_| "open-loop receiver thread panicked")??;
        send_result?;
        result.tally.merge(tally);
        result.late_us = late_us;
        result.due_infers = schedule.iter().filter(|a| !a.req.learn).count() as u64;
        Ok(result)
    })
}

fn receive_open(
    ctx: &Ctx,
    reader: &mut Reader,
    schedule: &[Arrival],
    base: u64,
    start: Instant,
    sent_ns: &[AtomicU64],
    tracer: &mut Tracer,
) -> BenchResult<OpenResult> {
    let limit_ms = ctx.workload.limit_ms;
    let mut result = OpenResult {
        latency_ms: Vec::with_capacity(schedule.len()),
        overhead_us: Vec::with_capacity(schedule.len()),
        ..OpenResult::default()
    };
    let received_before = reader.get_ref().bytes;
    let mut seen = vec![false; schedule.len()];
    for _ in 0..schedule.len() {
        let frame = recv_frame(reader, tracer)?;
        let received = start.elapsed().as_nanos() as u64;
        let rid = match &frame {
            Frame::Answer { request_id, .. }
            | Frame::Accepted { request_id }
            | Frame::Refusal { request_id, .. } => *request_id,
            other => return Err(format!("unexpected open-loop response {other:?}").into()),
        };
        let i = rid
            .checked_sub(base)
            .map(|i| i as usize)
            .filter(|&i| i < schedule.len() && !seen[i])
            .ok_or_else(|| format!("response for unknown request {rid}"))?;
        seen[i] = true;
        let arrival = schedule[i];
        let elapsed_us = match &frame {
            Frame::Answer { elapsed_us, .. } => *elapsed_us,
            _ => 0,
        };
        match settle(ctx, frame, rid, arrival.req, &mut result.tally)? {
            Outcome::Answered => {
                let latency_ms = received.saturating_sub(arrival.at_ns) as f64 / 1e6;
                result.latency_ms.push(latency_ms);
                if latency_ms <= limit_ms {
                    result.within_limit += 1;
                }
                let sent = sent_ns[i].load(Ordering::Acquire);
                let transit_us = received.saturating_sub(sent) as f64 / 1e3;
                result.overhead_us.push(transit_us - elapsed_us as f64);
            }
            Outcome::Accepted | Outcome::Refused | Outcome::Retry => {}
        }
    }
    result.tally.wire_bytes += reader.get_ref().bytes - received_before;
    Ok(result)
}
