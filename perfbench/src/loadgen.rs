//! Load generation: an open loop that sends on a fixed schedule and times
//! every request from its due time, a closed loop with a fixed pipeline
//! window, and the same open loop against an in-process service.
//!
//! The load generator is one process with at most [`THREADS`] threads, one
//! connection each (the container has 2 cores).

use crate::ledger::{Schedule, Tally, Timing};
use crate::oracle::Record;
use crate::trace::{Span, Tracer};
use crate::workload::Stream;
use fj_service::{
    BatchOutcome, EstimateRequest, EstimatorService, FjClient, RejectReason, ServiceError, Ticket,
};
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const THREADS: u64 = 2;
/// Requests one connection keeps in flight at most in the open loop — the
/// server's per-client quota. At the quota the generator waits, and the
/// wait shows as lateness.
const MAX_OUTSTANDING: usize = 64;
/// Sleep until this close to a due time, then yield-spin: `sleep`
/// overshoots by the kernel's timer slack, which would read as latency.
const SPIN: Duration = Duration::from_micros(80);
/// Lead time for the load threads to connect before the schedule starts.
const CONNECT_LEAD: Duration = Duration::from_millis(150);

pub fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Folds one reply into the tally; served estimates become a record.
fn absorb(outcome: io::Result<BatchOutcome>, qidx: u32, tally: &mut Tally) -> Option<Record> {
    match outcome {
        Ok(BatchOutcome::Served(mut slots)) => match slots.pop() {
            Some(Ok(w)) if slots.is_empty() => {
                tally.served += 1;
                Some(Record {
                    qidx,
                    epoch: w.model_epoch,
                    estimates: w.estimates,
                })
            }
            _ => {
                tally.query_errors += 1;
                None
            }
        },
        Ok(BatchOutcome::Rejected { reason, .. }) => {
            if reason == RejectReason::DeadlineExceeded {
                tally.timeouts += 1;
            } else {
                tally.rejected += 1;
            }
            None
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ) =>
        {
            tally.timeouts += 1;
            None
        }
        Err(_) => {
            tally.transport_errors += 1;
            None
        }
    }
}

/// What one load phase observed.
#[derive(Default)]
pub struct Phase {
    /// Open loop: per request, in due order.
    pub timings: Vec<Timing>,
    /// Closed loop: (reply time since the phase start in s, sub-plans,
    /// send → reply in µs).
    pub completions: Vec<(f64, u64, f64)>,
    pub tally: Tally,
    pub records: Vec<Record>,
    pub spans: Vec<Span>,
    /// First stream position the next phase may use.
    pub next_pos: u64,
    /// Closed loop: process CPU seconds at the phase start and at the end
    /// of each window.
    pub cpu_marks: Vec<f64>,
}

impl Phase {
    /// Folds `o` into `self` (span parents are renumbered to stay valid).
    pub fn merge(&mut self, o: Phase) {
        self.timings.extend(o.timings);
        self.completions.extend(o.completions);
        self.tally.add(&o.tally);
        self.records.extend(o.records);
        let base = self.spans.len();
        self.spans.extend(o.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.next_pos = self.next_pos.max(o.next_pos);
    }
}

fn connect(addr: SocketAddr) -> FjClient {
    FjClient::connect(addr).expect("load generator connects to the loopback server")
}

/// Open loop over TCP: request `i` of the schedule is stream position
/// `first_pos + i`, due at `start + i / rate`, sent by thread `i % THREADS`.
/// With `origin` set, each request is traced: a `loadgen.request` span
/// from due time to reply, with `client.send` and `client.recv` children.
pub fn tcp_open_loop(
    addr: SocketAddr,
    dataset: &str,
    stream: &Stream,
    first_pos: u64,
    rate: f64,
    window: Duration,
    origin: Option<Instant>,
) -> Phase {
    let sched = Schedule::new(Instant::now() + CONNECT_LEAD, rate);
    let total = sched.count_within(window);
    let mut timed: Vec<(u64, Timing)> = Vec::new();
    let mut out = Phase {
        next_pos: first_pos + total,
        ..Phase::default()
    };
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut client = connect(addr);
                    let mut tracer = origin.map(Tracer::new);
                    // Sized up front: growing these mid-phase would stall
                    // the thread while it copies.
                    let share = (total / THREADS + 1) as usize;
                    let mut phase = Phase {
                        records: Vec::with_capacity(share),
                        ..Phase::default()
                    };
                    let mut timed = Vec::with_capacity(share);
                    // (schedule index, request id, sent, request span)
                    let mut outstanding: VecDeque<(u64, u64, Instant, Option<usize>)> =
                        VecDeque::new();
                    let mut next = t;
                    loop {
                        if next < total && outstanding.len() < MAX_OUTSTANDING {
                            let due = sched.due(next);
                            if Instant::now() >= due || outstanding.is_empty() {
                                wait_until(due);
                                let pos = first_pos + next;
                                let q = stream.query(stream.qidx(pos));
                                let sent = Instant::now();
                                let id = client.send(dataset, 1, std::slice::from_ref(q));
                                let after = Instant::now();
                                phase.tally.attempted += 1;
                                let span = tracer.as_mut().map(|tr| {
                                    let req = tr.record("loadgen.request", pos, None, due, after);
                                    tr.record("client.send", pos, Some(req), sent, after);
                                    req
                                });
                                match id {
                                    Ok(id) => outstanding.push_back((next, id, sent, span)),
                                    Err(_) => phase.tally.transport_errors += 1,
                                }
                                next += THREADS;
                                continue;
                            }
                        }
                        let Some((i, id, sent, span)) = outstanding.pop_front() else {
                            break;
                        };
                        let pos = first_pos + i;
                        let recv_start = Instant::now();
                        let outcome = client.recv(id);
                        let done = Instant::now();
                        if let (Some(tr), Some(req)) = (tracer.as_mut(), span) {
                            tr.record("client.recv", pos, Some(req), recv_start, done);
                            tr.set_end(req, done);
                        }
                        if let Some(r) = absorb(outcome, stream.qidx(pos), &mut phase.tally) {
                            phase.records.push(r);
                            timed.push((i, Timing::new(sched.due(i), sent, done)));
                        }
                    }
                    phase.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
                    (phase, timed)
                })
            })
            .collect();
        for th in threads {
            let (phase, t) = th.join().expect("load thread panicked");
            out.merge(phase);
            timed.extend(t);
        }
    });
    timed.sort_by_key(|&(i, _)| i);
    out.timings = timed.into_iter().map(|(_, t)| t).collect();
    out
}

/// Closed loop over TCP: each thread keeps `depth` requests in flight on
/// its connection and sends the next one as each reply lands, until
/// `window` has passed; then it drains.
pub fn tcp_closed_loop(
    addr: SocketAddr,
    dataset: &str,
    stream: &Stream,
    first_pos: u64,
    depth: usize,
    window: Duration,
    windows: usize,
) -> Phase {
    let start = Instant::now() + CONNECT_LEAD;
    let end = start + window;
    let mut out = Phase {
        next_pos: first_pos,
        ..Phase::default()
    };
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut client = connect(addr);
                    let mut phase = Phase::default();
                    let mut outstanding: VecDeque<(u64, u64, Instant)> = VecDeque::new();
                    let mut pos = first_pos + t;
                    wait_until(start);
                    loop {
                        if Instant::now() < end && outstanding.len() < depth {
                            let sent = Instant::now();
                            let q = stream.query(stream.qidx(pos));
                            phase.tally.attempted += 1;
                            match client.send(dataset, 1, std::slice::from_ref(q)) {
                                Ok(id) => outstanding.push_back((pos, id, sent)),
                                Err(_) => phase.tally.transport_errors += 1,
                            }
                            pos += THREADS;
                            continue;
                        }
                        let Some((p, id, sent)) = outstanding.pop_front() else {
                            break;
                        };
                        let outcome = client.recv(id);
                        let done = Instant::now();
                        if let Some(r) = absorb(outcome, stream.qidx(p), &mut phase.tally) {
                            phase.completions.push((
                                done.saturating_duration_since(start).as_secs_f64(),
                                r.estimates.len() as u64,
                                (done - sent).as_secs_f64() * 1e6,
                            ));
                            phase.records.push(r);
                        }
                    }
                    phase.next_pos = pos;
                    phase
                })
            })
            .collect();
        for k in 0..=windows {
            wait_until(start + window.mul_f64(k as f64 / windows as f64));
            out.cpu_marks.push(crate::cpu::process_seconds());
        }
        for th in threads {
            out.merge(th.join().expect("load thread panicked"));
        }
    });
    out
}

/// Sends `qidxs` one at a time over one connection (warm-up, probes);
/// returns the replies' records.
pub fn tcp_sequential(
    client: &mut FjClient,
    dataset: &str,
    stream: &Stream,
    qidxs: &[u32],
) -> Phase {
    let mut phase = Phase::default();
    for &qi in qidxs {
        phase.tally.attempted += 1;
        let outcome = client.call(dataset, 1, std::slice::from_ref(stream.query(qi)));
        if let Some(r) = absorb(outcome, qi, &mut phase.tally) {
            phase.records.push(r);
        }
    }
    phase
}

/// The in-process service's view of one request.
pub struct ServiceTiming {
    pub queue_wait_us: f64,
    pub estimate_us: f64,
}

/// The open loop against an in-process [`EstimatorService`]: the same
/// schedule and stream, no sockets. One thread submits on schedule, one
/// collects replies in submission order.
pub fn inproc_open_loop(
    service: &EstimatorService,
    stream: &Stream,
    first_pos: u64,
    rate: f64,
    window: Duration,
) -> (Phase, Vec<ServiceTiming>) {
    let sched = Schedule::new(Instant::now() + CONNECT_LEAD, rate);
    let total = sched.count_within(window);
    let (tx, rx) = mpsc::channel::<(u64, Instant, Ticket)>();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut phase = Phase::default();
            let mut timings = Vec::new();
            for (i, sent, ticket) in rx {
                let pos = first_pos + i;
                let reply = ticket.wait();
                let done = Instant::now();
                match reply {
                    Ok(resp) => {
                        phase.tally.served += 1;
                        phase.timings.push(Timing::new(sched.due(i), sent, done));
                        timings.push(ServiceTiming {
                            queue_wait_us: resp.queue_wait.as_secs_f64() * 1e6,
                            estimate_us: resp.estimate_time.as_secs_f64() * 1e6,
                        });
                        phase.records.push(Record {
                            qidx: stream.qidx(pos),
                            epoch: resp.model_epoch,
                            estimates: resp.estimates,
                        });
                    }
                    Err(ServiceError::DeadlineExceeded) => phase.tally.timeouts += 1,
                    Err(_) => phase.tally.query_errors += 1,
                }
            }
            (phase, timings)
        });
        for i in 0..total {
            let q = stream.query(stream.qidx(first_pos + i)).clone();
            wait_until(sched.due(i));
            let sent = Instant::now();
            let ticket = service.submit_request(EstimateRequest::new(q));
            tx.send((i, sent, ticket)).expect("collector alive");
        }
        drop(tx);
        let (mut phase, timings) = collector.join().expect("collector panicked");
        phase.tally.attempted = total;
        phase.next_pos = first_pos + total;
        (phase, timings)
    })
}
