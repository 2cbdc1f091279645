//! Open-loop load generation: requests are sent on a seeded Poisson schedule
//! whether or not earlier ones finished, and each is timed from the moment
//! it was due, so a stall shows in every request that queued behind it.

use crate::trace::{Layer, Tracer};
use rand::prelude::*;
use std::time::{Duration, Instant};

/// The service under load, seen from one generator thread.
pub trait Service {
    /// Handle of an accepted request.
    type Ticket;
    /// Submit a request of `kind` without blocking on its result. An error
    /// means the service refused it (full queue, shed, quota, shutdown).
    ///
    /// # Errors
    /// The refusal reason.
    fn submit(&self, kind: usize) -> Result<Self::Ticket, String>;
    /// Whether the request's result has arrived.
    fn is_done(&self, ticket: &Self::Ticket) -> bool;
    /// Take a finished request's result; `true` when it succeeded and its
    /// output is correct.
    fn finish(&self, ticket: Self::Ticket, kind: usize) -> bool;
    /// Requests waiting in the service's queue.
    fn queued(&self) -> usize;
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When it is due, from the start of the phase.
    pub due: Duration,
    /// Which request template it uses.
    pub kind: usize,
}

/// Poisson arrivals at `rate` per second over `duration`, each of a kind
/// drawn uniformly from `0..kinds`.
pub fn poisson_arrivals(seed: u64, rate: f64, duration: Duration, kinds: usize) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= duration.as_secs_f64() {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            kind: rng.gen_range(0..kinds),
        });
    }
}

/// What one open-loop phase measured.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// Requests scheduled.
    pub attempted: usize,
    /// Requests the service refused at submission.
    pub refused: usize,
    /// Accepted requests that errored, returned a wrong output, or did not
    /// finish before the drain limit.
    pub failed: usize,
    /// Latency of each successful request, from its due time to when the
    /// generator saw it done, in ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator submitted each request, in ms.
    pub late_ms: Vec<f64>,
    /// Time spent inside each submit call, in µs.
    pub submit_us: Vec<f64>,
    /// Largest queue length seen after a submission.
    pub backlog_max: usize,
    /// Polling passes over the outstanding requests.
    pub polls: u64,
    /// Longest gap between two polling passes, in µs: the resolution of
    /// every completion time.
    pub poll_gap_max_us: f64,
    /// Wall time of the phase including the drain, in s.
    pub wall_s: f64,
}

impl OpenLoopReport {
    /// Mean gap between polling passes, in µs.
    pub fn poll_gap_mean_us(&self) -> f64 {
        self.wall_s * 1e6 / self.polls.max(1) as f64
    }

    /// Share of attempted requests that succeeded within `limit_ms`;
    /// refused and failed requests count as misses.
    pub fn good_frac(&self, limit_ms: f64) -> f64 {
        let good = self.latency_ms.iter().filter(|&&l| l <= limit_ms).count();
        good as f64 / self.attempted.max(1) as f64
    }
}

/// Run `arrivals` against `service`. Between due times the generator polls
/// every outstanding request; a completion is stamped at the poll that sees
/// it. After the last arrival it drains for at most `drain`.
pub fn run_open_loop<S: Service>(
    service: &S,
    arrivals: &[Arrival],
    drain: Duration,
    tracer: &Tracer,
) -> OpenLoopReport {
    let mut report = OpenLoopReport {
        attempted: arrivals.len(),
        ..OpenLoopReport::default()
    };
    let mut outstanding: Vec<(u64, usize, Instant, S::Ticket)> = Vec::new();
    let mut last_poll = Instant::now();
    let start = last_poll;
    let mut poll = |outstanding: &mut Vec<(u64, usize, Instant, S::Ticket)>,
                    report: &mut OpenLoopReport| {
        let now = Instant::now();
        report.polls += 1;
        let gap = now.duration_since(last_poll).as_secs_f64() * 1e6;
        report.poll_gap_max_us = report.poll_gap_max_us.max(gap);
        last_poll = now;
        let mut i = 0;
        while i < outstanding.len() {
            if service.is_done(&outstanding[i].3) {
                let (id, kind, due, ticket) = outstanding.swap_remove(i);
                tracer.record(Layer::Serve, "serve.request", id, due, now);
                if service.finish(ticket, kind) {
                    report
                        .latency_ms
                        .push(now.duration_since(due).as_secs_f64() * 1e3);
                } else {
                    report.failed += 1;
                }
            } else {
                i += 1;
            }
        }
    };
    for (id, arrival) in arrivals.iter().enumerate() {
        let due = start + arrival.due;
        loop {
            poll(&mut outstanding, &mut report);
            if Instant::now() >= due {
                break;
            }
            std::thread::yield_now();
        }
        let submitted = Instant::now();
        report
            .late_ms
            .push(submitted.duration_since(due).as_secs_f64() * 1e3);
        let id = id as u64;
        let result = tracer.span_for(Layer::Serve, "serve.submit", Some(id), || {
            service.submit(arrival.kind)
        });
        report
            .submit_us
            .push(submitted.elapsed().as_secs_f64() * 1e6);
        match result {
            Ok(ticket) => outstanding.push((id, arrival.kind, due, ticket)),
            Err(_) => report.refused += 1,
        }
        report.backlog_max = report.backlog_max.max(service.queued());
    }
    let drain_until = Instant::now() + drain;
    while !outstanding.is_empty() && Instant::now() < drain_until {
        poll(&mut outstanding, &mut report);
        std::thread::yield_now();
    }
    report.failed += outstanding.len();
    report.wall_s = start.elapsed().as_secs_f64();
    report
}
