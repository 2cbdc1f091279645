//! Self-tests of the benchmark's own measurement code.

use helium_perfbench::openloop::{run_open_loop, Arrival, Service};
use helium_perfbench::stats::{geomean, geomean_ratio, median, percentile, tail};
use helium_perfbench::trace::{layer_self_ms, self_times, Layer, Span, Tracer};
use std::cell::Cell;
use std::time::{Duration, Instant};

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.90), Some(90.0));
    assert_eq!(
        percentile(&samples, 0.95),
        None,
        "only 5 samples lie beyond p95"
    );
    assert_eq!(percentile(&samples, 0.99), None);
    assert_eq!(tail(&samples), Some((90, 90.0)));
    let many: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&many, 0.99), Some(990.0));
    assert_eq!(tail(&many), Some((99, 990.0)));
    assert_eq!(tail(&samples[..10]), None, "ten samples hold no percentile");
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
}

fn span(parent: Option<usize>, start_ns: u64, end_ns: u64, detached: bool) -> Span {
    Span {
        layer: Layer::Bench,
        name: "s".into(),
        parent,
        request: None,
        start_ns,
        end_ns,
        detached,
    }
}

#[test]
fn self_time_subtracts_children_once() {
    let spans = vec![
        span(None, 0, 100, false),    // 0: root
        span(Some(0), 10, 40, false), // 1: child
        span(Some(1), 20, 30, false), // 2: grandchild
        span(Some(0), 50, 60, false), // 3: child
        span(Some(0), 0, 100, true),  // 4: detached request span
        span(None, 0, 100, false),    // 5: second root
        span(Some(5), 10, 50, false), // 6: overlapping children
        span(Some(5), 40, 60, false), // 7
    ];
    assert_eq!(self_times(&spans), vec![60, 20, 10, 10, 0, 50, 40, 20]);
}

#[test]
fn layer_self_times_account_for_their_root_only() {
    let tracer = Tracer::new(true);
    let spin = |ms: u64| {
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(ms) {}
    };
    tracer.span(Layer::Bench, "named", || {
        tracer.span(Layer::Core, "core.lift", || {
            spin(2);
            tracer.span(Layer::Dbi, "dbi.trace", || spin(3));
        });
        tracer.span(Layer::Halide, "halide.run", || spin(2));
    });
    // A second root, as the other workloads of a traced run: its spans
    // must not be charged to the first.
    tracer.span(Layer::Bench, "other", || {
        tracer.span(Layer::Serve, "serve.openloop", || spin(4));
    });
    let spans = tracer.spans();
    let root = (spans[0].end_ns - spans[0].start_ns) as f64 / 1e6;
    let layers = layer_self_ms(&spans, 0);
    let total: f64 = layers.values().sum();
    assert!((total - root).abs() < 1e-6, "{total} vs {root}");
    assert_eq!(layers[&Layer::Serve], 0.0, "the other root is excluded");
    // The core span's self time excludes its dbi child exactly.
    let core = (spans[1].end_ns - spans[1].start_ns) as f64 / 1e6;
    assert!((layers[&Layer::Core] + layers[&Layer::Dbi] - core).abs() < 1e-6);
    assert!(layers[&Layer::Dbi] >= 3.0 && layers[&Layer::Core] >= 2.0);
    let other = layer_self_ms(&spans, 4);
    assert!(other[&Layer::Serve] >= 4.0 && other[&Layer::Core] == 0.0);
    let other_root = (spans[4].end_ns - spans[4].start_ns) as f64 / 1e6;
    assert!((other.values().sum::<f64>() - other_root).abs() < 1e-6);
    assert!(Tracer::new(false).span(Layer::Core, "x", || 7) == 7);
    assert!(Tracer::new(false).spans().is_empty());
}

/// A service whose every request completes at `ready`, or on submission
/// when that is later; the first submission blocks for `submit_stall`.
struct Stalled {
    ready: Instant,
    submit_stall: Duration,
    submissions: Cell<usize>,
}

impl Service for Stalled {
    type Ticket = Instant;
    fn submit(&self, _kind: usize) -> Result<Instant, String> {
        if self.submissions.replace(self.submissions.get() + 1) == 0 {
            std::thread::sleep(self.submit_stall);
        }
        Ok(self.ready.max(Instant::now()))
    }
    fn is_done(&self, ticket: &Instant) -> bool {
        Instant::now() >= *ticket
    }
    fn finish(&self, _ticket: Instant, _kind: usize) -> bool {
        true
    }
    fn queued(&self) -> usize {
        0
    }
}

fn every_ms(n: u64) -> Vec<Arrival> {
    (0..n)
        .map(|i| Arrival {
            due: Duration::from_millis(i),
            kind: 0,
        })
        .collect()
}

#[test]
fn a_stalled_server_shows_in_later_requests() {
    let service = Stalled {
        ready: Instant::now() + Duration::from_millis(60),
        submit_stall: Duration::ZERO,
        submissions: Cell::new(0),
    };
    let report = run_open_loop(
        &service,
        &every_ms(40),
        Duration::from_secs(1),
        &Tracer::new(false),
    );
    assert_eq!(report.latency_ms.len(), 40);
    // Requests are completed in order of submission; request i was due at
    // i ms and could not finish before the stall ended at ~60 ms.
    let mut by_due = report.latency_ms.clone();
    by_due.sort_by(|a, b| b.total_cmp(a));
    for (i, latency) in by_due.iter().enumerate() {
        assert!(*latency >= 55.0 - i as f64, "request {i}: {latency} ms");
    }
    assert!(report.good_frac(10.0) < 0.01);
}

#[test]
fn a_stalled_submit_counts_against_requests_due_during_it() {
    let service = Stalled {
        ready: Instant::now(),
        submit_stall: Duration::from_millis(50),
        submissions: Cell::new(0),
    };
    let report = run_open_loop(
        &service,
        &every_ms(40),
        Duration::from_secs(1),
        &Tracer::new(false),
    );
    // The generator could not submit request i (due at i ms) before the
    // first submit returned at ~50 ms: both its lateness and its latency
    // from the due time show the stall, though the service itself is fast.
    for i in 1..40 {
        assert!(
            report.late_ms[i] >= 45.0 - i as f64,
            "late {i}: {}",
            report.late_ms[i]
        );
    }
    let slow = report.latency_ms.iter().filter(|&&l| l >= 20.0).count();
    assert!(
        slow >= 25,
        "{slow} requests show the stall: {:?}",
        report.latency_ms
    );
}

#[test]
fn geometric_mean_ratio() {
    let g = geomean_ratio(&[2.0, 8.0], &[1.0, 2.0]).expect("positive values");
    assert!((g - 8f64.sqrt()).abs() < 1e-12);
    assert!((geomean(&[1.0, 4.0, 16.0]).expect("positive") - 4.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[1.0, f64::NAN]), None);
}
