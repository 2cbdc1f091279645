//! In-memory spans recorded around the benchmark's calls into each crate.
//!
//! A span carries its name, the layer (crate) it times, start and end, its
//! parent span and an optional request id. Spans are kept in memory and
//! written out once, when the benchmark ends. Spans inside the crates are not
//! recorded: a call into `Lifter::lift` is one `core` span even though the
//! lifter runs the `machine` and `dbi` layers internally.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The layer a span is charged to: one per crate, plus the benchmark itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The benchmark's own work (input generation, checks, bookkeeping).
    Bench,
    /// `helium-machine`: the VM running the legacy binaries.
    Machine,
    /// `helium-dbi`: coverage, profiling and trace collection.
    Dbi,
    /// `helium-core`: localization, extraction and code generation.
    Core,
    /// `helium-halide`: compiling and running lifted pipelines.
    Halide,
    /// `helium-tune`: ranking candidate schedules.
    Tune,
    /// `helium-serve`: the realize service.
    Serve,
    /// `helium-apps`: the native scalar ports (the baseline).
    Apps,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Machine,
        Layer::Dbi,
        Layer::Core,
        Layer::Halide,
        Layer::Tune,
        Layer::Serve,
        Layer::Apps,
        Layer::Bench,
    ];

    /// The layer's name in metric keys and the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Machine => "machine",
            Layer::Dbi => "dbi",
            Layer::Core => "core",
            Layer::Halide => "halide",
            Layer::Tune => "tune",
            Layer::Serve => "serve",
            Layer::Apps => "apps",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer the span's self time is charged to.
    pub layer: Layer,
    /// What the span timed, e.g. `dbi.coverage`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (serving only).
    pub request: Option<u64>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Recorded after the fact and overlapping its siblings (a request in
    /// flight while the generator keeps working): kept in the trace file,
    /// left out of self-time accounting so overlapping spans are not counted
    /// twice.
    pub detached: bool,
}

/// Self time of every span: its duration minus the part of it covered by
/// its non-detached children (overlaps between children counted once).
/// Detached spans get a self time of zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans.iter().filter(|s| !s.detached) {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            if span.detached {
                return 0;
            }
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer in milliseconds over span `root` and every span
/// nested in it; the values sum to `root`'s duration. Spans are stored in
/// start order, so a span's parent always precedes it.
pub fn layer_self_ms(spans: &[Span], root: usize) -> BTreeMap<Layer, f64> {
    let mut inside = vec![false; spans.len()];
    let mut out: BTreeMap<Layer, f64> = Layer::ALL.iter().map(|&l| (l, 0.0)).collect();
    for (i, (span, ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        inside[i] = i == root || span.parent.is_some_and(|p| inside[p]);
        if inside[i] {
            *out.entry(span.layer).or_default() += ns as f64 / 1e6;
        }
    }
    out
}

/// Records spans when enabled; otherwise every call is a direct pass-through.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, charged to `layer`.
    pub fn span<R>(&self, layer: Layer, name: &str, f: impl FnOnce() -> R) -> R {
        self.span_for(layer, name, None, f)
    }

    /// [`Self::span`] for a span that belongs to request `request`.
    pub fn span_for<R>(
        &self,
        layer: Layer,
        name: &str,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.ns(Instant::now());
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                layer,
                name: name.to_string(),
                parent: self.stack.borrow().last().copied(),
                request,
                start_ns: start,
                end_ns: start,
                detached: false,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Record a detached span for request `request` that ran from `start` to
    /// `end`, under the currently open span.
    pub fn record(&self, layer: Layer, name: &str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            layer,
            name: name.to_string(),
            parent: self.stack.borrow().last().copied(),
            request: Some(request),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            detached: true,
        };
        self.spans.borrow_mut().push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Write every span as one JSON object per line to `path`.
    ///
    /// # Errors
    /// Returns the I/O error if the file cannot be created or written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"detached\":{}}}",
                opt(s.parent.map(|p| p as u64)),
                s.layer.name(),
                s.name,
                opt(s.request),
                s.start_ns,
                s.end_ns,
                s.detached
            );
        }
        std::fs::write(path, text)
    }
}
