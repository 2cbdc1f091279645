//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <lift_small|kernels_1mp|serve_open|lift_threshold> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Prints a human report on stderr and, as the last line of stdout, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

use helium_halide::Target;
use helium_perfbench::report::{result_line, Outcome};
use helium_perfbench::trace::{layer_self_ms, Layer, Tracer};
use helium_perfbench::workloads::{self, RunConfig, SETUP_REPS};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads every traced run covers.
const WORKLOADS: [&str; 3] = ["lift_small", "kernels_1mp", "serve_open"];
/// Runs untraced only: it keeps the failing `threshold` lift in view.
const LIFT_THRESHOLD: &str = "lift_threshold";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .chain([&LIFT_THRESHOLD])
                        .find(|w| **w == value)
                        .ok_or(format!(
                            "unknown workload {value}; one of {WORKLOADS:?} or {LIFT_THRESHOLD}"
                        ))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run(workload: &str, cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    match workload {
        "lift_small" => workloads::lift_small(cfg, tracer),
        "kernels_1mp" => workloads::kernels_1mp(cfg, tracer),
        "serve_open" => workloads::serve_open(cfg, tracer),
        _ => workloads::lift_threshold(cfg, tracer),
    }
}

/// The layers each workload calls into, whose self times the traced run
/// reports under that workload's name. A layer left out is never entered
/// by the workload, so its self time there is zero.
fn traced_layers(workload: &str) -> &'static [Layer] {
    match workload {
        "lift_small" => &[
            Layer::Machine,
            Layer::Dbi,
            Layer::Core,
            Layer::Halide,
            Layer::Tune,
            Layer::Apps,
            Layer::Bench,
        ],
        "kernels_1mp" => &[
            Layer::Core,
            Layer::Halide,
            Layer::Tune,
            Layer::Apps,
            Layer::Bench,
        ],
        _ => &[
            Layer::Core,
            Layer::Halide,
            Layer::Tune,
            Layer::Serve,
            Layer::Apps,
            Layer::Bench,
        ],
    }
}

/// The traced run: the named workload once with spans off, then every
/// workload once with spans on, each under a root span of its own, so every
/// layer's metrics are measured whichever workload is named. Self times and
/// wall time are reported per workload, each from its own root span's
/// subtree. The result line's counts are the named workload's alone; the
/// others' are reported as notes. The two runs of the named workload give
/// the tracing overhead.
fn traced(args: &Args) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&args.workload) {
        return Err(format!("{} has no traced run", args.workload));
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds / 3.0,
        setup_reps: 1,
    };
    let untraced = run(args.workload, &cfg, &Tracer::new(false))?
        .end_to_end
        .get("op_p50_ms")
        .ok_or("no untraced headline")?;
    let tracer = Tracer::new(true);
    let mut out = Outcome::default();
    for w in WORKLOADS {
        let o = tracer.span(Layer::Bench, w, || run(w, &cfg, &tracer))?;
        if w == args.workload {
            out.count(o.attempted, o.failed);
            out.end_to_end = o.end_to_end;
            out.notes.extend(o.notes);
        } else {
            out.notes.push(format!(
                "also traced, for its layer metrics: {w}, {} failed of {} attempted",
                o.failed, o.attempted
            ));
        }
        out.per_layer.extend(o.per_layer);
    }
    let traced = out
        .end_to_end
        .get("op_p50_ms")
        .ok_or("no traced headline")?;
    let spans = tracer.spans();
    for w in WORKLOADS {
        let root = spans
            .iter()
            .position(|s| s.parent.is_none() && s.name == w)
            .ok_or(format!("no root span for {w}"))?;
        let wall_ms = (spans[root].end_ns - spans[root].start_ns) as f64 / 1e6;
        let self_ms = layer_self_ms(&spans, root);
        let listed = traced_layers(w);
        for layer in listed {
            out.per_layer.put(
                format!("self_ms.{w}.{}", layer.name()),
                self_ms[layer],
                "ms",
            );
        }
        out.per_layer
            .put(format!("trace.wall_ms.{w}"), wall_ms, "ms");
        let unlisted: f64 = self_ms
            .iter()
            .filter(|(l, _)| !listed.contains(l))
            .map(|(_, ms)| ms)
            .sum();
        out.notes.push(format!(
            "{w}: layer self times sum to {:.3} of {wall_ms:.3} traced wall ms ({unlisted:.3} ms in layers it is not listed with)",
            self_ms.values().sum::<f64>()
        ));
    }
    let m = &mut out.per_layer;
    m.put("trace.spans", spans.len() as f64, "count");
    m.put("trace.overhead_frac", traced / untraced - 1.0, "ratio");
    out.notes.push(format!(
        "tracing overhead on {}: op_p50_ms {traced:.4} traced vs {untraced:.4} untraced",
        args.workload
    ));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("could not write spans to {}: {e}", path.display())),
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let helium_env: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HELIUM_"))
        .collect();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | nproc {} | isa {} (detected), {} (in effect) | HELIUM_* set: {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        Target::detect().effective_isa().as_str(),
        Target::current().effective_isa().as_str(),
        if helium_env.is_empty() { "none".to_string() } else { helium_env.join(",") }
    );
    let outcome = if args.trace {
        traced(&args)
    } else {
        let cfg = RunConfig {
            seed: args.seed,
            seconds: args.seconds,
            setup_reps: SETUP_REPS,
        };
        run(args.workload, &cfg, &Tracer::new(false))
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for (name, value, unit) in &metrics.0 {
        eprintln!("  {name:<34} {value:>14.6} {unit}");
    }
    match result_line(outcome.attempted, outcome.failed, metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
