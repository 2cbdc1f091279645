//! The workloads. Each builds its inputs from the seed, sets up (untimed,
//! but measured as `setup_s`), then measures for the given number of seconds
//! and bit-checks every lifted output against the native port.
//!
//! The three main workloads report the same end-to-end metric names, each
//! defined on the workload's own inputs (see `perfbench/README.md`). With an
//! enabled [`Tracer`] they also fill the per-layer metrics of the layers
//! they exercise. `lift_threshold` reports lift time alone.

use crate::apps::{build_app, build_threshold, derive_seed, App, ALIGN, PAD, PROGRAMS};
use crate::kernels::{Bound, Kernel, Native};
use crate::openloop::{poisson_arrivals, run_open_loop, OpenLoopReport, Service};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{geomean, geomean_ratio, median, percentile, tail};
use crate::trace::{Layer, Tracer};
use helium_apps::PlanarImage;
use helium_core::localize::localize;
use helium_dbi::Instrumenter;
use helium_halide::{CompileOptions, CompiledPipeline, CounterSnapshot, PipelineProfile, Schedule};
use helium_serve::{ServeConfig, ServeRequest, Server, Ticket};
use helium_tune::{enumerate_candidates, rank_candidates, SearchConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Grid of the miniGMG smooth in `lift_small` and `serve_open` (lifted and
/// run at this size).
pub const GRID_SMALL: (usize, usize, usize) = (16, 16, 8);
/// Grid of the smooth in `kernels_1mp`: its lifted index constants bake in
/// the grid strides, so it runs at the size it was lifted at.
pub const GRID_KERNELS: (usize, usize, usize) = (32, 32, 16);
/// The `kernels_1mp` image: one plane plus its output is about 0.8 MB of
/// u8, inside a 4 MiB L2.
pub const KERNEL_IMAGE: (usize, usize) = (1024, 768);
/// The single-plane size of a `serve_open` request.
pub const SERVE_IMAGE: (usize, usize) = (192, 128);
/// Frozen `serve_open` arrival rates (requests/s): about 20% and 40% of the
/// 4750–6100 requests/s a closed-loop calibration measured with two workers
/// on two cores (see `perfbench/README.md`). Periods of host contention roughly halve that capacity, and a
/// saturated queue refuses requests, so the rates stay below the 40% and 75%
/// a quiet host would allow.
pub const SERVE_RATES: (f64, f64) = (1000.0, 2000.0);
/// Latency limit for `serve_good_frac`, from each request's due time.
pub const SERVE_LIMIT_MS: f64 = 5.0;
/// Back-to-back runs of each plane of a fresh lift in `lift_small`, where
/// one run at 48×32 takes tens of microseconds. A fresh compile's first run
/// is slower and later runs switch between speed levels, so the median over
/// all runs needs many runs per burst to hold still.
const SMALL_REPS: usize = 25;
/// Seeded inputs `lift_threshold` lifts the threshold filter from.
const THRESHOLD_INPUTS: usize = 32;
/// Back-to-back runs of each plane (and of the native port) per pass.
const KERNEL_REPS: usize = 5;
/// Times set-up is repeated at least; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Seed and run length of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// Set-up repetitions.
    pub setup_reps: usize,
}

/// One kernel bound to one input, compiled under its schedule, with the
/// timings of its runs and of the native port on the same input.
struct KernelRun {
    kernel: Kernel,
    bound: Bound,
    compiled: Arc<CompiledPipeline>,
    profile: PipelineProfile,
    /// Native port output on the bound input, for checking served results.
    reference: Native,
    lifted_ns: Vec<f64>,
    native_ns: Vec<f64>,
    compile_ms: Vec<f64>,
}

impl KernelRun {
    fn new(
        kernel: Kernel,
        image: Option<&PlanarImage>,
        schedule: &Schedule,
        tracer: &Tracer,
    ) -> Result<(KernelRun, f64), String> {
        let bound = kernel.bind(image);
        let (compiled, profile, ms) = cold_compile(&kernel, &bound, schedule, tracer)?;
        let reference = tracer.span(Layer::Apps, "apps.native", || kernel.native(image));
        Ok((
            KernelRun {
                kernel,
                bound,
                compiled: Arc::new(compiled),
                profile,
                reference,
                lifted_ns: Vec::new(),
                native_ns: Vec::new(),
                compile_ms: Vec::new(),
            },
            ms,
        ))
    }

    fn lifted_ns_per_cell(&self) -> f64 {
        median(&self.lifted_ns).unwrap_or(f64::NAN) / self.bound.cells as f64
    }

    fn native_ns_per_cell(&self) -> f64 {
        let cells = self.bound.cells * self.kernel.plane_count();
        median(&self.native_ns).unwrap_or(f64::NAN) / cells as f64
    }

    /// Run every plane in a burst of `reps` back-to-back runs, then the
    /// native port on the same input in a burst as long, and bit-check each
    /// plane's last output. Every timed run is kept: per-kernel figures are
    /// medians over all runs of all passes. Returns (checked, failed, ms of
    /// one run of every plane at its burst's median).
    fn pass(
        &mut self,
        image: Option<&PlanarImage>,
        reps: usize,
        tracer: &Tracer,
    ) -> (usize, usize, f64) {
        let planes = self.kernel.plane_count();
        let mut outputs = Vec::with_capacity(planes);
        let mut pass_ms = 0.0;
        for p in 0..planes {
            let inputs = self.bound.inputs(p);
            let mut burst = Vec::with_capacity(reps);
            let mut last = None;
            for _ in 0..reps.max(1) {
                let t = Instant::now();
                let out = tracer.span(Layer::Halide, "halide.run", || {
                    self.compiled.run(&inputs, &self.bound.extents)
                });
                let ns = t.elapsed().as_nanos() as f64;
                if out.is_ok() {
                    burst.push(ns);
                }
                last = Some(out);
            }
            if let Some(ns) = median(&burst) {
                pass_ms += ns / 1e6;
            }
            self.lifted_ns.extend(burst);
            outputs.push(last.and_then(Result::ok));
        }
        let mut native = None;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            native = Some(tracer.span(Layer::Apps, "apps.native", || self.kernel.native(image)));
            self.native_ns.push(t.elapsed().as_nanos() as f64);
        }
        let native = native.expect("at least one native run");
        let failed = tracer.span(Layer::Bench, "bench.check", || {
            outputs
                .iter()
                .enumerate()
                .filter(|(p, out)| {
                    !out.as_ref()
                        .is_some_and(|o| self.kernel.matches(*p, o, &native))
                })
                .count()
        });
        (planes, failed, pass_ms)
    }
}

/// A cold `Pipeline::compile` plus `dry_run` at the bound extents.
fn cold_compile(
    kernel: &Kernel,
    bound: &Bound,
    schedule: &Schedule,
    tracer: &Tracer,
) -> Result<(CompiledPipeline, PipelineProfile, f64), String> {
    let t = Instant::now();
    let compiled = tracer
        .span(Layer::Halide, "halide.compile", || {
            kernel
                .pipeline
                .compile(schedule, &CompileOptions::default())
        })
        .map_err(|e| format!("{}: compile: {e}", kernel.name))?;
    let profile = tracer
        .span(Layer::Halide, "halide.dry_run", || {
            compiled.dry_run(&bound.inputs(0), &bound.extents)
        })
        .map_err(|e| format!("{}: dry run: {e}", kernel.name))?;
    Ok((compiled, profile, t.elapsed().as_secs_f64() * 1e3))
}

/// The cost model's top-ranked schedule (no timed trials), the number of
/// candidates ranked, and the ranking time in ms.
fn model_pick(
    kernel: &Kernel,
    bound: &Bound,
    tracer: &Tracer,
) -> Result<(Schedule, usize, f64), String> {
    let t = Instant::now();
    let candidates = enumerate_candidates(&kernel.pipeline, SearchConfig::default().max_candidates);
    let trials = tracer
        .span(Layer::Tune, "tune.rank", || {
            rank_candidates(
                &kernel.pipeline,
                &bound.extents,
                &bound.inputs(0),
                &candidates,
            )
        })
        .map_err(|e| format!("{}: ranking: {e}", kernel.name))?;
    Ok((
        trials[0].schedule.clone(),
        candidates.len(),
        t.elapsed().as_secs_f64() * 1e3,
    ))
}

/// Lift every program. A program that fails to lift (or whose lift this
/// benchmark cannot rebind) is counted as a failed operation and reported,
/// and the rest of the workload runs without it.
fn lift_all(
    cfg: &RunConfig,
    grid: (usize, usize, usize),
    tracer: &Tracer,
    out: &mut Outcome,
) -> (Vec<App>, Vec<Kernel>) {
    let (mut apps, mut kernels) = (Vec::new(), Vec::new());
    for index in 0..PROGRAMS {
        let app = tracer.span(Layer::Bench, "bench.input", || {
            build_app(cfg.seed, index, grid)
        });
        let request = tracer.span(Layer::Bench, "bench.request", || app.request());
        let lifted = tracer.span(Layer::Core, "core.lift", || app.lift(&request));
        match lifted
            .map_err(|e| e.to_string())
            .and_then(|l| Kernel::from_lift(&app, &l))
        {
            Ok(k) => {
                out.count(1, 0);
                apps.push(app);
                kernels.push(k);
            }
            Err(e) => {
                out.count(1, 1);
                out.notes
                    .push(format!("FAILED lift of {}: {e}", app.name()));
            }
        }
    }
    (apps, kernels)
}

/// Kernels bound to one input, under model-picked schedules.
struct Prepared {
    runs: Vec<KernelRun>,
    image: Option<PlanarImage>,
    rank_ms: Vec<f64>,
    candidates: usize,
}

/// Lift, rank and compile every kernel for `image` (the smooth's grid is
/// fixed by `grid`).
fn prepare(
    cfg: &RunConfig,
    grid: (usize, usize, usize),
    image_size: (usize, usize),
    tracer: &Tracer,
    out: &mut Outcome,
) -> Prepared {
    let (_, kernels) = lift_all(cfg, grid, tracer, out);
    let (w, h) = image_size;
    let image = tracer.span(Layer::Bench, "bench.image", || {
        PlanarImage::random(w, h, PAD, ALIGN, derive_seed(cfg.seed, 1000))
    });
    let mut prepared = Prepared {
        runs: Vec::new(),
        image: None,
        rank_ms: Vec::new(),
        candidates: 0,
    };
    for kernel in kernels {
        let bound = kernel.bind(Some(&image));
        let picked = model_pick(&kernel, &bound, tracer).and_then(|(schedule, n, ms)| {
            KernelRun::new(kernel, Some(&image), &schedule, tracer).map(|r| (r.0, n, ms))
        });
        match picked {
            Ok((run, n, ms)) => {
                prepared.candidates += n;
                prepared.rank_ms.push(ms);
                prepared.runs.push(run);
            }
            Err(e) => {
                out.count(1, 1);
                out.notes.push(format!("FAILED set-up: {e}"));
            }
        }
    }
    prepared.image = Some(image);
    prepared
}

/// Per-kernel and aggregate figures of a set of kernel runs.
fn kernel_metrics(runs: &[KernelRun], out: &mut Outcome) -> Result<(), String> {
    let lifted: Vec<f64> = runs.iter().map(KernelRun::lifted_ns_per_cell).collect();
    let native: Vec<f64> = runs.iter().map(KernelRun::native_ns_per_cell).collect();
    let geo = geomean(&lifted).ok_or("no kernel produced a lifted timing")?;
    let vs = geomean_ratio(&native, &lifted).ok_or("no kernel produced a native timing")?;
    // One plane of every kernel at its median speed.
    let cells: f64 = runs.iter().map(|r| r.bound.cells as f64).sum();
    let ns: f64 = runs
        .iter()
        .map(|r| median(&r.lifted_ns).unwrap_or(f64::NAN))
        .sum();
    let per_pass: Vec<f64> = transpose_sums(runs.iter().map(|r| r.compile_ms.as_slice()));
    let e2e = &mut out.end_to_end;
    e2e.put(
        "compile_ms",
        median(&per_pass).ok_or("no compile samples")?,
        "ms",
    );
    e2e.put("run_mpix_s", cells / ns * 1e3, "Mcell/s");
    e2e.put("run_ns_per_cell_geo", geo, "ns");
    e2e.put("lifted_vs_native", vs, "x");
    out.notes.push(format!(
        "lifted_vs_native bases: native ns/cell geomean {:.3}, lifted ns/cell geomean {geo:.3}",
        geomean(&native).unwrap_or(f64::NAN)
    ));
    for (r, (l, n)) in runs.iter().zip(lifted.iter().zip(&native)) {
        let s = r.compiled.schedule();
        out.notes.push(format!(
            "  {:<13} lifted {l:>8.3} ns/cell  native {n:>8.3} ns/cell  ratio {:>6.3}  ({} lifted / {} native runs, {} cells/run; schedule parallel={} tile={:?} width={})",
            r.kernel.name,
            n / l,
            r.lifted_ns.len(),
            r.native_ns.len(),
            r.bound.cells,
            s.parallel,
            s.tile,
            s.vector_width
        ));
    }
    Ok(())
}

/// Element-wise sums of equally long series (one value per pass).
fn transpose_sums<'a>(series: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut sums: Vec<f64> = Vec::new();
    for s in series {
        if sums.is_empty() {
            sums = s.to_vec();
        } else {
            for (acc, v) in sums.iter_mut().zip(s) {
                *acc += v;
            }
            sums.truncate(s.len());
        }
    }
    sums
}

/// Run set-up `cfg.setup_reps` times, keeping the last result (whose
/// failures are the ones reported) and every set-up's duration in seconds.
fn repeat_setup<T>(cfg: &RunConfig, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let value = setup();
        secs.push(t.elapsed().as_secs_f64());
        if secs.len() >= cfg.setup_reps.max(1) {
            return (value, secs);
        }
    }
}

fn finish(out: &mut Outcome, setup_s: &[f64], op_ms: &[f64]) -> Result<(), String> {
    out.end_to_end
        .put("setup_s", median(setup_s).ok_or("no set-up")?, "s");
    out.end_to_end.put(
        "peak_rss_mb",
        peak_rss_mb().ok_or("VmHWM unreadable")?,
        "MiB",
    );
    out.end_to_end.put(
        "op_p50_ms",
        median(op_ms).ok_or("no timed operations")?,
        "ms",
    );
    let op_tail = tail(op_ms).map_or("n/a (too few samples)".to_string(), |(p, v)| {
        format!("p{p} {v:.3} ms")
    });
    out.notes.push(format!(
        "op latency: {} samples, median {:.3} ms, {op_tail}",
        op_ms.len(),
        median(op_ms).unwrap_or(0.0)
    ));
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.notes.push(format!(
        "failed_frac {failed_frac} ratio ({} of {} operations)",
        out.failed, out.attempted
    ));
    Ok(())
}

/// `lift_small`: lift all seven programs again and again. Nearly all the
/// time is in `machine`, `dbi` and `core`.
///
/// # Errors
/// When no metric can be computed.
pub fn lift_small(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let ((apps, requests, schedules, mut out), setup_s) = repeat_setup(cfg, || {
        let mut out = Outcome::default();
        let (apps, kernels) = lift_all(cfg, GRID_SMALL, tracer, &mut out);
        let requests: Vec<_> = apps.iter().map(App::request).collect();
        // The cost model's pick at the lift size; every fresh lift of the
        // same program runs under it.
        let schedules: Vec<Schedule> = kernels
            .iter()
            .map(|k| match model_pick(k, &k.bind(None), tracer) {
                Ok((schedule, _, _)) => schedule,
                Err(e) => {
                    out.count(1, 1);
                    out.notes.push(format!("FAILED {e}"));
                    Schedule::naive()
                }
            })
            .collect();
        (apps, requests, schedules, out)
    });
    if tracer.enabled() {
        out.per_layer.extend(lift_layers(&apps, tracer)?);
    }
    let mut lift_ms = Vec::new();
    let mut runs: Vec<Option<KernelRun>> = (0..apps.len()).map(|_| None).collect();
    let start = Instant::now();
    while lift_ms.len() < 3 || start.elapsed().as_secs_f64() < cfg.seconds {
        let mut pass_ms = 0.0;
        for (i, app) in apps.iter().enumerate() {
            let t = Instant::now();
            let lifted = tracer.span(Layer::Core, "core.lift", || app.lift(&requests[i]));
            pass_ms += t.elapsed().as_secs_f64() * 1e3;
            let kernel = lifted
                .map_err(|e| e.to_string())
                .and_then(|l| Kernel::from_lift(app, &l));
            let kernel = match kernel {
                Ok(k) => {
                    out.count(1, 0);
                    k
                }
                Err(e) => {
                    out.count(1, 1);
                    out.notes
                        .push(format!("FAILED lift of {}: {e}", app.name()));
                    continue;
                }
            };
            // Each fresh lift is compiled cold and realized on the image it
            // was lifted from: halide does almost nothing here.
            let (mut run, ms) = match KernelRun::new(kernel, None, &schedules[i], tracer) {
                Ok(r) => r,
                Err(e) => {
                    out.count(1, 1);
                    out.notes.push(format!("FAILED {e}"));
                    continue;
                }
            };
            if let Some(prev) = runs[i].take() {
                run.lifted_ns = prev.lifted_ns;
                run.native_ns = prev.native_ns;
                run.compile_ms = prev.compile_ms;
            }
            run.compile_ms.push(ms);
            let (checked, failed, _) = run.pass(None, SMALL_REPS, tracer);
            out.count(checked, failed);
            runs[i] = Some(run);
        }
        lift_ms.push(pass_ms);
    }
    let runs: Vec<KernelRun> = runs.into_iter().flatten().collect();
    kernel_metrics(&runs, &mut out)?;
    out.notes.push(format!(
        "lift_s {:.4} s (median of {} lifts of all seven programs)",
        median(&lift_ms).unwrap_or(0.0) / 1e3,
        lift_ms.len()
    ));
    finish(&mut out, &setup_s, &lift_ms)?;
    Ok(out)
}

/// `lift_threshold`: lift the threshold filter from one seeded 48×32 input
/// after another and bit-check each lift's output on its own input. It is
/// not gated: lifting threshold fails on some inputs (see
/// [`build_threshold`]), and this workload keeps that defect in view.
///
/// # Errors
/// When no metric can be computed.
pub fn lift_threshold(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let (apps, setup_s) = repeat_setup(cfg, || {
        (0..THRESHOLD_INPUTS)
            .map(|n| build_threshold(cfg.seed, n))
            .collect::<Vec<_>>()
    });
    let mut out = Outcome::default();
    let mut lift_ms = Vec::new();
    let start = Instant::now();
    for (n, app) in apps.iter().enumerate().cycle() {
        if lift_ms.len() >= 3 && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        let t = Instant::now();
        let lifted = tracer.span(Layer::Core, "core.lift", || app.lift(&app.request()));
        lift_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let run = lifted
            .map_err(|e| e.to_string())
            .and_then(|l| Kernel::from_lift(app, &l))
            .and_then(|k| KernelRun::new(k, None, &Schedule::naive(), tracer));
        match run {
            Ok((mut run, _)) => {
                out.count(1, 0);
                let (checked, failed, _) = run.pass(None, 1, tracer);
                out.count(checked, failed);
            }
            Err(e) => {
                out.count(1, 1);
                out.notes
                    .push(format!("FAILED lift of threshold (input {n}): {e}"));
            }
        }
    }
    finish(&mut out, &setup_s, &lift_ms)?;
    Ok(out)
}

/// Per-layer figures of lifting, timed from outside: the VM run of each
/// legacy binary, and the instrumented runs and localization the lifter
/// performs, called directly next to a `Lifter::lift` of the same program.
fn lift_layers(apps: &[App], tracer: &Tracer) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let instr = Instrumenter::new();
    let (mut steps_all, mut vm_ns_all) = (0u64, 0.0);
    let (mut cov, mut prof, mut loc, mut trc, mut lift) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut records, mut dump, mut nodes, mut dyn_instrs, mut diff) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    for app in apps {
        let name = app.name();
        let t = Instant::now();
        let steps = tracer.span(Layer::Machine, "machine.run", || app.run_in_vm_counting());
        let vm_ms = ms(t);
        m.put(format!("machine.steps.{name}"), steps as f64, "count");
        m.put(format!("machine.vm_ms.{name}"), vm_ms, "ms");
        steps_all += steps;
        vm_ns_all += vm_ms * 1e6;

        let request = app.request();
        let program = app.program();
        let fail = |e: &dyn std::fmt::Display| format!("{name}: {e}");
        let t = Instant::now();
        let with = tracer
            .span(Layer::Dbi, "dbi.coverage", || {
                instr.coverage(program, &mut app.fresh_cpu(true))
            })
            .map_err(|e| fail(&e))?;
        let without = tracer
            .span(Layer::Dbi, "dbi.coverage", || {
                instr.coverage(program, &mut app.fresh_cpu(false))
            })
            .map_err(|e| fail(&e))?;
        cov += ms(t);
        let t = Instant::now();
        let diff_blocks = with.difference(&without);
        let profile = tracer
            .span(Layer::Dbi, "dbi.profile", || {
                instr.profile(program, &mut app.fresh_cpu(true), &diff_blocks)
            })
            .map_err(|e| fail(&e))?;
        prof += ms(t);
        let t = Instant::now();
        let localization = tracer
            .span(Layer::Core, "core.localize", || {
                localize(program, &with, &without, &profile, request.approx_data_size)
            })
            .map_err(|e| fail(&e))?;
        loc += ms(t);
        let t = Instant::now();
        let (trace, mem) = tracer
            .span(Layer::Dbi, "dbi.trace", || {
                instr.function_trace(
                    program,
                    &mut app.fresh_cpu(true),
                    localization.filter_function,
                    &localization.candidate_instructions,
                )
            })
            .map_err(|e| fail(&e))?;
        trc += ms(t);
        records += trace.records.len();
        dump += mem.size_bytes();
        let t = Instant::now();
        let lifted = tracer
            .span(Layer::Core, "core.lift", || app.lift(&request))
            .map_err(|e| fail(&e))?;
        lift += ms(t);
        nodes += lifted.stats.tree_sizes.iter().sum::<usize>();
        dyn_instrs += lifted.stats.dynamic_instruction_count;
        diff += lifted.stats.diff_basic_blocks;
    }
    m.put(
        "machine.ns_per_step",
        vm_ns_all / steps_all.max(1) as f64,
        "ns",
    );
    m.put("dbi.coverage_ms", cov, "ms");
    m.put("dbi.profile_ms", prof, "ms");
    m.put("dbi.trace_ms", trc, "ms");
    m.put("dbi.trace_records", records as f64, "count");
    m.put("dbi.dump_kb", dump as f64 / 1024.0, "KiB");
    m.put("core.localize_ms", loc, "ms");
    // Derived by subtraction: Lifter::lift runs reconstruction, layout
    // inference, trees, the symbolic solve and codegen inline.
    m.put(
        "core.extract_ms",
        (lift - cov - prof - loc - trc).max(0.0),
        "ms",
    );
    m.put("core.tree_nodes", nodes as f64, "count");
    m.put("core.dyn_instrs", dyn_instrs as f64, "count");
    m.put("core.diff_blocks", diff as f64, "count");
    Ok(m)
}

/// `kernels_1mp`: the lifted filters on a seeded 1024×768 image (and the
/// smooth on its lift grid), warm, interleaved with the native port. Nearly
/// all the time is `halide` execution; `lift` and `serve` are outside the
/// timed region.
///
/// # Errors
/// When no metric can be computed.
pub fn kernels_1mp(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let ((mut p, mut out), setup_s) = repeat_setup(cfg, || {
        let mut out = Outcome::default();
        let p = prepare(cfg, GRID_KERNELS, KERNEL_IMAGE, tracer, &mut out);
        (p, out)
    });
    let image = p.image.take();
    let counters = CounterSnapshot::take();
    let mut pass_ms = Vec::new();
    let start = Instant::now();
    while pass_ms.len() < 3 || start.elapsed().as_secs_f64() < cfg.seconds {
        let mut ms = 0.0;
        for run in &mut p.runs {
            let (checked, failed, run_ms) = run.pass(image.as_ref(), KERNEL_REPS, tracer);
            out.count(checked, failed);
            ms += run_ms;
        }
        pass_ms.push(ms);
        for run in &mut p.runs {
            let schedule = run.compiled.schedule().clone();
            match cold_compile(&run.kernel, &run.bound, &schedule, tracer) {
                Ok((_, _, ms)) => run.compile_ms.push(ms),
                Err(e) => {
                    out.count(1, 1);
                    out.notes.push(format!("FAILED {e}"));
                }
            }
        }
    }
    let delta = counters.delta();
    kernel_metrics(&p.runs, &mut out)?;
    if tracer.enabled() {
        let passes = pass_ms.len() as f64;
        let m = &mut out.per_layer;
        for r in &p.runs {
            let k = r.kernel.name;
            m.put(
                format!("halide.compile_ms.{k}"),
                median(&r.compile_ms).unwrap_or(0.0),
                "ms",
            );
            m.put(
                format!("halide.run_ns_per_cell.{k}"),
                r.lifted_ns_per_cell(),
                "ns",
            );
            m.put(
                format!("halide.fused_stores.{k}"),
                r.profile.fused_store_counts().total() as f64,
                "count",
            );
            m.put(
                format!("apps.native_ns_per_cell.{k}"),
                r.native_ns_per_cell(),
                "ns",
            );
        }
        m.put(
            "halide.fused_rows",
            delta.fused_rows as f64 / passes,
            "count",
        );
        m.put("halide.arch_rows", delta.arch_rows as f64 / passes, "count");
        m.put(
            "halide.fused_tails",
            delta.fused_tails as f64 / passes,
            "count",
        );
        let (hits, lookups) = p.runs.iter().fold((0, 0), |(h, l), r| {
            let s = r.compiled.cache_stats();
            (h + s.hits, l + s.hits + s.misses)
        });
        m.put(
            "halide.cache_hit_frac",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        );
        for (r, ms) in p.runs.iter().zip(&p.rank_ms) {
            m.put(format!("tune.rank_ms.{}", r.kernel.name), *ms, "ms");
        }
        m.put("tune.candidates", p.candidates as f64, "count");
        for r in &p.runs {
            let ratio = pick_vs_default(r, tracer)?;
            m.put(
                format!("tune.pick_vs_default.{}", r.kernel.name),
                ratio,
                "x",
            );
        }
        if let Some(image) = &image {
            m.put("floor.memcpy_ns_per_cell", memcpy_ns_per_cell(image), "ns");
        }
    }
    out.notes.push(format!(
        "kernels: {} of {PROGRAMS} lifted and running; the smooth runs on its {}x{}x{} lift grid",
        p.runs.len(),
        GRID_KERNELS.0,
        GRID_KERNELS.1,
        GRID_KERNELS.2
    ));
    finish(&mut out, &setup_s, &pass_ms)?;
    Ok(out)
}

/// Warm `stencil_default` time over the model pick's time, per plane run,
/// alternating the two.
fn pick_vs_default(run: &KernelRun, tracer: &Tracer) -> Result<f64, String> {
    let default = run
        .kernel
        .pipeline
        .compile(&Schedule::stencil_default(), &CompileOptions::default())
        .map_err(|e| e.to_string())?;
    let inputs = run.bound.inputs(0);
    let time = |c: &CompiledPipeline| -> Result<f64, String> {
        let t = Instant::now();
        let out = tracer.span(Layer::Halide, "halide.run", || {
            c.run(&inputs, &run.bound.extents)
        });
        black_box(out.map_err(|e| e.to_string())?);
        Ok(t.elapsed().as_nanos() as f64)
    };
    time(&default)?;
    let (mut d, mut p) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        d.push(time(&default)?);
        p.push(time(&run.compiled)?);
    }
    Ok(median(&d).unwrap_or(f64::NAN) / median(&p).unwrap_or(f64::NAN))
}

/// Copying one padded plane in and out, per interior pixel: the memory
/// floor of a pointwise filter on the same bytes.
fn memcpy_ns_per_cell(image: &PlanarImage) -> f64 {
    let src = image.planes[0].bytes();
    let mut dst = vec![0u8; src.len()];
    let mut ns = Vec::new();
    for _ in 0..21 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(src));
        black_box(&mut dst);
        ns.push(t.elapsed().as_nanos() as f64);
    }
    median(&ns).unwrap_or(f64::NAN) / (image.width() * image.height()) as f64
}

/// The request mix of `serve_open`: one template per kernel and plane.
struct ServeTarget<'a> {
    server: &'a Server,
    runs: &'a [KernelRun],
    templates: Vec<(usize, usize, ServeRequest)>,
}

impl<'a> ServeTarget<'a> {
    fn new(server: &'a Server, runs: &'a [KernelRun]) -> ServeTarget<'a> {
        let mut templates = Vec::new();
        for (k, run) in runs.iter().enumerate() {
            for (p, images) in run.bound.planes.iter().enumerate() {
                let mut req = ServeRequest::new(Arc::clone(&run.compiled), &run.bound.extents);
                for (name, buf) in images {
                    req = req.with_image(name, Arc::clone(buf));
                }
                for (name, value) in &run.bound.params {
                    req = req.with_param(name, *value);
                }
                templates.push((k, p, req));
            }
        }
        ServeTarget {
            server,
            runs,
            templates,
        }
    }
}

impl Service for ServeTarget<'_> {
    type Ticket = Ticket;

    fn submit(&self, kind: usize) -> Result<Ticket, String> {
        self.server
            .try_submit(self.templates[kind].2.clone())
            .map_err(|e| format!("{e:?}"))
    }

    fn is_done(&self, ticket: &Ticket) -> bool {
        ticket.is_done()
    }

    fn finish(&self, ticket: Ticket, kind: usize) -> bool {
        let (k, p, _) = &self.templates[kind];
        let run = &self.runs[*k];
        ticket
            .wait()
            .is_ok_and(|out| run.kernel.matches(*p, &out, &run.reference))
    }

    fn queued(&self) -> usize {
        self.server.stats().queued
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `serve_open`: small single-plane requests through a `helium-serve`
/// server at two frozen open-loop rates. Fixed cost per run and queueing
/// dominate the cost per cell.
///
/// # Errors
/// When no metric can be computed.
pub fn serve_open(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let ((mut p, server, mut out), setup_s) = repeat_setup(cfg, || {
        let mut out = Outcome::default();
        let p = prepare(cfg, GRID_SMALL, SERVE_IMAGE, tracer, &mut out);
        let server = tracer.span(Layer::Serve, "serve.start", || {
            Server::start(ServeConfig::default().with_workers(nproc()))
        });
        (p, server, out)
    });
    let image = p.image.take();

    // Unloaded: every kernel and plane run directly, before any load.
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds * 0.2
        || p.runs.iter().any(|r| r.compile_ms.len() < 3)
    {
        for run in &mut p.runs {
            let (checked, failed, _) = run.pass(image.as_ref(), KERNEL_REPS, tracer);
            out.count(checked, failed);
            let schedule = run.compiled.schedule().clone();
            match cold_compile(&run.kernel, &run.bound, &schedule, tracer) {
                Ok((_, _, ms)) => run.compile_ms.push(ms),
                Err(e) => {
                    out.count(1, 1);
                    out.notes.push(format!("FAILED {e}"));
                }
            }
        }
    }
    kernel_metrics(&p.runs, &mut out)?;

    let target = ServeTarget::new(&server, &p.runs);
    let kinds = target.templates.len();
    let phase = Duration::from_secs_f64(cfg.seconds * 0.4);
    let drain = Duration::from_secs(5);
    let run_phase = |salt: u64, rate: f64| -> OpenLoopReport {
        let arrivals = poisson_arrivals(derive_seed(cfg.seed, salt), rate, phase, kinds);
        tracer.span(Layer::Serve, "serve.openloop", || {
            run_open_loop(&target, &arrivals, drain, tracer)
        })
    };
    let low = run_phase(1, SERVE_RATES.0);
    let high = run_phase(2, SERVE_RATES.1);
    let stats = server.stats();
    drop(target);
    tracer.span(Layer::Serve, "serve.shutdown", || server.shutdown());

    for r in [&low, &high] {
        out.count(r.attempted, r.refused + r.failed);
    }
    let pct = |r: &OpenLoopReport, q: f64| percentile(&r.latency_ms, q);
    let p99_low = pct(&low, 0.99);
    let p99_high = pct(&high, 0.99);
    let good = high.good_frac(SERVE_LIMIT_MS);
    let show = |v: Option<f64>| {
        v.map_or("n/a (fewer than 10 samples beyond)".into(), |v| {
            format!("{v:.4} ms")
        })
    };
    out.notes.push(format!(
        "serve_p50_ms {:.4} ms at {} req/s (n={}); p10/p25/p75/p90 {:?} ms",
        median(&low.latency_ms).unwrap_or(f64::NAN),
        SERVE_RATES.0,
        low.latency_ms.len(),
        [0.1, 0.25, 0.75, 0.9].map(|q| pct(&low, q).unwrap_or(f64::NAN))
    ));
    out.notes.push(format!(
        "serve_p99_ms {} at {} req/s (n={})",
        show(p99_low),
        SERVE_RATES.0,
        low.latency_ms.len()
    ));
    out.notes.push(format!(
        "serve_p99_ms_high {} at {} req/s (n={})",
        show(p99_high),
        SERVE_RATES.1,
        high.latency_ms.len()
    ));
    out.notes.push(format!(
        "serve_good_frac {good:.4} ratio (within {SERVE_LIMIT_MS} ms at {} req/s)",
        SERVE_RATES.1
    ));
    for (name, r) in [("low", &low), ("high", &high)] {
        out.notes.push(format!(
            "generator {name}: {} due, {} refused, {} failed; late p50 {:.4} ms, max {:.4} ms; poll gap mean {:.2} us, max {:.1} us; backlog max {}",
            r.attempted,
            r.refused,
            r.failed,
            median(&r.late_ms).unwrap_or(0.0),
            r.late_ms.iter().copied().fold(0.0, f64::max),
            r.poll_gap_mean_us(),
            r.poll_gap_max_us,
            r.backlog_max
        ));
    }
    if tracer.enabled() {
        let m = &mut out.per_layer;
        for r in &p.runs {
            m.put(
                format!("halide.small_run_us.{}", r.kernel.name),
                median(&r.lifted_ns).unwrap_or(0.0) / 1e3,
                "us",
            );
        }
        let both = |f: fn(&OpenLoopReport) -> &Vec<f64>| -> Vec<f64> {
            f(&low).iter().chain(f(&high)).copied().collect()
        };
        // A tail with fewer than ten samples beyond it is missing data, not
        // a fast result: the traced run fails rather than report it.
        let p99 =
            |name: &str, v: Option<f64>| v.ok_or(format!("{name}: too few samples for a p99"));
        m.put("serve.p99_ms_low", p99("serve.p99_ms_low", p99_low)?, "ms");
        m.put(
            "serve.p99_ms_high",
            p99("serve.p99_ms_high", p99_high)?,
            "ms",
        );
        m.put("serve.good_frac_high", good, "ratio");
        let submit = percentile(&both(|r| &r.submit_us), 0.99);
        m.put(
            "serve.submit_us_p99",
            p99("serve.submit_us_p99", submit)?,
            "us",
        );
        let late = percentile(&both(|r| &r.late_ms), 0.99);
        m.put(
            "serve.gen_late_ms_p99",
            p99("serve.gen_late_ms_p99", late)?,
            "ms",
        );
        m.put(
            "serve.backlog_max",
            low.backlog_max.max(high.backlog_max) as f64,
            "count",
        );
        m.put(
            "serve.server_p99_ms",
            stats.latency.p99_ns as f64 / 1e6,
            "ms",
        );
        m.put("serve.shed", stats.shed as f64, "count");
        m.put("serve.expired", stats.expired as f64, "count");
        m.put("serve.failed", stats.failed as f64, "count");
    }
    finish(&mut out, &setup_s, &low.latency_ms)?;
    Ok(out)
}
