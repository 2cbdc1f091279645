//! Differential suite for the tuner's view of the backend-selection API:
//! `dry_run`'s per-store [`StoreProfile::selected_isa`] must agree with the
//! path the executor actually takes (run-time arch counters), and the cost
//! model's `arch_stores` feature column must be derived from exactly those
//! profiles — across pinned portable, pinned AVX2 and detected targets.
//! Only float kernels have an arch path: the `[i32; W]` stencil reports
//! portable under every target, the f64 stencil reports what the target
//! resolves to on this host.

use helium_halide::prelude::*;
use helium_halide::{arch_rows_executed, CompileOptions, StoreProfile};
use helium_tune::{score, ScheduleFeatures};
use proptest::prelude::*;

/// A bordered stencil pipeline that fuses on `[i32; W]` lanes.
fn stencil_pipeline() -> Pipeline {
    let u32c = |e: Expr| Expr::cast(ScalarType::UInt32, e);
    let tap = |dx: i64, dy: i64| {
        u32c(Expr::Image(
            "in".into(),
            vec![
                Expr::add(Expr::var("x_0"), Expr::int(dx)),
                Expr::add(Expr::var("x_1"), Expr::int(dy)),
            ],
        ))
    };
    let value = Expr::cast(
        ScalarType::UInt8,
        u32c(Expr::bin(
            BinOp::Shr,
            u32c(Expr::add(u32c(Expr::add(tap(0, 0), tap(1, 0))), tap(0, 1))),
            Expr::uint(1),
        )),
    );
    let out = Func::pure("out", &["x_0", "x_1"], ScalarType::UInt8, value);
    Pipeline::new(out, vec![ImageParam::new("in", ScalarType::UInt8, 2)])
}

/// A bordered stencil pipeline that fuses on `[f64; W/2]` lanes with an
/// arch plan (a handful of taps).
fn f64_stencil_pipeline() -> Pipeline {
    let tap = |dx: i64, dy: i64| {
        Expr::Image(
            "in".into(),
            vec![
                Expr::add(Expr::var("x_0"), Expr::int(dx)),
                Expr::add(Expr::var("x_1"), Expr::int(dy)),
            ],
        )
    };
    let value = Expr::add(
        Expr::mul(
            Expr::add(tap(1, 0), tap(0, 1)),
            Expr::ConstFloat(0.25, ScalarType::Float64),
        ),
        Expr::mul(tap(0, 0), Expr::ConstFloat(0.5, ScalarType::Float64)),
    );
    let out = Func::pure("out", &["x_0", "x_1"], ScalarType::Float64, value);
    Pipeline::new(out, vec![ImageParam::new("in", ScalarType::Float64, 2)])
}

fn input(ty: ScalarType, w: usize, h: usize) -> Buffer {
    let mut b = Buffer::new(ty, &[w, h]);
    let mut s = 0x5EED_u64;
    for c in b.coords().collect::<Vec<_>>() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        b.set(&c, Value::Int(((s >> 33) % 256) as i64));
    }
    b
}

/// Both pipelines with their input element type, and whether their fused
/// store has an arch path.
fn pipelines() -> [(Pipeline, ScalarType, bool); 2] {
    [
        (stencil_pipeline(), ScalarType::UInt8, false),
        (f64_stencil_pipeline(), ScalarType::Float64, true),
    ]
}

/// The ISA a store with lane kernels reports under `target`.
fn expected_isa(target: Target, has_arch_path: bool) -> Isa {
    if has_arch_path {
        target.effective_isa()
    } else {
        Isa::Portable
    }
}

/// Whether `run` executes arch rows. The counter is process-wide and other
/// tests in this binary run the float stencil on the arch path concurrently,
/// so one advance may not be ours: a run that never takes the arch path
/// shows a clean attempt within a few tries, one that does advances on every
/// try.
fn runs_arch_rows(mut run: impl FnMut()) -> bool {
    (0..16).all(|_| {
        let before = arch_rows_executed();
        run();
        arch_rows_executed() > before
    })
}

fn fused_stores(profile: &helium_halide::PipelineProfile) -> Vec<&StoreProfile> {
    profile
        .stages
        .iter()
        .flat_map(|s| s.stores.iter())
        .filter(|p| p.fused.is_some() || p.reduce.is_some())
        .collect()
}

/// Whatever ISA `dry_run` reports per store is the ISA the run actually
/// executes — `selected_isa == Avx2` iff the arch row counter advances,
/// `Portable` iff it does not.
#[test]
fn dry_run_selected_isa_matches_executed_path() {
    let (w, h) = (37, 19);
    let schedule = Schedule::stencil_default();
    let targets = [
        Target::portable().with_tier(Tier::Simd),
        Target::with_features(&[Feature::Avx2]).with_tier(Tier::Simd),
        Target::detect().with_tier(Tier::Simd),
    ];
    for ((p, in_ty, has_arch_path), target) in pipelines()
        .into_iter()
        .flat_map(|case| targets.map(|t| (case.clone(), t)))
    {
        let img = input(in_ty, w + 2, h + 2);
        let inputs = RealizeInputs::new().with_image("in", &img);
        let compiled = p
            .compile(
                &schedule,
                &CompileOptions {
                    target: Some(target),
                    ..CompileOptions::default()
                },
            )
            .expect("compile");
        let profile = compiled.dry_run(&inputs, &[w, h]).expect("dry run");
        let stores = fused_stores(&profile);
        assert!(!stores.is_empty(), "the stencil must compile fused stores");
        let predicts_arch = stores.iter().any(|p| p.selected_isa == Isa::Avx2);
        // The profile's prediction must equal the target's resolution...
        assert_eq!(
            predicts_arch,
            expected_isa(target, has_arch_path) == Isa::Avx2,
            "selected_isa disagrees with the resolved target {target:?}"
        );
        // ...and the resolution must equal what the run does.
        let advanced = runs_arch_rows(|| {
            compiled.run(&inputs, &[w, h]).expect("run");
        });
        assert_eq!(
            advanced, predicts_arch,
            "selected_isa promised {predicts_arch} but arch counter advance was {advanced} \
             under {target:?}"
        );
    }
}

/// The cost model's `arch_stores` column counts exactly the stores whose
/// profile selected the arch ISA, and arch selection never worsens a fused
/// schedule's score.
#[test]
fn model_arch_stores_column_tracks_selected_isa() {
    for (p, in_ty, _) in pipelines() {
        model_arch_stores_case(&p, in_ty);
    }
}

fn model_arch_stores_case(p: &Pipeline, in_ty: ScalarType) {
    let (w, h) = (37, 19);
    let img = input(in_ty, w + 2, h + 2);
    let inputs = RealizeInputs::new().with_image("in", &img);
    let schedule = Schedule::stencil_default();
    let mut scores = Vec::new();
    for target in [
        Target::portable().with_tier(Tier::Simd),
        Target::with_features(&[Feature::Avx2]).with_tier(Tier::Simd),
    ] {
        let compiled = p
            .compile(
                &schedule,
                &CompileOptions {
                    target: Some(target),
                    ..CompileOptions::default()
                },
            )
            .expect("compile");
        let profile = compiled.dry_run(&inputs, &[w, h]).expect("dry run");
        let features = ScheduleFeatures::extract(&schedule, &profile);
        let expect = fused_stores(&profile)
            .iter()
            .filter(|p| p.selected_isa == Isa::Avx2)
            .count();
        assert_eq!(features.arch_stores, expect);
        let columns = features.columns();
        let col = columns
            .iter()
            .find(|(name, _)| *name == "arch_stores")
            .expect("arch_stores column");
        assert_eq!(col.1 as usize, expect);
        scores.push((expect, score(&schedule, &profile)));
    }
    // Where the second compile selects the arch ISA (float stores on AVX2
    // hosts) it must score below portable; elsewhere both are equal.
    let (portable, arch) = (scores[0], scores[1]);
    assert_eq!(portable.0, 0);
    if arch.0 > 0 {
        assert!(
            arch.1 < portable.1,
            "arch-selected stores must score cheaper: {arch:?} vs {portable:?}"
        );
    } else {
        assert_eq!(arch.1, portable.1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Across random schedules, `selected_isa` reporting is consistent: the
    /// portable target never reports an arch store, the AVX2-pinned target
    /// reports arch stores exactly when the host resolves the feature, and
    /// unfused stores always report portable.
    #[test]
    fn selected_isa_is_consistent_across_schedules(
        width in prop::sample::select(vec![1usize, 4, 8, 16, 32]),
        parallel in any::<bool>(),
        tiled in any::<bool>(),
    ) {
        let (w, h) = (23, 13);
        let mut schedule = Schedule::naive()
            .with_parallel(parallel)
            .with_vector_width(width);
        if tiled {
            schedule = schedule.with_tile(Some((8, 8)));
        }
        for ((p, in_ty, has_arch_path), target) in pipelines().into_iter().flat_map(|case| {
            [Target::portable(), Target::with_features(&[Feature::Avx2])]
                .map(|t| (case.clone(), t))
        }) {
            let img = input(in_ty, w + 2, h + 2);
            let inputs = RealizeInputs::new().with_image("in", &img);
            let compiled = p
                .compile(
                    &schedule,
                    &CompileOptions {
                        target: Some(target),
                        ..CompileOptions::default()
                    },
                )
                .expect("compile");
            let profile = compiled.dry_run(&inputs, &[w, h]).expect("dry run");
            for stage in &profile.stages {
                for store in &stage.stores {
                    let expect = if store.fused.is_some() {
                        expected_isa(target, has_arch_path)
                    } else {
                        Isa::Portable
                    };
                    prop_assert_eq!(store.selected_isa, expect);
                }
            }
        }
    }
}
