//! The legacy programs the benchmark lifts, built from a seed.

use helium_apps::photoflow::{PhotoFilter, PhotoFlow};
use helium_apps::{Grid3D, MiniGmg, PlanarImage};
use helium_core::{KnownData, LiftError, LiftRequest, LiftedStencil, Lifter};
use helium_machine::program::Program;
use helium_machine::Cpu;
use rand::prelude::*;

/// The Fig. 7 PhotoFlow filters the gated workloads lift, in report order:
/// all seven but `threshold`, whose lift fails on some seeded inputs (see
/// [`build_threshold`]).
pub const FILTERS: [PhotoFilter; 6] = [
    PhotoFilter::Invert,
    PhotoFilter::Blur,
    PhotoFilter::BlurMore,
    PhotoFilter::Sharpen,
    PhotoFilter::SharpenMore,
    PhotoFilter::BoxBlur,
];

/// Name of the miniGMG smooth kernel in metric keys.
pub const SMOOTH: &str = "minigmg";

/// Image size every filter is lifted at. Lift cost grows faster than the
/// image (threshold: 0.45 s here, 4.3 s at 96×64), so this keeps one lift of
/// the seven programs near two seconds.
pub const LIFT_IMAGE: (usize, usize) = (48, 32);

/// PhotoFlow's image geometry: one pixel of edge padding, 16-byte rows.
pub const PAD: usize = 1;
/// Row alignment of PhotoFlow planes.
pub const ALIGN: usize = 16;

/// One legacy program with the seeded data it runs on.
#[derive(Debug, Clone)]
pub enum App {
    /// A PhotoFlow filter over a planar image.
    Photo(PhotoFlow),
    /// The miniGMG Jacobi smooth over a ghosted grid.
    Smooth(MiniGmg),
}

/// Mix `seed` with a per-input salt, so each generated input differs.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).gen()
}

/// Programs the gated workloads lift: the six filters, then the smooth.
pub const PROGRAMS: usize = FILTERS.len() + 1;

/// Program `index` (a filter over a seeded 48×32 image, or for the last
/// index the smooth over a seeded grid of `grid` interior cells).
pub fn build_app(seed: u64, index: usize, grid: (usize, usize, usize)) -> App {
    let input_seed = derive_seed(seed, index as u64);
    match FILTERS.get(index) {
        Some(&filter) => {
            let (w, h) = LIFT_IMAGE;
            let image = PlanarImage::random(w, h, PAD, ALIGN, input_seed);
            App::Photo(PhotoFlow::new(filter, image))
        }
        None => {
            let (nx, ny, nz) = grid;
            App::Smooth(MiniGmg::new(Grid3D::random(nx, ny, nz, 1, input_seed)))
        }
    }
}

/// Salt of the `threshold` inputs, apart from every other input's.
const THRESHOLD_SALT: u64 = 1 << 20;

/// The `threshold` filter over seeded 48×32 image number `n`. Lifting it
/// fails on about one input in thirty (`symbolic tree generation failed:
/// index function ... is not affine`): its three output planes are
/// identical, so the known-output layout search is ambiguous. Only the
/// `lift_threshold` workload lifts it.
pub fn build_threshold(seed: u64, n: usize) -> App {
    let (w, h) = LIFT_IMAGE;
    let image = PlanarImage::random(
        w,
        h,
        PAD,
        ALIGN,
        derive_seed(seed, THRESHOLD_SALT + n as u64),
    );
    App::Photo(PhotoFlow::new(PhotoFilter::Threshold, image))
}

impl App {
    /// The kernel's name in metric keys.
    pub fn name(&self) -> &'static str {
        match self {
            App::Photo(app) => app.filter().name(),
            App::Smooth(_) => SMOOTH,
        }
    }

    /// The loaded binary.
    pub fn program(&self) -> &Program {
        match self {
            App::Photo(app) => app.program(),
            App::Smooth(app) => app.program(),
        }
    }

    /// A primed VM for one run, with or without the kernel.
    pub fn fresh_cpu(&self, with_kernel: bool) -> Cpu {
        match self {
            App::Photo(app) => app.fresh_cpu(with_kernel),
            App::Smooth(app) => app.fresh_cpu(with_kernel),
        }
    }

    /// What the lifter is told: known rows for the filters, nothing but the
    /// data size for the smooth (generic inference).
    pub fn request(&self) -> LiftRequest {
        match self {
            App::Photo(app) => LiftRequest {
                known_inputs: app
                    .known_input_rows()
                    .into_iter()
                    .map(KnownData::from_rows)
                    .collect(),
                known_outputs: app
                    .known_output_rows()
                    .into_iter()
                    .map(KnownData::from_rows)
                    .collect(),
                approx_data_size: app.approx_data_size(),
            },
            App::Smooth(app) => LiftRequest {
                known_inputs: vec![],
                known_outputs: vec![],
                approx_data_size: app.approx_data_size(),
            },
        }
    }

    /// Lift the kernel out of the binary.
    ///
    /// # Errors
    /// Returns the lifter's error.
    pub fn lift(&self, request: &LiftRequest) -> Result<LiftedStencil, LiftError> {
        Lifter::new().lift(self.program(), request, |with| self.fresh_cpu(with))
    }

    /// Run the legacy binary in the VM and return the executed step count.
    ///
    /// # Panics
    /// Panics if the binary faults (the legacy programs are trusted).
    pub fn run_in_vm_counting(&self) -> u64 {
        match self {
            App::Photo(app) => app.run_in_vm_counting(),
            App::Smooth(app) => {
                let mut cpu = app.fresh_cpu(true);
                cpu.run(app.program(), 2_000_000_000, |_, _| {})
                    .expect("legacy binary runs")
            }
        }
    }
}
