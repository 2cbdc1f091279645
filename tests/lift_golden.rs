//! Golden lift outputs: each program below is lifted at a fixed input seed
//! and its Halide source, every symbolic cluster's rendered tree and
//! predicates, and the Fig. 6 tree sizes are compared byte for byte against
//! `tests/golden/lift/<name>.txt`. The extraction data structures may change;
//! what they lift may not.
//!
//! On a mismatch the actual text is written to
//! `<target>/tmp/lift_golden/<name>.txt`; after checking that a change of
//! lift output is intended, copy that file over the golden one.

use helium::apps::batchview::{BatchFilter, BatchView};
use helium::apps::photoflow::{PhotoFilter, PhotoFlow};
use helium::apps::{Grid3D, InterleavedImage, MiniGmg, PlanarImage};
use helium::core::{KnownData, LiftRequest, LiftedStencil, Lifter};
use std::fmt::Write;
use std::path::Path;

fn request(inputs: Vec<Vec<Vec<u8>>>, outputs: Vec<Vec<Vec<u8>>>, size: usize) -> LiftRequest {
    LiftRequest {
        known_inputs: inputs.into_iter().map(KnownData::from_rows).collect(),
        known_outputs: outputs.into_iter().map(KnownData::from_rows).collect(),
        approx_data_size: size,
    }
}

fn lift_photo(filter: PhotoFilter, w: usize, h: usize, seed: u64) -> LiftedStencil {
    let app = PhotoFlow::new(filter, PlanarImage::random(w, h, 1, 16, seed));
    let req = request(
        app.known_input_rows(),
        app.known_output_rows(),
        app.approx_data_size(),
    );
    Lifter::new()
        .lift(app.program(), &req, |with| app.fresh_cpu(with))
        .expect("lifting the PhotoFlow filter succeeds")
}

fn lift_batch(filter: BatchFilter, w: usize, h: usize, seed: u64) -> LiftedStencil {
    let app = BatchView::new(filter, InterleavedImage::random(w, h, seed));
    let req = request(
        app.known_input_rows(),
        app.known_output_rows(),
        app.approx_data_size(),
    );
    Lifter::new()
        .lift(app.program(), &req, |with| app.fresh_cpu(with))
        .expect("lifting the BatchView filter succeeds")
}

fn lift_smooth(nx: usize, ny: usize, nz: usize, seed: u64) -> LiftedStencil {
    let app = MiniGmg::new(Grid3D::random(nx, ny, nz, 1, seed));
    let req = request(vec![], vec![], app.approx_data_size());
    Lifter::new()
        .lift(app.program(), &req, |with| app.fresh_cpu(with))
        .expect("lifting the smooth stencil succeeds")
}

/// Everything the golden file pins, as text.
fn describe(lifted: &LiftedStencil) -> String {
    let mut out = String::new();
    writeln!(out, "tree_sizes {:?}", lifted.stats.tree_sizes).unwrap();
    for (i, c) in lifted.clusters.iter().enumerate() {
        writeln!(
            out,
            "cluster {i} {} recursive={} over={:?} support={}",
            c.output_buffer, c.recursive, c.reduction_over, c.support
        )
        .unwrap();
        writeln!(out, "  tree {}", c.tree.render()).unwrap();
        for (cmp, lhs, rhs) in &c.predicates {
            writeln!(out, "  pred {cmp:?} {} {}", lhs.render(), rhs.render()).unwrap();
        }
    }
    out.push_str("halide_source\n");
    out.push_str(&lifted.halide_source());
    out
}

fn check_golden(name: &str, lifted: &LiftedStencil) {
    let actual = describe(lifted);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/lift")
        .join(format!("{name}.txt"));
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual == golden {
        return;
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lift_golden");
    std::fs::create_dir_all(&dir).expect("create the actual-output directory");
    let actual_path = dir.join(format!("{name}.txt"));
    std::fs::write(&actual_path, &actual).expect("write the actual output");
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "{name}: lift output differs from {} at line {} (actual output in {})",
        golden_path.display(),
        line + 1,
        actual_path.display()
    );
}

#[test]
fn golden_invert() {
    check_golden("invert", &lift_photo(PhotoFilter::Invert, 32, 17, 0x601D));
}

#[test]
fn golden_blur() {
    check_golden("blur", &lift_photo(PhotoFilter::Blur, 32, 17, 0x601D));
}

#[test]
fn golden_blur_more() {
    check_golden(
        "blur_more",
        &lift_photo(PhotoFilter::BlurMore, 32, 17, 0x601D),
    );
}

#[test]
fn golden_sharpen() {
    check_golden("sharpen", &lift_photo(PhotoFilter::Sharpen, 32, 17, 0x601D));
}

#[test]
fn golden_sharpen_more() {
    check_golden(
        "sharpen_more",
        &lift_photo(PhotoFilter::SharpenMore, 32, 17, 0x601D),
    );
}

#[test]
fn golden_box_blur() {
    check_golden(
        "box_blur",
        &lift_photo(PhotoFilter::BoxBlur, 30, 14, 0x601D),
    );
}

/// Lookup table: index registers resolved through their reaching definitions.
#[test]
fn golden_brightness() {
    check_golden(
        "brightness",
        &lift_photo(PhotoFilter::Brightness, 32, 17, 0x601D),
    );
}

/// Histogram: a recursive output indirectly addressed by the input.
#[test]
fn golden_equalize() {
    check_golden(
        "equalize",
        &lift_photo(PhotoFilter::Equalize, 32, 17, 0x601D),
    );
}

/// Input-dependent conditional: predicate trees built from flag operands.
#[test]
fn golden_threshold() {
    check_golden(
        "threshold",
        &lift_photo(PhotoFilter::Threshold, 24, 10, 0xC0FFEE),
    );
}

/// x87 stencil: FP stack slots in the shadow address space.
#[test]
fn golden_batchview_blur() {
    check_golden(
        "batchview_blur",
        &lift_batch(BatchFilter::Blur, 16, 10, 0x1AF1),
    );
}

/// Interleaved-RGB conditional.
#[test]
fn golden_batchview_solarize() {
    check_golden(
        "batchview_solarize",
        &lift_batch(BatchFilter::Solarize, 18, 10, 0x1AF1),
    );
}

#[test]
fn golden_minigmg_smooth() {
    check_golden("minigmg_smooth", &lift_smooth(12, 10, 8, 0x6116));
}
