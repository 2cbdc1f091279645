//! End-to-end lifting tests: lift kernels from the legacy binaries and check
//! that realizing the lifted Halide pipelines reproduces the legacy output
//! (paper §6.1: all integer filters are bit-identical).

use helium::apps::photoflow::{PhotoFilter, PhotoFlow};
use helium::apps::PlanarImage;
use helium::core::{KnownData, LiftRequest, Lifter};
use helium::halide::{RealizeInputs, Realizer, ScalarType, Schedule, Value};

/// Lift a PhotoFlow filter and return the lifted stencil plus the app.
fn lift_photoflow(
    filter: PhotoFilter,
    w: usize,
    h: usize,
) -> (PhotoFlow, helium::core::LiftedStencil) {
    let image = PlanarImage::random(w, h, 1, 16, 0xC0FFEE);
    let app = PhotoFlow::new(filter, image);
    let lifted = Lifter::new()
        .lift(app.program(), &request(&app), |with| app.fresh_cpu(with))
        .expect("lifting succeeds");
    (app, lifted)
}

/// What the lifter is told about a PhotoFlow run: its known rows.
fn request(app: &PhotoFlow) -> LiftRequest {
    LiftRequest {
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
    }
}

/// Realize every lifted output plane and compare against the legacy output.
fn check_planes_match(app: &PhotoFlow, lifted: &helium::core::LiftedStencil) {
    let legacy = app.run_in_vm();
    let layout = app.layout();
    let stride = layout.stride as usize;
    let padded_rows = layout.padded_rows as usize;

    for kernel in &lifted.kernels {
        // Which legacy plane does this lifted output correspond to?
        let out_layout = lifted.buffer(&kernel.output).expect("output layout");
        let plane_idx = layout
            .output_planes
            .iter()
            .position(|&base| {
                out_layout.base >= base && out_layout.base < base + layout.plane_bytes()
            })
            .expect("output maps to a plane");

        // Bind every referenced input image from the same memory the legacy
        // binary saw.
        let mut buffers = Vec::new();
        for (name, param) in &kernel.pipeline.images {
            let in_layout = lifted.buffer(name).expect("input layout");
            let mut buf = helium::halide::Buffer::new(
                ScalarType::UInt8,
                &in_layout
                    .extents
                    .iter()
                    .map(|&e| e as usize)
                    .collect::<Vec<_>>(),
            );
            // Reconstruct the input contents from the app's memory image.
            let cpu = app.fresh_cpu(true);
            let bytes = cpu.mem.read_bytes(in_layout.base, in_layout.byte_len());
            // Fill respecting the inferred strides.
            let extents: Vec<usize> = in_layout.extents.iter().map(|&e| e as usize).collect();
            if extents.len() == 2 {
                for y in 0..extents[1] {
                    for x in 0..extents[0] {
                        let off = y * in_layout.strides[1] as usize + x;
                        if off < bytes.len() {
                            buf.set(&[x as i64, y as i64], Value::Int(bytes[off] as i64));
                        }
                    }
                }
            } else {
                for (i, b) in bytes.iter().enumerate().take(buf.len()) {
                    buf.set(&[i as i64], Value::Int(*b as i64));
                }
            }
            buffers.push((name.clone(), buf, param.dims));
        }
        let mut inputs = RealizeInputs::new();
        for (name, buf, _) in &buffers {
            inputs = inputs.with_image(name, buf);
        }
        for (name, value) in &kernel.parameter_values {
            inputs = inputs.with_param(name, *value);
        }

        let out_extents: Vec<usize> = out_layout.extents.iter().map(|&e| e as usize).collect();
        let realized = Realizer::new(Schedule::stencil_default())
            .realize(&kernel.pipeline, &out_extents, &inputs)
            .expect("realization succeeds");

        // Compare the interior of the image (the region the legacy filter
        // actually writes).
        let pad = layout.pad as usize;
        let out_base_off = out_layout.base - layout.output_planes[plane_idx];
        for y in 0..layout.height as usize {
            for x in 0..layout.width as usize {
                let legacy_value = legacy.planes[plane_idx].get(x, y);
                // Address of this pixel inside the lifted output buffer.
                let addr_off = (y + pad) * stride + (x + pad);
                let rel = addr_off as i64 - out_base_off as i64;
                let oy = rel / out_layout.strides[1] as i64;
                let ox = rel % out_layout.strides[1] as i64;
                if oy < 0 || oy >= out_extents[1] as i64 {
                    continue;
                }
                let lifted_value = realized.get(&[ox, oy]).as_i64() as u8;
                assert_eq!(
                    lifted_value,
                    legacy_value,
                    "{}: mismatch at plane {plane_idx} ({x},{y})",
                    app.filter().name()
                );
            }
        }
        let _ = padded_rows;
    }
}

#[test]
fn lifted_blur_is_bit_identical() {
    let (app, lifted) = lift_photoflow(PhotoFilter::Blur, 32, 17);
    assert!(lifted.halide_source().contains("compile_to_file"));
    assert_eq!(lifted.kernels.len(), 3, "one kernel per colour plane");
    check_planes_match(&app, &lifted);
}

#[test]
fn lifted_invert_is_bit_identical() {
    let (app, lifted) = lift_photoflow(PhotoFilter::Invert, 24, 11);
    check_planes_match(&app, &lifted);
}

#[test]
fn lifted_sharpen_is_bit_identical() {
    let (app, lifted) = lift_photoflow(PhotoFilter::Sharpen, 24, 12);
    check_planes_match(&app, &lifted);
}

#[test]
fn lifted_threshold_handles_input_dependent_conditionals() {
    let (app, lifted) = lift_photoflow(PhotoFilter::Threshold, 24, 10);
    // Threshold produces predicated clusters: at least one select in the code.
    let src = lifted.halide_source();
    assert!(
        src.contains("select("),
        "threshold must lift to a select: {src}"
    );
    check_planes_match(&app, &lifted);
}

#[test]
fn lift_phases_are_timed_within_the_lift() {
    let app = PhotoFlow::new(
        PhotoFilter::Blur,
        PlanarImage::random(32, 17, 1, 16, 0xC0FFEE),
    );
    let request = request(&app);
    let start = std::time::Instant::now();
    let lifted = Lifter::new()
        .lift(app.program(), &request, |with| app.fresh_cpu(with))
        .expect("lifting succeeds");
    let wall = start.elapsed();
    let phases = lifted.stats.phases;
    for (name, time) in phases.named() {
        assert!(!time.is_zero(), "phase {name} was not timed");
    }
    assert!(
        phases.total() <= wall,
        "phases sum to {:?}, more than the lift's {wall:?}",
        phases.total()
    );
}
