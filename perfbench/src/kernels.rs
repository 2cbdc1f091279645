//! Lifted kernels made portable across image sizes, bound to seeded inputs,
//! and bit-checked against the native scalar ports in `helium-apps`.
//!
//! A filter is lifted once at 48×32 and then run on any planar image. Its
//! lifted buffers are 2-D `[stride, rows]` views of one plane whose index
//! expressions hold only constant tap offsets, so the same pipeline runs on a
//! larger plane when every buffer keeps its origin (column, row) inside the
//! plane and its row count relative to the plane's padded rows. The smooth's
//! lifted index constants bake in the grid strides, so it runs only at the
//! grid size it was lifted at.

use crate::apps::{App, PAD};
use helium_apps::photoflow::{reference_filter, PhotoFilter};
use helium_apps::{Grid3D, PlanarImage};
use helium_core::{BufferLayout, LiftedStencil};
use helium_halide::{Buffer, Pipeline, RealizeInputs, ScalarType, Value};
use std::sync::Arc;

/// A lifted pipeline plus what is needed to bind it to new data.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Metric key of the kernel (filter name or `minigmg`).
    pub name: &'static str,
    /// The lifted pipeline of the first output plane.
    pub pipeline: Pipeline,
    params: Vec<(String, Value)>,
    form: Form,
}

#[derive(Debug, Clone)]
enum Form {
    Planar {
        filter: PhotoFilter,
        threshold: u8,
        brightness: i32,
        lift_image: PlanarImage,
        inputs: Vec<PlaneView>,
        output: PlaneView,
    },
    Grid {
        grid: Grid3D,
        input: (String, Arc<Buffer>),
    },
}

/// Where a lifted 2-D buffer sits in its plane: its origin (column, row),
/// which may lie before the plane's first byte.
#[derive(Debug, Clone)]
struct PlaneView {
    name: String,
    /// The plane an input always reads; `None` follows the output's plane.
    plane: Option<usize>,
    col: i64,
    row: i64,
    /// Buffer rows minus the plane's padded rows.
    rows_delta: i64,
}

impl PlaneView {
    /// Place buffer `b` in the nearest of the planes at `bases`. A byte
    /// offset splits into (column, row) many ways; the column is taken in
    /// `(PAD - stride, PAD]`, the split under which the lifted tap offsets
    /// keep each interior row inside one buffer row at any stride.
    fn locate(
        b: &BufferLayout,
        bases: &[u32; 3],
        stride: usize,
        padded_rows: usize,
    ) -> Option<PlaneView> {
        if b.extents.len() != 2
            || b.strides != [1, stride as u32]
            || b.extents[0] as usize != stride
        {
            return None;
        }
        let (plane, offset) = bases
            .iter()
            .map(|&base| i64::from(b.base) - i64::from(base))
            .enumerate()
            .min_by_key(|(_, offset)| offset.abs())?;
        let (stride, pad) = (stride as i64, PAD as i64);
        let col = pad - (pad - offset).rem_euclid(stride);
        Some(PlaneView {
            name: b.name.clone(),
            plane: Some(plane),
            col,
            row: (offset - col) / stride,
            rows_delta: i64::from(b.extents[1]) - padded_rows as i64,
        })
    }

    fn rows(&self, padded_rows: usize) -> usize {
        (padded_rows as i64 + self.rows_delta).max(1) as usize
    }

    /// Byte offset of the buffer's first element from the plane's.
    fn origin(&self, stride: usize) -> i64 {
        self.row * stride as i64 + self.col
    }
}

/// The reference output of the native port for one input.
#[derive(Debug, Clone)]
pub enum Native {
    /// Every plane of the filtered image.
    Image(PlanarImage),
    /// The smoothed grid.
    Grid(Grid3D),
}

/// A kernel bound to one input: per-plane image bindings and the extents to
/// realize over.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Output extents of one run.
    pub extents: Vec<usize>,
    /// Image bindings of each output plane's run.
    pub planes: Vec<Vec<(String, Arc<Buffer>)>>,
    /// Output cells one run must get right: the plane's interior pixels, or
    /// the grid's interior cells. Every ns/cell figure divides by this.
    pub cells: usize,
    /// Scalar parameter bindings observed while lifting.
    pub params: Vec<(String, Value)>,
}

impl Bound {
    /// The realize inputs of plane `plane`'s run.
    pub fn inputs(&self, plane: usize) -> RealizeInputs<'_> {
        let mut inputs = RealizeInputs::new();
        for (name, buf) in &self.planes[plane] {
            inputs = inputs.with_image(name, buf);
        }
        for (name, value) in &self.params {
            inputs = inputs.with_param(name, *value);
        }
        inputs
    }
}

impl Kernel {
    /// Make the primary lifted kernel of `app` portable.
    ///
    /// # Errors
    /// Describes a lifted layout this benchmark cannot rebind.
    pub fn from_lift(app: &App, lifted: &LiftedStencil) -> Result<Kernel, String> {
        let kernel = lifted.primary();
        let params = kernel
            .parameter_values
            .iter()
            .map(|(n, v)| (n.clone(), *v))
            .collect();
        let layout = |name: &str| {
            lifted
                .buffer(name)
                .ok_or_else(|| format!("{}: no layout for {name}", app.name()))
        };
        let form = match app {
            App::Photo(photo) => {
                let l = photo.layout();
                let (stride, rows) = (l.stride as usize, l.padded_rows as usize);
                let unsupported = |name: &str| {
                    let b = lifted.buffer(name);
                    format!(
                        "{}: cannot rebind buffer {name} (base {:x?}, extents {:?}, strides {:?}; plane stride {stride}, {rows} padded rows)",
                        app.name(),
                        b.map(|b| b.base),
                        b.map(|b| &b.extents),
                        b.map(|b| &b.strides)
                    )
                };
                let output =
                    PlaneView::locate(layout(&kernel.output)?, &l.output_planes, stride, rows)
                        .ok_or_else(|| unsupported(&kernel.output))?;
                let mut inputs = Vec::new();
                for name in kernel.pipeline.images.keys() {
                    let view = PlaneView::locate(layout(name)?, &l.input_planes, stride, rows)
                        .ok_or_else(|| unsupported(name))?;
                    inputs.push(view);
                }
                // A single-input kernel is the per-plane kernel: it reads the
                // plane it writes (the other planes' lifted kernels differ
                // only in buffer names).
                if let [only] = inputs.as_mut_slice() {
                    if only.plane != output.plane {
                        return Err(unsupported(&only.name));
                    }
                    only.plane = None;
                }
                Form::Planar {
                    filter: photo.filter(),
                    threshold: photo.threshold(),
                    brightness: photo.brightness(),
                    lift_image: photo.image().clone(),
                    inputs,
                    output,
                }
            }
            App::Smooth(gmg) => {
                let [name] = kernel.pipeline.images.keys().collect::<Vec<_>>()[..] else {
                    return Err(format!("{}: expected one input", app.name()));
                };
                let b = layout(name)?;
                if b.extents.len() != 1 || b.element_size != 8 {
                    return Err(format!("{}: expected a linear f64 input", app.name()));
                }
                let mem = app.fresh_cpu(true).mem;
                let mut buf = Buffer::new(ScalarType::Float64, &[b.extents[0] as usize]);
                for i in 0..b.extents[0] {
                    let v = mem.read_f64(b.base + i * b.strides[0]);
                    buf.set(&[i64::from(i)], Value::Float(v));
                }
                Form::Grid {
                    grid: gmg.grid().clone(),
                    input: (name.clone(), Arc::new(buf)),
                }
            }
        };
        Ok(Kernel {
            name: app.name(),
            pipeline: kernel.pipeline.clone(),
            params,
            form,
        })
    }

    /// Bind the kernel to `image`, or with `None` to the input it was lifted
    /// from. The smooth always runs on the grid it was lifted from.
    pub fn bind(&self, image: Option<&PlanarImage>) -> Bound {
        match &self.form {
            Form::Planar {
                inputs,
                output,
                lift_image,
                ..
            } => {
                let image = image.unwrap_or(lift_image);
                let stride = image.stride();
                let rows = image.planes[0].padded_rows();
                let planes = (0..3)
                    .map(|p| {
                        inputs
                            .iter()
                            .map(|view| {
                                let src = image.planes[view.plane.unwrap_or(p)].bytes();
                                let mut buf =
                                    Buffer::new(ScalarType::UInt8, &[stride, view.rows(rows)]);
                                // Bytes outside the plane stay zero.
                                let origin = view.origin(stride);
                                let skip = usize::try_from(-origin).unwrap_or(0).min(buf.len());
                                let from = usize::try_from(origin).unwrap_or(0).min(src.len());
                                let n = (src.len() - from).min(buf.len() - skip);
                                buf.bytes_mut()[skip..skip + n]
                                    .copy_from_slice(&src[from..from + n]);
                                (view.name.clone(), Arc::new(buf))
                            })
                            .collect()
                    })
                    .collect();
                Bound {
                    extents: vec![stride, output.rows(rows)],
                    planes,
                    cells: image.width() * image.height(),
                    params: self.params.clone(),
                }
            }
            Form::Grid { grid, input } => Bound {
                extents: vec![grid.nx, grid.ny, grid.nz],
                planes: vec![vec![input.clone()]],
                cells: grid.nx * grid.ny * grid.nz,
                params: self.params.clone(),
            },
        }
    }

    /// Run the native scalar port on the input [`Self::bind`] would bind.
    pub fn native(&self, image: Option<&PlanarImage>) -> Native {
        match &self.form {
            Form::Planar {
                filter,
                threshold,
                brightness,
                lift_image,
                ..
            } => Native::Image(reference_filter(
                *filter,
                image.unwrap_or(lift_image),
                *threshold,
                *brightness,
            )),
            Form::Grid { grid, .. } => Native::Grid(helium_apps::minigmg::reference_smooth(grid)),
        }
    }

    /// Whether the lifted output of plane `plane` equals the native port's,
    /// bit for bit, on every interior cell.
    pub fn matches(&self, plane: usize, out: &Buffer, native: &Native) -> bool {
        match (&self.form, native) {
            (Form::Planar { output, .. }, Native::Image(want)) => {
                let want = &want.planes[plane];
                let stride = want.stride();
                let (got, want_bytes) = (out.bytes(), want.bytes());
                let origin = output.origin(stride);
                (0..want.height).all(|y| {
                    let start = (y + PAD) * stride + PAD;
                    let Ok(at) = usize::try_from(start as i64 - origin) else {
                        return false;
                    };
                    got.get(at..at + want.width) == Some(&want_bytes[start..start + want.width])
                })
            }
            (Form::Grid { grid, .. }, Native::Grid(want)) => {
                let (nx, ny) = (grid.nx, grid.ny);
                (0..grid.nz).all(|z| {
                    (0..ny).all(|y| {
                        (0..nx).all(|x| {
                            let got = out.get_linear((z * ny + y) * nx + x).as_f64();
                            got.to_bits() == want.get(x, y, z).to_bits()
                        })
                    })
                })
            }
            _ => false,
        }
    }

    /// Output planes one input has (three for the filters, one grid).
    pub fn plane_count(&self) -> usize {
        match self.form {
            Form::Planar { .. } => 3,
            Form::Grid { .. } => 1,
        }
    }
}
