//! # helium-core
//!
//! The Helium pipeline itself: lifting high-performance stencil kernels from
//! dynamic traces of stripped binaries up to Halide DSL code (PLDI 2015).
//!
//! The crate mirrors the two stages of the paper:
//!
//! * **Code localization** (paper §3): [`localize`] combines coverage
//!   differencing, [`regions`] (buffer structure reconstruction, Fig. 3) and
//!   dynamic-CFG-based filter-function selection.
//! * **Expression extraction** (paper §4): [`extract`] preprocesses the
//!   instruction trace (registers mapped to memory, x87 stack renamed), runs
//!   the forward analysis for input-dependent conditionals and indirect
//!   accesses, and builds concrete data-dependency [`trees`]; [`symbolic`]
//!   clusters and abstracts them and solves the affine index functions with
//!   [`linalg`]; [`codegen`] finally emits `helium-halide` pipelines and
//!   Halide C++ source.
//!
//! The [`Lifter`] type orchestrates the five instrumented runs end to end.

#![warn(missing_docs)]

pub mod codegen;
pub mod extract;
pub mod layout;
pub mod lift;
pub mod linalg;
pub mod localize;
pub mod regions;
pub mod symbolic;
pub mod trees;

pub use codegen::GeneratedKernel;
pub use layout::{BufferLayout, BufferRole, KnownData};
pub use lift::{LiftError, LiftPhases, LiftRequest, LiftStats, LiftedStencil, Lifter};
pub use localize::{Localization, LocalizationStats};
pub use symbolic::SymbolicCluster;
pub use trees::{GuardedTree, Tree};
