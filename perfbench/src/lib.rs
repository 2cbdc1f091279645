//! End-to-end and per-layer benchmark of the Helium reproduction: lifting
//! stencils out of legacy binaries, running the lifted kernels against the
//! native scalar ports, and serving them. See `README.md` for the metrics.

pub mod apps;
pub mod kernels;
pub mod openloop;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
