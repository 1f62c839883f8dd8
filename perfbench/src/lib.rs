//! End-to-end and per-layer performance benchmark of the FGDRAM
//! simulator. See `README.md` in this directory for the workloads, the
//! metrics and what each layer metric should move.

pub mod bench;
pub mod check;
mod driver;
pub mod pace;
pub mod spans;
