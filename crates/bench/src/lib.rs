//! # llmsim-bench — paper table/figure regeneration and benchmarks
//!
//! One experiment module per table and figure of the paper (see the
//! DESIGN.md experiment index), a parallel sweep runner, and a wall-clock
//! binary timing the emulated GEMM kernels (`bench_kernels`).
//!
//! Each figure has a thin binary (`fig08_icl_vs_spr`, …) wrapping its
//! module; `all_experiments` regenerates everything in paper order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod experiments;
pub mod runner;
