//! # llmsim — LLM inference performance simulation on CPUs
//!
//! A facade crate re-exporting the full `llmsim` workspace: a from-scratch
//! Rust reproduction of *"Understanding Performance Implications of LLM
//! Inference on CPUs"* (IISWC 2024).
//!
//! The workspace simulates LLM inference (OPT and LLaMA-2 families) on the
//! paper's hardware — Intel Ice Lake and Sapphire Rapids Max CPUs (AMX +
//! HBM), and NVIDIA A100/H100 GPUs with FlexGen-style offloading — using a
//! functional AMX emulator, a cache/NUMA memory model, and a calibrated
//! per-operator roofline engine.
//!
//! # Quickstart
//!
//! ```
//! use llmsim::model::families;
//! use llmsim::core::{Backend, CpuBackend, Request};
//!
//! let spr = CpuBackend::paper_spr(); // quad_flat, 48 cores
//! let report = spr.run(&families::llama2_13b(), &Request::new(8, 128, 32))?;
//! assert!(report.e2e_latency.as_f64() > 0.0);
//! println!("TTFT {}  TPOT {}", report.ttft, report.tpot);
//! # Ok::<(), llmsim::core::SimError>(())
//! ```

#![forbid(unsafe_code)]

pub use llmsim_cluster as cluster;
pub use llmsim_core as core;
pub use llmsim_hw as hw;
pub use llmsim_isa as isa;
pub use llmsim_mem as mem;
pub use llmsim_model as model;
pub use llmsim_report as report;
pub use llmsim_workload as workload;
