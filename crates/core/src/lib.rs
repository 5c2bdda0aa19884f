//! # llmsim-core — the LLM inference performance engine
//!
//! Executes [`llmsim_model`] operator graphs on [`llmsim_hw`] machine
//! descriptions through a calibrated per-operator roofline, producing the
//! paper's metric set (TTFT, TPOT, E2E latency, token/s, hardware counters).
//!
//! Backends:
//! - [`CpuBackend`] — ICL/SPR CPUs with AMX/AVX-512 engine selection, NUMA
//!   memory/clustering modes, and core-count scaling (Figs. 8–16).
//! - [`GpuBackend`] — A100/H100, device-resident when the model fits,
//!   FlexGen-style PCIe offloading otherwise (Figs. 17–21).
//!
//! # Examples
//!
//! ```
//! use llmsim_core::{Backend, CpuBackend, GpuBackend, Request};
//! use llmsim_model::families;
//!
//! // Key Finding #4's crossover: the CPU beats an offloading A100 on
//! // OPT-30B, but loses to a resident A100 on OPT-13B.
//! let cpu = CpuBackend::paper_spr();
//! let gpu = GpuBackend::paper_a100();
//! let req = Request::paper_default(1);
//!
//! let small_cpu = cpu.run(&families::opt_13b(), &req)?;
//! let small_gpu = gpu.run(&families::opt_13b(), &req)?;
//! assert!(small_gpu.e2e_latency < small_cpu.e2e_latency);
//!
//! let big_cpu = cpu.run(&families::opt_30b(), &req)?;
//! let big_gpu = gpu.run(&families::opt_30b(), &req)?;
//! assert!(big_cpu.e2e_latency < big_gpu.e2e_latency);
//! # Ok::<(), llmsim_core::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod calib;
pub mod cpu_backend;
pub mod error;
mod exec;
pub mod gpu_backend;
pub mod hybrid_backend;
pub mod offload;
pub mod offload_pipeline;
pub mod pricing;
pub mod report;
pub mod request;
pub mod resilience;
pub mod roofline;
pub mod serving;
pub mod tp;
pub mod trace;

pub use backend::{Backend, CostModel};
pub use cpu_backend::CpuBackend;
pub use error::SimError;
pub use gpu_backend::GpuBackend;
pub use hybrid_backend::HybridBackend;
pub use offload::OffloadPlan;
pub use pricing::StepTable;
pub use report::{InferenceReport, OffloadBreakdown, PhaseReport};
pub use request::Request;
pub use resilience::{
    simulate_resilient, AdmissionPolicy, DegradationPolicy, FailureKind, FaultModel,
    ResilienceConfig, ResilienceReport, ResilientOutcome, RetryPolicy, SimRng, SloPolicy,
    TerminalState, TimeoutPhase,
};
pub use serving::{SchedulingPolicy, ServingConfig, ServingReport, ServingRequest};
pub use tp::TensorParallel;
pub use trace::{NullSink, SpanFormat, SpanOutcome, SpanRecord, SpanSink, StreamSink, VecSink};
