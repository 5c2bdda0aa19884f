//! The backend abstraction: anything that can serve an inference request.

use crate::error::SimError;
use crate::report::InferenceReport;
use crate::request::Request;
use llmsim_hw::{Bytes, GbPerSec, Seconds};
use llmsim_model::ModelConfig;

/// A hardware execution model that can simulate serving a request.
///
/// Implemented by [`crate::CpuBackend`] (ICL/SPR with NUMA configuration)
/// and [`crate::GpuBackend`] (A100/H100 with automatic FlexGen-style
/// offloading when the model exceeds device memory).
pub trait Backend {
    /// Human-readable description, e.g. `"SPR Max 9468 (quad_flat, 48c)"`.
    fn name(&self) -> String;

    /// Simulates serving `request` with `model`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the request is malformed or the model state
    /// cannot be placed on this backend at all.
    fn run(&self, model: &ModelConfig, request: &Request) -> Result<InferenceReport, SimError>;
}

/// Phase-granular cost primitives a serving scheduler plans with.
///
/// [`crate::serving`] and the cluster-level simulator schedule work from
/// two primitives — one prefill pass and one decode step — rather than
/// whole-request runs. Routers and autoscalers additionally need the
/// state sizes behind those costs: the weight footprint (cold-start
/// warmup is weights ÷ load bandwidth) and whether the model's weights
/// sit resident in the backend's fast local memory or must be streamed
/// every pass (the Fig. 17/19 fits-vs-offloads crossover, which is what
/// makes heterogeneous routing profitable).
///
/// Implemented by [`crate::CpuBackend`] (always resident when it fits)
/// and [`crate::GpuBackend`] (resident below device memory, FlexGen-style
/// offloaded above it).
///
/// # Purity
///
/// [`Self::prefill_time`], [`Self::decode_step_time`],
/// [`Self::weight_bytes`], [`Self::holds_resident`] and
/// [`Self::kv_capacity_bytes`] are pure functions of their arguments: the
/// same backend asked about the same model and shape (or model set)
/// returns the same value, bit for bit, however often and in whatever
/// order it is asked. Serving loops rely on this to price each step once
/// ([`crate::pricing::StepTable`]) and to memoize whole service times,
/// the cluster engine asks `holds_resident` once per replica and model at
/// setup, and every warmup and KV-pool sizing re-asks the other two and
/// expects the same answer. So an implementation must not read mutable
/// state (a clock, a counter, a random stream) into any of them.
pub trait CostModel: Backend {
    /// Wall-clock cost of one prefill pass: `batch` prompts of
    /// `prompt_len` tokens. Pure (see the trait docs).
    fn prefill_time(&self, model: &ModelConfig, batch: u64, prompt_len: u64) -> Seconds;

    /// Wall-clock cost of one decode step for `batch` sequences attending
    /// over `kv_len` context tokens. Pure (see the trait docs).
    fn decode_step_time(&self, model: &ModelConfig, batch: u64, kv_len: u64) -> Seconds;

    /// Bytes of weight state this backend keeps for `model`. Pure (see
    /// the trait docs).
    fn weight_bytes(&self, model: &ModelConfig) -> Bytes;

    /// Sustained bandwidth at which a cold replica pages weights in — the
    /// denominator of the cluster simulator's warmup time.
    fn weight_load_bandwidth(&self) -> GbPerSec;

    /// Whether `model`'s weights stay resident in this backend's fast
    /// local memory (false = streamed/offloaded every pass). Pure (see
    /// the trait docs).
    fn holds_resident(&self, model: &ModelConfig) -> bool;

    /// Bytes left for KV-cache state after the fleet's weight footprint
    /// is placed: the memory pool serving reads KV from, minus the weight
    /// bytes of every model in `models` that lives in that pool. Zero
    /// (saturating) when the weights alone overflow it — such a backend
    /// can hold no paged cache at all. Pure (see the trait docs).
    fn kv_capacity_bytes(&self, models: &[ModelConfig]) -> Bytes;
}
