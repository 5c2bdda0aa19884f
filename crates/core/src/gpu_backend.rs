//! The GPU execution model: A100/H100 resident inference, falling back to
//! FlexGen-style offloading (weights/KV/activations in host memory, streamed
//! over PCIe) when model state exceeds device memory — the machine model
//! behind Figs. 17–21.

use crate::backend::{Backend, CostModel};
use crate::calib;
use crate::error::SimError;
use crate::exec::PhaseAccum;
use crate::offload::{self, OffloadPlan};
use crate::report::InferenceReport;
use crate::request::Request;
use crate::roofline::{op_time, Resources};
use llmsim_hw::{Bytes, GbPerSec, GpuSpec, Seconds};
use llmsim_mem::analytic::{dram_traffic, instruction_count};
use llmsim_mem::{synthesize, CounterInputs};
use llmsim_model::{DType, ModelConfig, OpClass, OpGraph};

/// GPU inference backend with automatic offloading.
///
/// # Examples
///
/// ```
/// use llmsim_core::{GpuBackend, Request, Backend};
/// use llmsim_model::families;
///
/// let h100 = GpuBackend::paper_h100();
/// // OPT-13B fits; runs resident.
/// let fits = h100.run(&families::opt_13b(), &Request::paper_default(1))?;
/// assert!(fits.offload.is_none());
/// // OPT-66B (132 GB of BF16 weights) exceeds 80 GB; offloads.
/// let big = h100.run(&families::opt_66b(), &Request::paper_default(1))?;
/// assert!(big.offload.is_some());
/// # Ok::<(), llmsim_core::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GpuBackend {
    gpu: GpuSpec,
    dtype: DType,
    /// Host memory available for offloaded state.
    host_memory: Bytes,
    /// Tensor-parallel shard denominator: this backend executes a
    /// `1/tp_shard` Megatron shard on the *resident* path (1 = whole
    /// model). Sharding can make an otherwise-offloading model resident;
    /// if even the shard must offload, the offload path conservatively
    /// prices the whole model (multi-GPU offload is not modeled).
    tp_shard: u64,
}

impl GpuBackend {
    /// Creates a backend with `host_memory` bytes of CPU DRAM behind it.
    #[must_use]
    pub fn new(gpu: GpuSpec, dtype: DType, host_memory: Bytes) -> Self {
        GpuBackend {
            gpu,
            dtype,
            host_memory,
            tp_shard: 1,
        }
    }

    /// Turns this backend into one rank of a `degree`-way tensor-parallel
    /// group (see the `tp_shard` field for semantics). NVLink all-reduce
    /// time is excluded — wrap shards in [`crate::TensorParallel`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedConfig`] if `degree` is zero.
    pub fn with_tensor_degree(mut self, degree: u64) -> Result<Self, SimError> {
        if degree == 0 {
            return Err(SimError::UnsupportedConfig(
                "tensor-parallel degree must be at least 1".into(),
            ));
        }
        self.tp_shard = degree;
        Ok(self)
    }

    /// The paper's A100-40GB server (Table II) with 512 GB of host DRAM.
    #[must_use]
    pub fn paper_a100() -> Self {
        Self::new(
            llmsim_hw::presets::a100_40gb(),
            DType::Bf16,
            Bytes::from_gib(512.0),
        )
    }

    /// The paper's H100-80GB server (Table II) with 512 GB of host DRAM.
    #[must_use]
    pub fn paper_h100() -> Self {
        Self::new(
            llmsim_hw::presets::h100_80gb(),
            DType::Bf16,
            Bytes::from_gib(512.0),
        )
    }

    /// The GPU spec.
    #[must_use]
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Model state (weights + final KV + activations) for a request.
    #[must_use]
    pub fn footprint(&self, model: &ModelConfig, request: &Request) -> Bytes {
        let weights = self.shard_weight_bytes(model);
        let kv = Bytes::new(
            model
                .kv_cache_bytes(request.final_context(), request.batch, self.dtype)
                .get()
                / self.tp_shard,
        );
        weights
            + kv
            + model.activation_bytes(
                request.batch * request.prompt_len,
                request.prompt_len,
                self.dtype,
            )
    }

    /// Whether this model/request runs device-resident.
    #[must_use]
    pub fn fits_resident(&self, model: &ModelConfig, request: &Request) -> bool {
        self.gpu.fits(self.footprint(model, request))
    }

    /// Whether `model`'s weights stay resident on the device across a
    /// serving session: weights must fit in device memory with a ~20%
    /// workspace reservation for the KV cache and activations (mirroring
    /// [`OffloadPlan::new`]'s pinning reserve). Request-independent — a
    /// serving replica decides residency once per model, not per request.
    #[must_use]
    pub fn serves_resident(&self, model: &ModelConfig) -> bool {
        let pinnable = (self.gpu.usable_memory().as_f64() * 0.8) as u64;
        self.shard_weight_bytes(model) <= Bytes::new(pinnable)
    }

    /// Wall-clock cost of one prefill pass (`batch` prompts of
    /// `prompt_len`) — the primitive serving schedulers plan with.
    /// Resident models run at device rates; larger models pay the
    /// FlexGen-style streamed-weight pass cost.
    ///
    /// # Panics
    ///
    /// Panics if the arguments are zero or the model is invalid.
    #[must_use]
    pub fn prefill_time(&self, model: &ModelConfig, batch: u64, prompt_len: u64) -> Seconds {
        if self.serves_resident(model) {
            let graph = llmsim_model::prefill_graph(model, batch, prompt_len, self.dtype);
            self.run_phase_resident(graph).time
        } else {
            let plan = OffloadPlan::new(&self.gpu, model, self.dtype);
            offload::pass_cost(
                &self.gpu, &plan, model, self.dtype, batch, prompt_len, prompt_len, false,
            )
            .total()
        }
    }

    /// Wall-clock cost of one decode step for `batch` sequences attending
    /// over `kv_len` context tokens (offloaded when the model does not
    /// serve resident).
    ///
    /// # Panics
    ///
    /// Panics if the arguments are zero or the model is invalid.
    #[must_use]
    pub fn decode_step_time(&self, model: &ModelConfig, batch: u64, kv_len: u64) -> Seconds {
        if self.serves_resident(model) {
            let graph = llmsim_model::decode_step_graph(model, batch, kv_len, self.dtype);
            self.run_phase_resident(graph).time
        } else {
            let plan = OffloadPlan::new(&self.gpu, model, self.dtype);
            offload::pass_cost(&self.gpu, &plan, model, self.dtype, batch, 1, kv_len, true).total()
        }
    }

    /// One rank's share of `model`'s weights.
    fn shard_weight_bytes(&self, model: &ModelConfig) -> Bytes {
        Bytes::new(model.weight_bytes(self.dtype).get() / self.tp_shard)
    }

    /// Executes one phase graph device-resident, as one rank's shard
    /// under tensor parallelism.
    fn run_phase_resident(&self, mut graph: OpGraph) -> PhaseAccum {
        if self.tp_shard > 1 {
            graph = graph.with_tensor_parallel(self.tp_shard);
        }
        let bandwidth = self.gpu.memory_bandwidth.scale(calib::GPU_BW_DERATE);
        let cache = self.gpu.l2_capacity;
        let mut acc = PhaseAccum::default();
        for op in &graph.ops {
            let rate = match op.class() {
                OpClass::Gemm | OpClass::Attention => {
                    let m_eff = op
                        .matmul_shape()
                        .map(|s| (s.m as f64 / calib::GPU_SKINNY_M_TILE).min(1.0))
                        .unwrap_or(1.0);
                    self.gpu.bf16_peak.scale(calib::GPU_GEMM_EFF * m_eff)
                }
                // Elementwise/normalization kernels are bandwidth-bound on
                // GPUs; give them a nominal high compute rate so the memory
                // term dominates.
                _ => self.gpu.bf16_peak.scale(0.1),
            };
            let streamed = Bytes::new(op.weight_bytes() + op.kv_read_bytes() + op.kv_write_bytes());
            let reused = Bytes::new(op.act_bytes());
            let dram = dram_traffic(streamed, reused, cache);
            let res = Resources {
                compute: rate,
                bandwidth,
                overhead: Seconds::new(calib::GPU_KERNEL_OVERHEAD_S),
            };
            let t = op_time(&res, op.flops(), dram);
            let r = op.repeat as f64;
            let instrs = instruction_count(op.flops(), 512.0, op.total_bytes()) * r;
            acc.add(
                t,
                r,
                op.flops() * r,
                dram.as_f64() * r,
                (op.weight_bytes() + op.kv_read_bytes()) as f64 * r,
                op.kv_write_bytes() as f64 * r,
                instrs,
            );
        }
        acc
    }
}

impl Backend for GpuBackend {
    fn name(&self) -> String {
        self.gpu.name.clone()
    }

    fn run(&self, model: &ModelConfig, request: &Request) -> Result<InferenceReport, SimError> {
        model.validate().map_err(SimError::InvalidRequest)?;
        if self.tp_shard > 1 {
            model
                .supports_tensor_parallel(self.tp_shard)
                .map_err(SimError::InvalidRequest)?;
        }
        let footprint = self.footprint(model, request);

        if self.fits_resident(model, request) {
            // --- resident path ---
            let prefill = self.run_phase_resident(llmsim_model::prefill_graph(
                model,
                request.batch,
                request.prompt_len,
                self.dtype,
            ));
            let mut decode = PhaseAccum::default();
            for step in 0..request.decode_steps() {
                let kv_len = request.prompt_len + 1 + step;
                let graph =
                    llmsim_model::decode_step_graph(model, request.batch, kv_len, self.dtype);
                decode.merge(&self.run_phase_resident(graph));
            }
            let ttft = prefill.time;
            let tpot = if request.decode_steps() == 0 {
                Seconds::ZERO
            } else {
                Seconds::new(decode.time.as_f64() / request.decode_steps() as f64)
            };
            let e2e = prefill.time + decode.time;
            let total_dram = prefill.dram_bytes + decode.dram_bytes;
            let counters = synthesize(&CounterInputs {
                instructions: prefill.instructions + decode.instructions,
                dram_read_bytes: total_dram * 0.85,
                dram_write_bytes: total_dram * 0.15,
                load_bytes: prefill.load_bytes + decode.load_bytes,
                store_bytes: prefill.store_bytes + decode.store_bytes,
                compute_busy: prefill.compute_busy + decode.compute_busy,
                elapsed: e2e,
                upi_bytes: 0.0,
                upi_capacity_bytes_per_sec: 0.0,
                remote_fraction: 0.0,
            });
            return Ok(InferenceReport {
                model: model.name.clone(),
                backend: self.name(),
                request: *request,
                ttft,
                tpot,
                e2e_latency: e2e,
                prefill: prefill.report(),
                decode: decode.report(),
                counters,
                offload: None,
            });
        }

        // --- offload path ---
        if footprint > self.host_memory {
            return Err(SimError::ModelTooLarge {
                backend: format!("{} + host", self.name()),
                required: footprint,
                available: self.host_memory,
            });
        }
        let plan = OffloadPlan::new(&self.gpu, model, self.dtype);
        offload::run_offloaded(self, &plan, model, request)
    }
}

impl CostModel for GpuBackend {
    fn prefill_time(&self, model: &ModelConfig, batch: u64, prompt_len: u64) -> Seconds {
        GpuBackend::prefill_time(self, model, batch, prompt_len)
    }

    fn decode_step_time(&self, model: &ModelConfig, batch: u64, kv_len: u64) -> Seconds {
        GpuBackend::decode_step_time(self, model, batch, kv_len)
    }

    fn weight_bytes(&self, model: &ModelConfig) -> Bytes {
        model.weight_bytes(self.dtype)
    }

    fn weight_load_bandwidth(&self) -> GbPerSec {
        // Weights reach the device over the host link whether the model
        // ends up resident or streamed.
        self.gpu.host_link.effective_bandwidth()
    }

    fn holds_resident(&self, model: &ModelConfig) -> bool {
        self.serves_resident(model)
    }

    fn kv_capacity_bytes(&self, models: &[ModelConfig]) -> Bytes {
        // Only resident weights occupy device memory — offloaded models'
        // weights stream from host and never crowd the on-device cache.
        models
            .iter()
            .filter(|m| self.serves_resident(m))
            .fold(self.gpu.usable_memory(), |left, m| {
                left.saturating_sub(self.shard_weight_bytes(m))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim_model::families;

    #[test]
    fn small_models_run_resident_and_fast() {
        let a100 = GpuBackend::paper_a100();
        let r = a100
            .run(&families::opt_6_7b(), &Request::paper_default(1))
            .unwrap();
        assert!(r.offload.is_none());
        // A 6.7B model decodes well under 20 ms/token on an A100.
        assert!(r.tpot.as_f64() < 0.02, "{}", r.tpot);
    }

    #[test]
    fn a100_offloads_opt30b_h100_keeps_it_resident() {
        // §V-B: "while the H100 GPU could accommodate the entire OPT-30B
        // model ... the A100 GPU needs to offload".
        let req = Request::paper_default(1);
        let m = families::opt_30b();
        assert!(!GpuBackend::paper_a100().fits_resident(&m, &req));
        assert!(GpuBackend::paper_h100().fits_resident(&m, &req));
    }

    #[test]
    fn offloaded_run_reports_breakdown() {
        let a100 = GpuBackend::paper_a100();
        let r = a100
            .run(&families::opt_30b(), &Request::paper_default(1))
            .unwrap();
        let b = r.offload.expect("offloaded run must carry a breakdown");
        assert!(b.data_loading_fraction() > 0.5);
    }

    #[test]
    fn h100_outpaces_a100_resident() {
        let m = families::opt_13b();
        let req = Request::paper_default(1);
        let a = GpuBackend::paper_a100().run(&m, &req).unwrap();
        let h = GpuBackend::paper_h100().run(&m, &req).unwrap();
        assert!(h.e2e_latency < a.e2e_latency);
    }

    #[test]
    fn beyond_host_memory_errors() {
        let tiny_host = GpuBackend::new(
            llmsim_hw::presets::a100_40gb(),
            DType::Bf16,
            Bytes::from_gib(64.0),
        );
        let err = tiny_host
            .run(&families::opt_66b(), &Request::paper_default(1))
            .unwrap_err();
        assert!(matches!(err, SimError::ModelTooLarge { .. }));
    }
}
