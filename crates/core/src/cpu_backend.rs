//! The CPU execution model: ICL (AVX-512) and SPR Max (AMX + HBM) under any
//! NUMA configuration and core count — the machine model behind Figs. 8–16.

use crate::backend::{Backend, CostModel};
use crate::calib;
use crate::error::SimError;
use crate::exec::PhaseAccum;
use crate::report::InferenceReport;
use crate::request::Request;
use crate::roofline::{op_time, Resources};
use llmsim_hw::cpu::ComputeEngine;
use llmsim_hw::topology::MemoryMode;
use llmsim_hw::{Bytes, CpuSpec, GbPerSec, NumaConfig, Seconds};
use llmsim_isa::timing::{gemm_efficiency, EngineKind, GemmShape};
use llmsim_mem::analytic::{dram_traffic, instruction_count};
use llmsim_mem::numa::{EffectiveMemory, MemSystem};
use llmsim_mem::{synthesize, CounterInputs};
use llmsim_model::{DType, ModelConfig, OpClass, OpGraph, Operator, Phase};

/// CPU inference backend.
///
/// # Examples
///
/// ```
/// use llmsim_core::{CpuBackend, Request, Backend};
/// use llmsim_model::families;
///
/// let spr = CpuBackend::paper_spr();
/// let icl = CpuBackend::paper_icl();
/// let req = Request::paper_default(8);
/// let m = families::opt_6_7b();
/// let fast = spr.run(&m, &req)?;
/// let slow = icl.run(&m, &req)?;
/// assert!(fast.e2e_latency < slow.e2e_latency);
/// # Ok::<(), llmsim_core::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CpuBackend {
    mem: MemSystem,
    cores: u32,
    dtype: DType,
    /// Weight stream dtype (differs from `dtype` under weight-only
    /// quantization).
    weight_dtype: DType,
    /// Fraction of the KV cache attended per decode step (1.0 = full
    /// attention; <1.0 models H2O-style heavy-hitter compression).
    kv_keep_ratio: f64,
    /// Optional software effect: per-sequence per-layer decode attention
    /// overhead (unfused kernels); zero by default.
    attn_overhead_per_seq_layer: Seconds,
    /// Tensor-parallel shard denominator: this backend executes a
    /// `1/tp_shard` Megatron-style shard of every model (1 = whole model).
    /// Interconnect cost is *not* included here — [`crate::TensorParallel`]
    /// wraps shards and prices the all-reduces.
    tp_shard: u64,
}

impl CpuBackend {
    /// Creates a backend.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedConfig`] if `cores` is zero or exceeds
    /// the machine, or the NUMA mode needs hardware the CPU lacks.
    pub fn new(cpu: CpuSpec, numa: NumaConfig, cores: u32, dtype: DType) -> Result<Self, SimError> {
        if cores == 0 || cores > cpu.topology.total_cores() {
            return Err(SimError::UnsupportedConfig(format!(
                "{}: cannot run on {cores} cores (machine has {})",
                cpu.name,
                cpu.topology.total_cores()
            )));
        }
        if numa.memory == MemoryMode::HbmOnly && !cpu.has_hbm() {
            return Err(SimError::UnsupportedConfig(format!(
                "{}: HBM-only mode requires HBM",
                cpu.name
            )));
        }
        Ok(CpuBackend {
            mem: MemSystem::new(cpu, numa),
            cores,
            dtype,
            weight_dtype: dtype,
            kv_keep_ratio: 1.0,
            attn_overhead_per_seq_layer: Seconds::ZERO,
            tp_shard: 1,
        })
    }

    /// Turns this backend into one rank of a `degree`-way tensor-parallel
    /// group: every graph it executes is the per-rank Megatron shard
    /// (heads and FFN columns split, norms replicated), and capacity
    /// checks size the shard, not the whole model. All-reduce time is
    /// deliberately excluded — wrap shards in [`crate::TensorParallel`]
    /// to price the interconnect.
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

    /// Enables weight-only quantization: weights stream in `dtype` (e.g.
    /// [`DType::Int8`]) while activations, KV cache and compute stay in the
    /// backend's base dtype — the §VII-B technique of Shen et al.,
    /// "Efficient LLM inference on CPUs".
    #[must_use]
    pub fn with_weight_dtype(mut self, dtype: DType) -> Self {
        self.weight_dtype = dtype;
        self
    }

    /// Enables H2O-style KV-cache compression (the paper's ref. \[58\]): only
    /// `keep_ratio` of the cached tokens are attended per decode step.
    ///
    /// # Panics
    ///
    /// Panics if `keep_ratio` is not in `(0, 1]`.
    #[must_use]
    pub fn with_kv_keep_ratio(mut self, keep_ratio: f64) -> Self {
        assert!(
            keep_ratio > 0.0 && keep_ratio <= 1.0,
            "keep ratio must be in (0,1]"
        );
        self.kv_keep_ratio = keep_ratio;
        self
    }

    /// Adds a per-sequence, per-layer decode attention overhead — a
    /// *software* effect (unfused attention kernels iterate sequences) that
    /// the default roofline omits. Used by the Fig. 21 sensitivity ablation;
    /// see DESIGN.md §"Known limitations".
    #[must_use]
    pub fn with_attention_overhead(mut self, per_seq_layer: Seconds) -> Self {
        self.attn_overhead_per_seq_layer = per_seq_layer;
        self
    }

    /// The paper's tuned SPR configuration: Xeon Max 9468, `quad_flat`,
    /// 48 cores, BF16 (Key Findings #2/#3).
    #[must_use]
    pub fn paper_spr() -> Self {
        Self::new(
            llmsim_hw::presets::spr_max_9468(),
            NumaConfig::QUAD_FLAT,
            48,
            DType::Bf16,
        )
        .expect("paper SPR configuration is valid")
    }

    /// The paper's ICL configuration: Xeon 8352Y, 32 cores, BF16.
    #[must_use]
    pub fn paper_icl() -> Self {
        Self::new(
            llmsim_hw::presets::icl_8352y(),
            NumaConfig::QUAD_FLAT,
            32,
            DType::Bf16,
        )
        .expect("paper ICL configuration is valid")
    }

    /// The CPU spec this backend models.
    #[must_use]
    pub fn cpu(&self) -> &CpuSpec {
        self.mem.cpu()
    }

    /// Active cores.
    #[must_use]
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// NUMA configuration.
    #[must_use]
    pub fn numa(&self) -> NumaConfig {
        self.mem.numa()
    }

    /// Element type of activations and the KV cache (weight-only
    /// quantization does not change it).
    #[must_use]
    pub fn kv_dtype(&self) -> DType {
        self.dtype
    }

    /// Total resident state for `model` serving `request` (weights + final
    /// KV cache + peak activations). Under tensor parallelism this is one
    /// rank's shard: weights and KV divide by the degree (activations are
    /// conservatively kept whole — residual streams are replicated).
    #[must_use]
    pub fn footprint(&self, model: &ModelConfig, request: &Request) -> Bytes {
        let weights = self.shard_weight_bytes(model);
        let kv = Bytes::new(
            model
                .kv_cache_bytes(request.final_context(), request.batch, self.dtype)
                .get()
                / self.tp_shard,
        );
        let act = model.activation_bytes(
            request.batch * request.prompt_len,
            request.prompt_len,
            self.dtype,
        );
        weights + kv + act
    }

    /// Wall-clock cost of one prefill pass (`batch` prompts of
    /// `prompt_len`), without building a full report — the primitive the
    /// serving simulator schedules with.
    ///
    /// # Panics
    ///
    /// Panics if the arguments are zero or the model is invalid.
    #[must_use]
    pub fn prefill_time(&self, model: &ModelConfig, batch: u64, prompt_len: u64) -> Seconds {
        let footprint = self.footprint(model, &Request::new(batch, prompt_len, 1));
        let eff_mem = self.mem.effective(self.cores, footprint);
        let graph = llmsim_model::prefill_graph(model, batch, prompt_len, self.dtype);
        self.run_phase(&self.shard_graph(graph), &eff_mem).time
    }

    /// Wall-clock cost of one decode step for `batch` sequences attending
    /// over `kv_len` context tokens.
    ///
    /// # Panics
    ///
    /// Panics if the arguments are zero or the model is invalid.
    #[must_use]
    pub fn decode_step_time(&self, model: &ModelConfig, batch: u64, kv_len: u64) -> Seconds {
        let whole =
            model.weight_bytes(self.weight_dtype) + model.kv_cache_bytes(kv_len, batch, self.dtype);
        let footprint = Bytes::new(whole.get() / self.tp_shard);
        let eff_mem = self.mem.effective(self.cores, footprint);
        self.price_decode_step(model, batch, kv_len, &eff_mem).time
    }

    /// One rank's share of `model`'s weights, in the weight-stream dtype.
    fn shard_weight_bytes(&self, model: &ModelConfig) -> Bytes {
        Bytes::new(model.weight_bytes(self.weight_dtype).get() / self.tp_shard)
    }

    /// Memory the NUMA mode gives a model: HBM alone in HBM-only mode,
    /// every tier otherwise.
    fn memory_capacity(&self) -> Bytes {
        match self.numa().memory {
            MemoryMode::HbmOnly => self.cpu().hbm.as_ref().map_or(Bytes::ZERO, |h| h.capacity),
            _ => self.cpu().total_memory_capacity(),
        }
    }

    /// `graph` as one rank of this backend executes it: the
    /// tensor-parallel shard, streaming weights in the weight dtype.
    fn shard_graph(&self, mut graph: OpGraph) -> OpGraph {
        if self.tp_shard > 1 {
            graph = graph.with_tensor_parallel(self.tp_shard);
        }
        if self.weight_dtype != self.dtype {
            graph = graph.with_weight_dtype(self.weight_dtype);
        }
        graph
    }

    /// Prices one decode step on `eff_mem`: the sharded decode graph under
    /// KV compression, plus the per-sequence attention overhead, which
    /// counts as compute.
    fn price_decode_step(
        &self,
        model: &ModelConfig,
        batch: u64,
        kv_len: u64,
        eff_mem: &EffectiveMemory,
    ) -> PhaseAccum {
        let graph = llmsim_model::decode_step_graph(model, batch, kv_len, self.dtype);
        let mut g = self.shard_graph(graph);
        if self.kv_keep_ratio < 1.0 {
            g = g.with_kv_keep_ratio(self.kv_keep_ratio);
        }
        let overhead = self
            .attn_overhead_per_seq_layer
            .scale((batch * model.n_layers) as f64);
        let mut acc = self.run_phase(&g, eff_mem);
        acc.time += overhead;
        acc.compute_busy += overhead;
        acc
    }

    /// Selects the matrix engine, its shape efficiency, and the dynamic
    /// instruction width (FLOPs per retired instruction) for an operator.
    fn compute_rate(&self, op: &Operator) -> (llmsim_hw::FlopsPerSec, f64) {
        let cpu = self.cpu();
        let sockets = cpu.topology.sockets_spanned(self.cores);
        let cross_socket = if sockets > 1 {
            calib::CROSS_SOCKET_COMPUTE_DERATE
        } else {
            1.0
        };
        let parallel = calib::CPU_PARALLEL_EFF * cross_socket;

        match op.class() {
            OpClass::Gemm | OpClass::Attention => {
                let shape = op
                    .matmul_shape()
                    .map(|s| GemmShape::batched(s.m, s.n, s.k, s.batch))
                    .unwrap_or_else(|| GemmShape::new(1, 1, 1));
                if cpu.has_amx() && self.dtype.amx_native() {
                    let eff = gemm_efficiency(EngineKind::AmxBf16, shape);
                    let peak = cpu.peak_flops(ComputeEngine::Amx, self.cores);
                    (peak.scale(eff * parallel), calib::AMX_FLOPS_PER_INSTR)
                } else {
                    let eff = gemm_efficiency(EngineKind::Avx512Bf16, shape);
                    let peak = cpu.peak_flops(ComputeEngine::Avx512, self.cores);
                    (
                        peak.scale(eff * parallel),
                        calib::AVX512_BF16_FLOPS_PER_INSTR,
                    )
                }
            }
            OpClass::Normalization | OpClass::Elementwise | OpClass::Memory => {
                // Vector (non-matrix) code path: FP32 AVX-512 at a modest
                // fraction of peak (these ops are short and latency-bound).
                let peak = cpu.peak_flops(ComputeEngine::Avx512, self.cores);
                (
                    peak.scale(0.25 * parallel),
                    calib::AVX512_F32_FLOPS_PER_INSTR,
                )
            }
        }
    }

    /// Executes one phase graph and accumulates totals.
    fn run_phase(&self, graph: &OpGraph, eff_mem: &EffectiveMemory) -> PhaseAccum {
        let cpu = self.cpu();
        let bw_derate = match graph.phase {
            Phase::Prefill => calib::CPU_PREFILL_BW_DERATE,
            // Traffic-weighted between the HBM and DDR streaming derates
            // (≈ the harmonic-exact value for the mixes that occur).
            Phase::Decode => {
                eff_mem.hbm_traffic_fraction * calib::CPU_DECODE_BW_DERATE_HBM
                    + (1.0 - eff_mem.hbm_traffic_fraction) * calib::CPU_DECODE_BW_DERATE_DDR
            }
        };
        let bandwidth = eff_mem.bandwidth.scale(bw_derate);
        let cache_capacity = cpu
            .caches
            .total_capacity(self.cores.min(cpu.topology.cores_per_socket));

        let mut acc = PhaseAccum::default();
        for op in &graph.ops {
            let (rate, flops_per_instr) = self.compute_rate(op);
            let streamed = Bytes::new(op.weight_bytes() + op.kv_read_bytes() + op.kv_write_bytes());
            let reused = Bytes::new(op.act_bytes());
            let dram = dram_traffic(streamed, reused, cache_capacity);
            let resources = Resources {
                compute: rate,
                bandwidth,
                overhead: Seconds::new(calib::CPU_OP_OVERHEAD_S),
            };
            let t = op_time(&resources, op.flops(), dram);
            let r = op.repeat as f64;
            let instrs = instruction_count(op.flops(), flops_per_instr, op.total_bytes()) * r;
            let loads = (op.weight_bytes() + op.kv_read_bytes()) as f64 * r
                + op.act_bytes() as f64 * 0.6 * r;
            let stores = op.kv_write_bytes() as f64 * r + op.act_bytes() as f64 * 0.4 * r;
            acc.add(
                t,
                r,
                op.flops() * r,
                dram.as_f64() * r,
                loads,
                stores,
                instrs,
            );
        }
        acc
    }
}

impl Backend for CpuBackend {
    fn name(&self) -> String {
        format!("{} ({}, {}c)", self.cpu().name, self.numa(), self.cores)
    }

    fn run(&self, model: &ModelConfig, request: &Request) -> Result<InferenceReport, SimError> {
        model.validate().map_err(SimError::InvalidRequest)?;
        if self.tp_shard > 1 {
            model
                .supports_tensor_parallel(self.tp_shard)
                .map_err(SimError::InvalidRequest)?;
        }
        let footprint = self.footprint(model, request);
        let available = self.memory_capacity();
        if footprint > available {
            return Err(SimError::ModelTooLarge {
                backend: self.name(),
                required: footprint,
                available,
            });
        }

        let eff_mem = self.mem.effective(self.cores, footprint);

        // --- prefill ---
        let graph =
            llmsim_model::prefill_graph(model, request.batch, request.prompt_len, self.dtype);
        let prefill = self.run_phase(&self.shard_graph(graph), &eff_mem);

        // --- decode: one step per generated token after the first ---
        let mut decode = PhaseAccum::default();
        for step in 0..request.decode_steps() {
            let kv_len = request.prompt_len + 1 + step;
            decode.merge(&self.price_decode_step(model, request.batch, kv_len, &eff_mem));
        }

        let ttft = prefill.time;
        let decode_steps = request.decode_steps();
        let tpot = if decode_steps == 0 {
            Seconds::ZERO
        } else {
            Seconds::new(decode.time.as_f64() / decode_steps as f64)
        };
        let e2e = prefill.time + decode.time;

        // --- counters ---
        // Config-dependent traffic inflation visible to the *counters*
        // (timing already absorbs these through the bandwidth derates):
        // HBM-cache misses move data twice (DDR→HBM fill, HBM→core), and
        // SNC remote accesses generate snoop traffic.
        let cache_mode_inflation = match self.numa().memory {
            // 5% metadata/fill floor even at full residency, plus the
            // double-movement cost of misses.
            MemoryMode::Cache => 0.05 + 0.3 * (1.0 - eff_mem.hbm_traffic_fraction.min(1.0)),
            _ => 0.0,
        };
        let snc_inflation = 0.1 * eff_mem.snc_remote_fraction;
        let traffic_factor = 1.0 + cache_mode_inflation + snc_inflation;
        let raw_dram = prefill.dram_bytes + decode.dram_bytes;
        let total_dram = raw_dram * traffic_factor;
        let upi_capacity = self.cpu().upi.effective_bandwidth().bytes_per_sec();
        let remote_fraction = eff_mem
            .snc_remote_fraction
            .max(eff_mem.cross_socket_fraction);
        let counters = synthesize(&CounterInputs {
            instructions: prefill.instructions + decode.instructions,
            dram_read_bytes: total_dram * 0.85,
            dram_write_bytes: total_dram * 0.15,
            load_bytes: prefill.load_bytes + decode.load_bytes,
            store_bytes: prefill.store_bytes + decode.store_bytes,
            compute_busy: prefill.compute_busy + decode.compute_busy,
            elapsed: e2e,
            // UPI carries the cross-socket share of the *raw* demand:
            // SNC snoops and HBM-cache fills are intra-socket traffic, so
            // applying `traffic_factor` here double-counted them and
            // over-reported `upi_utilization` under SNC/cache modes.
            upi_bytes: raw_dram * eff_mem.cross_socket_fraction,
            upi_capacity_bytes_per_sec: upi_capacity,
            remote_fraction,
        });

        Ok(InferenceReport {
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
        })
    }
}

impl CostModel for CpuBackend {
    fn prefill_time(&self, model: &ModelConfig, batch: u64, prompt_len: u64) -> Seconds {
        CpuBackend::prefill_time(self, model, batch, prompt_len)
    }

    fn decode_step_time(&self, model: &ModelConfig, batch: u64, kv_len: u64) -> Seconds {
        CpuBackend::decode_step_time(self, model, batch, kv_len)
    }

    fn weight_bytes(&self, model: &ModelConfig) -> Bytes {
        model.weight_bytes(self.weight_dtype)
    }

    fn weight_load_bandwidth(&self) -> GbPerSec {
        // Cold starts stream weights into local DRAM; the DDR pool bounds
        // them (HBM fills go through DDR first on SPR Max).
        let sockets = self.cpu().topology.sockets_spanned(self.cores);
        self.cpu().ddr.bandwidth_per_socket.scale(sockets as f64)
    }

    fn holds_resident(&self, model: &ModelConfig) -> bool {
        // A CPU either holds the weights in DRAM or cannot serve at all;
        // there is no streaming tier behind it.
        self.shard_weight_bytes(model) <= self.memory_capacity()
    }

    fn kv_capacity_bytes(&self, models: &[ModelConfig]) -> Bytes {
        // Weights and KV share one memory pool on a CPU (the NUMA-mode
        // capacity); whatever the fleet's weights leave behind is cache.
        // Under TP each rank stores only its weight shard.
        models.iter().fold(self.memory_capacity(), |left, m| {
            left.saturating_sub(self.shard_weight_bytes(m))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim_model::families;

    #[test]
    fn spr_beats_icl_on_every_paper_model() {
        // Fig. 8 / Key Finding #1 direction.
        let spr = CpuBackend::paper_spr();
        let icl = CpuBackend::paper_icl();
        for m in families::all_paper_models() {
            for batch in [1, 8, 32] {
                let req = Request::paper_default(batch);
                let fast = spr.run(&m, &req).unwrap();
                let slow = icl.run(&m, &req).unwrap();
                assert!(
                    fast.e2e_latency < slow.e2e_latency,
                    "{} b={batch}: SPR {} vs ICL {}",
                    m.name,
                    fast.e2e_latency,
                    slow.e2e_latency
                );
                assert!(fast.e2e_throughput() > slow.e2e_throughput());
            }
        }
    }

    #[test]
    fn decode_is_memory_bound_prefill_compute_heavier() {
        let spr = CpuBackend::paper_spr();
        let r = spr
            .run(&families::llama2_13b(), &Request::paper_default(8))
            .unwrap();
        assert!(
            r.decode.memory_bound_fraction > 0.9,
            "{}",
            r.decode.memory_bound_fraction
        );
        assert!(r.prefill.memory_bound_fraction < r.decode.memory_bound_fraction);
    }

    #[test]
    fn ttft_scales_with_prompt_length() {
        let spr = CpuBackend::paper_spr();
        let m = families::llama2_7b();
        let short = spr.run(&m, &Request::new(1, 128, 32)).unwrap();
        let long = spr.run(&m, &Request::new(1, 1024, 32)).unwrap();
        assert!(long.ttft.as_f64() > 2.0 * short.ttft.as_f64());
    }

    #[test]
    fn batching_improves_throughput_without_free_latency() {
        let spr = CpuBackend::paper_spr();
        let m = families::opt_13b();
        let b1 = spr.run(&m, &Request::paper_default(1)).unwrap();
        let b32 = spr.run(&m, &Request::paper_default(32)).unwrap();
        assert!(b32.e2e_throughput() > 3.0 * b1.e2e_throughput());
        assert!(b32.e2e_latency > b1.e2e_latency);
    }

    #[test]
    fn mpki_falls_and_utilization_rises_with_batch() {
        // Figs. 11/12 trends.
        let spr = CpuBackend::paper_spr();
        let m = families::llama2_13b();
        let b1 = spr.run(&m, &Request::paper_default(1)).unwrap();
        let b32 = spr.run(&m, &Request::paper_default(32)).unwrap();
        assert!(b32.counters.llc_mpki < b1.counters.llc_mpki);
        assert!(b32.counters.core_utilization > b1.counters.core_utilization);
        assert!(b32.counters.loads > b1.counters.loads);
    }

    #[test]
    fn cores_past_one_socket_hurt() {
        // Fig. 14/16 / Key Finding #3.
        let cpu = llmsim_hw::presets::spr_max_9468();
        let mk = |c| CpuBackend::new(cpu.clone(), NumaConfig::QUAD_FLAT, c, DType::Bf16).unwrap();
        let m = families::llama2_7b();
        let req = Request::paper_default(8);
        let t48 = mk(48).run(&m, &req).unwrap();
        let t96 = mk(96).run(&m, &req).unwrap();
        let t12 = mk(12).run(&m, &req).unwrap();
        assert!(t48.e2e_latency < t12.e2e_latency);
        assert!(
            t48.e2e_latency < t96.e2e_latency,
            "48c {} vs 96c {}",
            t48.e2e_latency,
            t96.e2e_latency
        );
        assert!(t96.counters.upi_utilization > t48.counters.upi_utilization);
    }

    #[test]
    fn upi_bytes_exclude_snc_and_cache_inflation() {
        // Regression for the counter-accounting bug: `upi_bytes` used the
        // SNC/cache-inflated `total_dram`, double-counting intra-socket
        // snoop and HBM-fill traffic on the cross-socket link. UPI bytes
        // must equal the *raw* DRAM demand times the cross-socket
        // fraction (0.5 for an unmanaged two-socket span), regardless of
        // the clustering/memory mode.
        let cpu = llmsim_hw::presets::spr_max_9468();
        let cap = cpu.upi.effective_bandwidth().bytes_per_sec();
        // Compute-bound prefill at a 64-core (1.33-socket) span keeps the
        // byte rate below the UPI clamp so the equality is observable.
        let req = Request::new(4, 2048, 1);
        let m = families::llama2_13b();
        let run = |numa| {
            CpuBackend::new(cpu.clone(), numa, 64, DType::Bf16)
                .unwrap()
                .run(&m, &req)
                .unwrap()
        };
        for numa in [NumaConfig::SNC_FLAT, NumaConfig::QUAD_CACHE] {
            let r = run(numa);
            let raw = r.prefill.dram_bytes + r.decode.dram_bytes;
            let util = r.counters.upi_utilization;
            assert!(util > 0.0 && util < 0.95, "{numa}: unclamped util {util}");
            let expected = raw * 0.5 / (cap * r.e2e_latency.as_f64());
            assert!(
                (util - expected).abs() <= 1e-9 * expected,
                "{numa}: upi_utilization {util} vs raw-traffic expectation {expected}"
            );
        }
        // §VI shape: the same model/request moves the same raw bytes in
        // every NUMA mode, so UPI *bytes* (util × elapsed × capacity)
        // must agree between QUAD_FLAT and SNC_FLAT even though SNC's
        // snoop inflation shows up in the DRAM counters.
        let quad = run(NumaConfig::QUAD_FLAT);
        let snc = run(NumaConfig::SNC_FLAT);
        let quad_bytes = quad.counters.upi_utilization * quad.e2e_latency.as_f64() * cap;
        let snc_bytes = snc.counters.upi_utilization * snc.e2e_latency.as_f64() * cap;
        assert!(
            (quad_bytes - snc_bytes).abs() <= 1e-9 * quad_bytes,
            "UPI bytes must be NUMA-mode invariant: {quad_bytes} vs {snc_bytes}"
        );
        assert!(
            snc.counters.llc_misses > quad.counters.llc_misses,
            "SNC snoop inflation must still show in the DRAM-derived counters"
        );
    }

    #[test]
    fn quad_flat_is_best_numa_config() {
        // Fig. 13 / Key Finding #2.
        let cpu = llmsim_hw::presets::spr_max_9468();
        let m = families::llama2_13b();
        let req = Request::paper_default(8);
        let run = |numa| {
            CpuBackend::new(cpu.clone(), numa, 48, DType::Bf16)
                .unwrap()
                .run(&m, &req)
                .unwrap()
        };
        let best = run(NumaConfig::QUAD_FLAT);
        for other in [
            NumaConfig::QUAD_CACHE,
            NumaConfig::SNC_FLAT,
            NumaConfig::SNC_CACHE,
        ] {
            let r = run(other);
            assert!(
                best.e2e_latency <= r.e2e_latency,
                "{other}: {} vs quad_flat {}",
                r.e2e_latency,
                best.e2e_latency
            );
        }
    }

    #[test]
    fn oversized_model_errors_cleanly() {
        let spr = CpuBackend::paper_spr();
        // OPT-175B BF16 = 350 GB weights; with a KV cache pushing past
        // 640 GB of machine memory it must be rejected.
        let m = families::opt_175b();
        let err = spr.run(&m, &Request::new(32, 16384, 32)).unwrap_err();
        assert!(matches!(err, SimError::ModelTooLarge { .. }), "{err}");
    }

    #[test]
    fn int8_weight_quantization_doubles_decode_speed() {
        // Weight-only INT8 halves the decode phase's dominant traffic.
        let bf16 = CpuBackend::paper_spr();
        let int8 = CpuBackend::paper_spr().with_weight_dtype(DType::Int8);
        let m = families::llama2_13b();
        let req = Request::paper_default(1);
        let a = bf16.run(&m, &req).unwrap();
        let b = int8.run(&m, &req).unwrap();
        let gain = a.tpot.as_f64() / b.tpot.as_f64();
        assert!((1.6..2.1).contains(&gain), "decode gain {gain}");
        // Compute-bound prefill at batch 32 barely moves.
        let req32 = Request::paper_default(32);
        let a32 = bf16.run(&m, &req32).unwrap();
        let b32 = int8.run(&m, &req32).unwrap();
        let pgain = a32.ttft.as_f64() / b32.ttft.as_f64();
        assert!((0.95..1.2).contains(&pgain), "prefill gain {pgain}");
    }

    #[test]
    fn attention_overhead_scales_with_batch() {
        let base = CpuBackend::paper_spr();
        let slow = CpuBackend::paper_spr().with_attention_overhead(Seconds::from_micros(750.0));
        let m = families::llama2_70b();
        let b1 = Request::paper_default(1);
        let b16 = Request::paper_default(16);
        let d1 =
            slow.run(&m, &b1).unwrap().tpot.as_f64() - base.run(&m, &b1).unwrap().tpot.as_f64();
        let d16 =
            slow.run(&m, &b16).unwrap().tpot.as_f64() - base.run(&m, &b16).unwrap().tpot.as_f64();
        // 80 layers × 0.75 ms × batch.
        assert!((d1 - 0.06).abs() < 0.01, "{d1}");
        assert!((d16 - 0.96).abs() < 0.05, "{d16}");
    }

    #[test]
    fn invalid_core_count_rejected() {
        let cpu = llmsim_hw::presets::spr_max_9468();
        assert!(CpuBackend::new(cpu.clone(), NumaConfig::QUAD_FLAT, 0, DType::Bf16).is_err());
        assert!(CpuBackend::new(cpu, NumaConfig::QUAD_FLAT, 97, DType::Bf16).is_err());
    }
}
