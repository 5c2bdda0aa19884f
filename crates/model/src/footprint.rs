//! Memory-footprint tabulations backing Figs. 6 and 7 of the paper.

use crate::config::ModelConfig;
use crate::dtype::DType;
use llmsim_hw::Bytes;

/// One row of the Fig. 6 weight-footprint chart.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightFootprint {
    /// Model name.
    pub model: String,
    /// Parameter count.
    pub params: u64,
    /// Weight bytes in the requested dtype.
    pub bytes: Bytes,
}

/// Computes the Fig. 6 table: weight footprint per model.
#[must_use]
pub fn weight_footprints(models: &[ModelConfig], dtype: DType) -> Vec<WeightFootprint> {
    models
        .iter()
        .map(|m| WeightFootprint {
            model: m.name.clone(),
            params: m.param_count(),
            bytes: m.weight_bytes(dtype),
        })
        .collect()
}

/// One cell of the Fig. 7 KV-cache grid.
#[derive(Debug, Clone, PartialEq)]
pub struct KvFootprint {
    /// Sequence length.
    pub seq_len: u64,
    /// Batch size.
    pub batch: u64,
    /// KV cache bytes.
    pub bytes: Bytes,
    /// Whether the KV cache exceeds the model's own weight footprint
    /// (the dotted line in Fig. 7).
    pub exceeds_model: bool,
}

/// Computes the Fig. 7 grid: KV-cache footprint for every
/// `seq_len × batch` combination.
#[must_use]
pub fn kv_footprint_grid(
    model: &ModelConfig,
    seq_lens: &[u64],
    batches: &[u64],
    dtype: DType,
) -> Vec<KvFootprint> {
    let model_bytes = model.weight_bytes(dtype);
    let mut grid = Vec::with_capacity(seq_lens.len() * batches.len());
    for &s in seq_lens {
        for &b in batches {
            let bytes = model.kv_cache_bytes(s, b, dtype);
            grid.push(KvFootprint {
                seq_len: s,
                batch: b,
                bytes,
                exceeds_model: bytes > model_bytes,
            });
        }
    }
    grid
}

/// Minimum number of GPUs of `gpu_memory` capacity needed to hold the
/// weights (the "at least five H100s" arithmetic of §I/§III).
///
/// # Panics
///
/// Panics if `gpu_memory` is zero.
#[must_use]
pub fn min_gpus_for_weights(model: &ModelConfig, dtype: DType, gpu_memory: Bytes) -> u64 {
    assert!(gpu_memory > Bytes::ZERO, "gpu memory must be positive");
    model.weight_bytes(dtype).get().div_ceil(gpu_memory.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families;

    #[test]
    fn fig6_footprints_are_monotone_in_params() {
        let fps = weight_footprints(&families::all_paper_models(), DType::Fp16);
        for w in fps.windows(2) {
            assert!(w[1].params >= w[0].params);
            assert!(w[1].bytes >= w[0].bytes);
        }
    }

    #[test]
    fn fig7_kv_exceeds_llama13b_weights_at_large_corner() {
        // Fig. 7's point: at long sequences and large batches the KV cache
        // passes the model's own size (the dotted line).
        let m = families::llama2_13b();
        let grid = kv_footprint_grid(
            &m,
            &[2048, 4096, 8192, 16384, 32768],
            &[1, 8, 16, 32],
            DType::Fp16,
        );
        let corner = grid
            .iter()
            .find(|c| c.seq_len == 32768 && c.batch == 32)
            .unwrap();
        assert!(corner.exceeds_model);
        let small = grid
            .iter()
            .find(|c| c.seq_len == 2048 && c.batch == 1)
            .unwrap();
        assert!(!small.exceeds_model);
    }

    #[test]
    fn fig7_linear_scaling() {
        let m = families::llama2_13b();
        let g = kv_footprint_grid(&m, &[1024, 2048], &[2, 4], DType::Bf16);
        let b = |s, bt| {
            g.iter()
                .find(|c| c.seq_len == s && c.batch == bt)
                .unwrap()
                .bytes
                .get()
        };
        assert_eq!(b(2048, 2), 2 * b(1024, 2));
        assert_eq!(b(1024, 4), 2 * b(1024, 2));
    }

    #[test]
    fn gpt3_needs_five_h100s() {
        // §III: GPT-3 175B needs over 320 GB → at least five 80 GB H100s.
        let n = min_gpus_for_weights(&families::opt_175b(), DType::Fp16, Bytes::from_gib(80.0));
        assert_eq!(n, 5);
    }

    #[test]
    fn llama70b_needs_two_h100s() {
        let n = min_gpus_for_weights(&families::llama2_70b(), DType::Fp16, Bytes::from_gib(80.0));
        assert_eq!(n, 2);
    }
}
