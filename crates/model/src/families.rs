//! Preset configurations for the model families evaluated in the paper:
//! OPT (1.3B–66B) and LLaMA-2 (7B–70B).
//!
//! Hyper-parameters follow the published model cards (Zhang et al. 2022 for
//! OPT; Touvron et al. 2023 for LLaMA-2).

use crate::config::{Family, FfnKind, ModelConfig};

fn opt(name: &str, n_layers: u64, d_model: u64, n_heads: u64) -> ModelConfig {
    ModelConfig {
        name: name.to_owned(),
        family: Family::Opt,
        n_layers,
        d_model,
        n_heads,
        n_kv_heads: n_heads,
        d_ff: 4 * d_model,
        ffn: FfnKind::Gelu,
        vocab_size: 50_272,
        max_positions: 2048,
        biases: true,
        tied_embeddings: true,
    }
}

fn llama2(
    name: &str,
    n_layers: u64,
    d_model: u64,
    n_heads: u64,
    n_kv_heads: u64,
    d_ff: u64,
) -> ModelConfig {
    ModelConfig {
        name: name.to_owned(),
        family: Family::Llama2,
        n_layers,
        d_model,
        n_heads,
        n_kv_heads,
        d_ff,
        ffn: FfnKind::SwiGlu,
        vocab_size: 32_000,
        max_positions: 4096,
        biases: false,
        tied_embeddings: false,
    }
}

/// OPT-1.3B.
#[must_use]
pub fn opt_1_3b() -> ModelConfig {
    opt("OPT-1.3B", 24, 2048, 32)
}

/// OPT-6.7B.
#[must_use]
pub fn opt_6_7b() -> ModelConfig {
    opt("OPT-6.7B", 32, 4096, 32)
}

/// OPT-13B.
#[must_use]
pub fn opt_13b() -> ModelConfig {
    opt("OPT-13B", 40, 5120, 40)
}

/// OPT-30B.
#[must_use]
pub fn opt_30b() -> ModelConfig {
    opt("OPT-30B", 48, 7168, 56)
}

/// OPT-66B.
#[must_use]
pub fn opt_66b() -> ModelConfig {
    opt("OPT-66B", 64, 9216, 72)
}

/// OPT-175B (used only for footprint discussion in §I/§III; not part of the
/// measured sweeps).
#[must_use]
pub fn opt_175b() -> ModelConfig {
    opt("OPT-175B", 96, 12_288, 96)
}

/// LLaMA2-7B.
#[must_use]
pub fn llama2_7b() -> ModelConfig {
    llama2("LLaMA2-7B", 32, 4096, 32, 32, 11_008)
}

/// LLaMA2-13B.
#[must_use]
pub fn llama2_13b() -> ModelConfig {
    llama2("LLaMA2-13B", 40, 5120, 40, 40, 13_824)
}

/// LLaMA2-70B (grouped-query attention: 8 KV heads).
#[must_use]
pub fn llama2_70b() -> ModelConfig {
    llama2("LLaMA2-70B", 80, 8192, 64, 8, 28_672)
}

/// Llama-3 8B (the paper cites the Llama-3 release as \[36\]; these presets
/// support forward-looking experiments): GQA with 8 KV heads and a 128k
/// vocabulary.
#[must_use]
pub fn llama3_8b() -> ModelConfig {
    ModelConfig {
        name: "Llama3-8B".to_owned(),
        family: Family::Llama2, // same architectural skeleton
        n_layers: 32,
        d_model: 4096,
        n_heads: 32,
        n_kv_heads: 8,
        d_ff: 14_336,
        ffn: FfnKind::SwiGlu,
        vocab_size: 128_256,
        max_positions: 8192,
        biases: false,
        tied_embeddings: false,
    }
}

/// Llama-3 70B.
#[must_use]
pub fn llama3_70b() -> ModelConfig {
    ModelConfig {
        name: "Llama3-70B".to_owned(),
        family: Family::Llama2,
        n_layers: 80,
        d_model: 8192,
        n_heads: 64,
        n_kv_heads: 8,
        d_ff: 28_672,
        ffn: FfnKind::SwiGlu,
        vocab_size: 128_256,
        max_positions: 8192,
        biases: false,
        tied_embeddings: false,
    }
}

/// The eight models the paper sweeps in its evaluation (Figs. 8–21),
/// smallest to largest.
#[must_use]
pub fn all_paper_models() -> Vec<ModelConfig> {
    vec![
        opt_1_3b(),
        opt_6_7b(),
        llama2_7b(),
        opt_13b(),
        llama2_13b(),
        opt_30b(),
        opt_66b(),
        llama2_70b(),
    ]
}

/// Looks up a paper model by its display name (e.g. `"OPT-13B"`).
#[must_use]
pub fn by_name(name: &str) -> Option<ModelConfig> {
    all_paper_models().into_iter().find(|m| m.name == name)
}

/// Nameplate parameter count (billions) for a paper model name.
///
/// # Panics
///
/// Panics if `name` is not one of the paper's models.
#[must_use]
pub fn nameplate_billions(name: &str) -> f64 {
    match name {
        "OPT-1.3B" => 1.3,
        "OPT-6.7B" => 6.7,
        "OPT-13B" => 13.0,
        "OPT-30B" => 30.0,
        "OPT-66B" => 66.0,
        "OPT-175B" => 175.0,
        "LLaMA2-7B" => 7.0,
        "LLaMA2-13B" => 13.0,
        "LLaMA2-70B" => 70.0,
        other => panic!("unknown paper model: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_sorted_by_size() {
        let sizes: Vec<u64> = all_paper_models().iter().map(|m| m.param_count()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn by_name_round_trips() {
        for m in all_paper_models() {
            assert_eq!(by_name(&m.name).unwrap(), m);
        }
        assert!(by_name("GPT-4").is_none());
    }

    #[test]
    fn llama3_presets_are_sane() {
        let m8 = llama3_8b();
        m8.validate().unwrap();
        let b = m8.param_count() as f64 / 1e9;
        assert!((7.0..9.0).contains(&b), "{b}");
        let m70 = llama3_70b();
        m70.validate().unwrap();
        let b70 = m70.param_count() as f64 / 1e9;
        assert!((68.0..72.0).contains(&b70), "{b70}");
        // GQA: 8 KV heads shrink the cache 4x (8B) / 8x (70B).
        assert_eq!(m8.gqa_group(), 4);
        assert_eq!(m70.gqa_group(), 8);
    }

    #[test]
    fn opt_175b_footprint_matches_intro() {
        // §I: OPT-175B requires 350 GB in FP16.
        let gb = opt_175b().weight_bytes(crate::dtype::DType::Fp16).as_f64() / 1e9;
        assert!((gb - 350.0).abs() < 10.0, "{gb}");
    }
}
