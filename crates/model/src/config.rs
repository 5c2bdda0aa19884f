//! Decoder-only transformer model configurations.

use crate::dtype::DType;
use std::fmt;

/// Model family (affects FFN structure, positional encoding, biases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Meta OPT: learned positional embeddings, GELU FFN (2 matrices), biases.
    Opt,
    /// Meta LLaMA-2: RoPE, SwiGLU FFN (3 matrices), no biases, RMSNorm.
    Llama2,
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Family::Opt => "OPT",
            Family::Llama2 => "LLaMA-2",
        };
        f.write_str(s)
    }
}

/// FFN block structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FfnKind {
    /// Two matrices with a GELU between them (OPT).
    Gelu,
    /// Three matrices with SiLU gating (LLaMA): gate, up, down.
    SwiGlu,
}

impl FfnKind {
    /// How many `d_model × d_ff`-sized weight matrices the block holds.
    #[must_use]
    pub const fn matrices(self) -> u64 {
        match self {
            FfnKind::Gelu => 2,
            FfnKind::SwiGlu => 3,
        }
    }
}

/// Architecture hyper-parameters of a decoder-only transformer.
///
/// # Examples
///
/// ```
/// use llmsim_model::families;
/// use llmsim_model::dtype::DType;
///
/// let m = families::opt_66b();
/// // §I: "OPT-66B with a sequence length of 4096 and a batch size of 32
/// //      requires 288GB of memory for KV caching."
/// let kv = m.kv_cache_bytes(4096, 32, DType::Bf16);
/// assert!((kv.as_gib() - 288.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Human name, e.g. "LLaMA2-13B".
    pub name: String,
    /// Model family.
    pub family: Family,
    /// Number of decoder layers.
    pub n_layers: u64,
    /// Hidden dimension.
    pub d_model: u64,
    /// Number of attention (query) heads.
    pub n_heads: u64,
    /// Number of key/value heads (`< n_heads` under grouped-query attention).
    pub n_kv_heads: u64,
    /// FFN inner dimension.
    pub d_ff: u64,
    /// FFN structure.
    pub ffn: FfnKind,
    /// Vocabulary size.
    pub vocab_size: u64,
    /// Maximum positions (sizes OPT's learned positional embedding table).
    pub max_positions: u64,
    /// Whether linear layers carry bias vectors (true for OPT).
    pub biases: bool,
    /// Whether input and output embeddings share one matrix (true for OPT).
    pub tied_embeddings: bool,
}

impl ModelConfig {
    /// Per-head dimension.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads`.
    #[must_use]
    pub fn d_head(&self) -> u64 {
        assert!(
            self.d_model.is_multiple_of(self.n_heads),
            "{}: d_model {} not divisible by {} heads",
            self.name,
            self.d_model,
            self.n_heads
        );
        self.d_model / self.n_heads
    }

    /// Total key (or value) dimension per token: `n_kv_heads × d_head`.
    #[must_use]
    pub fn d_kv(&self) -> u64 {
        self.n_kv_heads * self.d_head()
    }

    /// Query heads served by each KV head (1 without GQA).
    #[must_use]
    pub fn gqa_group(&self) -> u64 {
        self.n_heads / self.n_kv_heads
    }

    /// Parameters in one decoder layer.
    #[must_use]
    pub fn params_per_layer(&self) -> u64 {
        let d = self.d_model;
        let attn = d * d          // Q projection
            + 2 * d * self.d_kv() // K, V projections
            + d * d; // output projection
        let ffn = self.ffn.matrices() * d * self.d_ff;
        let norms = 2 * d;
        let bias = if self.biases {
            // Q/K/V/O biases + two FFN biases + norm biases.
            2 * d + 2 * self.d_kv() + 2 * self.d_ff.max(d) + 2 * d
        } else {
            0
        };
        attn + ffn + norms + bias
    }

    /// Total parameter count (layers + embeddings + final norm/head).
    #[must_use]
    pub fn param_count(&self) -> u64 {
        let embed_in = self.vocab_size * self.d_model;
        let embed_pos = match self.family {
            Family::Opt => self.max_positions * self.d_model,
            Family::Llama2 => 0, // RoPE has no learned table
        };
        let embed_out = if self.tied_embeddings {
            0
        } else {
            self.vocab_size * self.d_model
        };
        let final_norm = self.d_model;
        self.n_layers * self.params_per_layer() + embed_in + embed_pos + embed_out + final_norm
    }

    /// Memory footprint of the weights in `dtype` (Fig. 6 of the paper uses
    /// FP16).
    #[must_use]
    pub fn weight_bytes(&self, dtype: DType) -> llmsim_hw::Bytes {
        llmsim_hw::Bytes::new(self.param_count() * dtype.bytes())
    }

    /// KV-cache bytes appended per token per sequence (all layers, K and V).
    ///
    /// This is the §II-B formula `2 (K/V) × n_layers × d_kv × dtype_bytes`
    /// evaluated for one token of one sequence.
    #[must_use]
    pub fn kv_bytes_per_token(&self, dtype: DType) -> u64 {
        2 * self.n_layers * self.d_kv() * dtype.bytes()
    }

    /// Total KV-cache footprint at `seq_len` context across `batch`
    /// sequences (§II-B: `2B × 2 × n_layers × d_model × n_seq × n_batch` for
    /// non-GQA models).
    #[must_use]
    pub fn kv_cache_bytes(&self, seq_len: u64, batch: u64, dtype: DType) -> llmsim_hw::Bytes {
        llmsim_hw::Bytes::new(self.kv_bytes_per_token(dtype) * seq_len * batch)
    }

    /// Peak activation working set for a forward pass over `tokens` tokens
    /// (coarse: the widest intermediate is the FFN hidden state, plus the
    /// attention probability matrix during prefill).
    #[must_use]
    pub fn activation_bytes(&self, tokens: u64, seq_len: u64, dtype: DType) -> llmsim_hw::Bytes {
        let ffn_hidden = tokens * self.d_ff * dtype.bytes();
        let residuals = 2 * tokens * self.d_model * dtype.bytes();
        // Attention probabilities are materialized per head-row in blocks;
        // count one head's worth per token as the live slice.
        let attn_probs = tokens * seq_len * dtype.bytes();
        llmsim_hw::Bytes::new(ffn_hidden + residuals + attn_probs)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_layers == 0 {
            return Err(format!("{}: zero layers", self.name));
        }
        if !self.d_model.is_multiple_of(self.n_heads) {
            return Err(format!("{}: d_model not divisible by heads", self.name));
        }
        if !self.n_heads.is_multiple_of(self.n_kv_heads) {
            return Err(format!("{}: heads not divisible by kv heads", self.name));
        }
        if self.vocab_size == 0 {
            return Err(format!("{}: empty vocabulary", self.name));
        }
        Ok(())
    }

    /// Whether this model can be tensor-parallelized `degree` ways:
    /// attention heads, KV heads, FFN columns, hidden dim, and vocabulary
    /// must all split evenly so every rank's shard is a well-formed graph
    /// (the dims [`crate::OpGraph::with_tensor_parallel`] divides).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first indivisible
    /// dimension.
    pub fn supports_tensor_parallel(&self, degree: u64) -> Result<(), String> {
        if degree == 0 {
            return Err(format!("{}: zero tensor-parallel degree", self.name));
        }
        for (dim, what) in [
            (self.n_heads, "attention heads"),
            (self.n_kv_heads, "KV heads"),
            (self.d_model, "hidden dim"),
            (self.d_ff, "FFN dim"),
            (self.vocab_size, "vocabulary"),
        ] {
            if !dim.is_multiple_of(degree) {
                return Err(format!(
                    "{}: {what} ({dim}) not divisible by TP degree {degree}",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, d={}, {} heads, {:.1}B params)",
            self.name,
            self.n_layers,
            self.d_model,
            self.n_heads,
            self.param_count() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::dtype::DType;
    use crate::families;

    #[test]
    fn param_counts_match_model_names() {
        // Each model's derived parameter count must land within 6% of its
        // nameplate size.
        for m in families::all_paper_models() {
            let billions = m.param_count() as f64 / 1e9;
            let nameplate = families::nameplate_billions(&m.name);
            let rel = (billions - nameplate).abs() / nameplate;
            assert!(
                rel < 0.06,
                "{}: derived {billions:.2}B vs nameplate {nameplate}B",
                m.name
            );
        }
    }

    #[test]
    fn gqa_shrinks_kv() {
        let llama70 = families::llama2_70b();
        assert_eq!(llama70.gqa_group(), 8);
        assert_eq!(llama70.d_kv(), 1024);
        let llama13 = families::llama2_13b();
        assert_eq!(llama13.gqa_group(), 1);
        assert_eq!(llama13.d_kv(), llama13.d_model);
    }

    #[test]
    fn paper_kv_example_opt66b() {
        // §I: OPT-66B, seq 4096, batch 32 → 288 GB of KV cache.
        let kv = families::opt_66b().kv_cache_bytes(4096, 32, DType::Bf16);
        assert!((kv.as_gib() - 288.0).abs() < 1.0, "{}", kv);
    }

    #[test]
    fn weight_footprint_examples() {
        // §III: LLaMA2-70B needs at least two H100-80GB for FP16 weights.
        let w = families::llama2_70b().weight_bytes(DType::Fp16);
        assert!(w.as_gib() > 80.0 && w.as_gib() < 160.0, "{w}");
        // OPT-66B ≈ 132 GB FP16, exceeding one H100.
        let w66 = families::opt_66b().weight_bytes(DType::Fp16);
        assert!(w66.as_gib() > 80.0, "{w66}");
    }

    #[test]
    fn validate_accepts_all_presets() {
        for m in families::all_paper_models() {
            m.validate().unwrap();
        }
    }

    #[test]
    fn activation_bytes_grow_with_tokens() {
        let m = families::llama2_7b();
        let a1 = m.activation_bytes(128, 128, DType::Bf16);
        let a2 = m.activation_bytes(4096, 4096, DType::Bf16);
        assert!(a2 > a1);
    }
}
