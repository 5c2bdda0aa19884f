//! Operator-level cost descriptors.
//!
//! The engine never executes real tensors; it executes *operators* that carry
//! exact FLOP and byte-traffic counts. Every transformer building block is
//! one [`OpKind`] with closed-form cost formulas.

use crate::dtype::DType;
use std::fmt;

/// Shape of a (possibly batched) matrix multiplication
/// `[batch] × (m×k) · (k×n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Matmul {
    /// Rows of the left operand (tokens, usually).
    pub m: u64,
    /// Columns of the right operand.
    pub n: u64,
    /// Shared inner dimension.
    pub k: u64,
    /// Independent problem instances (e.g. `batch × heads` for attention).
    pub batch: u64,
}

impl Matmul {
    /// Creates a single (non-batched) matmul shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(m: u64, n: u64, k: u64) -> Self {
        Self::batched(m, n, k, 1)
    }

    /// Creates a batched matmul shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn batched(m: u64, n: u64, k: u64, batch: u64) -> Self {
        assert!(
            m > 0 && n > 0 && k > 0 && batch > 0,
            "matmul dims must be positive: {m}x{n}x{k}x{batch}"
        );
        Matmul { m, n, k, batch }
    }

    /// Multiply-accumulate FLOPs (2 per MAC).
    #[must_use]
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64 * self.batch as f64
    }

    /// Output elements.
    #[must_use]
    pub fn output_elems(&self) -> u64 {
        self.m * self.n * self.batch
    }
}

impl fmt::Display for Matmul {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.batch == 1 {
            write!(f, "{}x{}x{}", self.m, self.n, self.k)
        } else {
            write!(f, "{}x[{}x{}x{}]", self.batch, self.m, self.n, self.k)
        }
    }
}

/// Broad operator class, used for counter attribution and engine dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Weight GEMM (runs on AMX when available).
    Gemm,
    /// Attention score/context batched GEMM (activation × KV cache).
    Attention,
    /// Softmax / normalization.
    Normalization,
    /// Elementwise map (activations, residual adds, RoPE).
    Elementwise,
    /// Embedding gather and KV-cache bookkeeping.
    Memory,
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Gemm => "gemm",
            OpClass::Attention => "attention",
            OpClass::Normalization => "normalization",
            OpClass::Elementwise => "elementwise",
            OpClass::Memory => "memory",
        };
        f.write_str(s)
    }
}

/// One operator instance in a phase graph.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// `activations (m×k) · weights (k×n)`; the weight matrix streams from
    /// memory (`weight_elems` elements).
    Linear {
        /// GEMM shape (`batch` = 1 for fused token batches).
        shape: Matmul,
        /// Elements in the weight matrix (+bias).
        weight_elems: u64,
    },
    /// Attention `Q·K^T` — reads the K cache.
    AttentionScore {
        /// Per-head shape, batched over `batch × kv_heads` problems.
        shape: Matmul,
        /// Bytes of K cache read.
        kv_read_bytes: u64,
    },
    /// Attention `P·V` — reads the V cache.
    AttentionContext {
        /// Per-head shape, batched.
        shape: Matmul,
        /// Bytes of V cache read.
        kv_read_bytes: u64,
    },
    /// Appending this step's K/V vectors to the cache.
    KvAppend {
        /// Bytes written.
        bytes: u64,
    },
    /// Row-wise softmax.
    Softmax {
        /// Number of rows.
        rows: u64,
        /// Row width.
        cols: u64,
    },
    /// LayerNorm / RMSNorm over `tokens` rows of width `dim`.
    Norm {
        /// Rows.
        tokens: u64,
        /// Width.
        dim: u64,
    },
    /// Elementwise map (GELU, SiLU·mul, residual add, RoPE rotation).
    Elementwise {
        /// Elements touched.
        elems: u64,
        /// FLOPs per element.
        flops_per_elem: f64,
        /// Operand streams read + written (2 for unary-in-place-out, 3 for binary).
        streams: u64,
    },
    /// Embedding-table gather for `tokens` tokens.
    Embedding {
        /// Tokens gathered.
        tokens: u64,
        /// Embedding width.
        d_model: u64,
    },
}

/// A costed operator with a name and a repeat count within its phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Operator {
    /// Stable name, e.g. `"ffn.up_proj"`.
    pub name: &'static str,
    /// What the operator computes.
    pub kind: OpKind,
    /// Element type of activations (and weights, unless overridden).
    pub dtype: DType,
    /// Weight element type when it differs from `dtype` (weight-only
    /// quantization, §VII-B's "Efficient LLM inference on CPUs").
    pub weight_dtype: Option<DType>,
    /// Times this operator executes in the phase (usually `n_layers`).
    pub repeat: u64,
}

impl Operator {
    /// Creates an operator.
    ///
    /// # Panics
    ///
    /// Panics if `repeat` is zero.
    #[must_use]
    pub fn new(name: &'static str, kind: OpKind, dtype: DType, repeat: u64) -> Self {
        assert!(repeat > 0, "operator must execute at least once");
        Operator {
            name,
            kind,
            dtype,
            weight_dtype: None,
            repeat,
        }
    }

    /// Overrides the weight element type (weight-only quantization).
    #[must_use]
    pub fn with_weight_dtype(mut self, dtype: DType) -> Self {
        self.weight_dtype = Some(dtype);
        self
    }

    /// Effective weight element type.
    #[must_use]
    pub fn weight_dtype(&self) -> DType {
        self.weight_dtype.unwrap_or(self.dtype)
    }

    /// Broad class of this operator.
    #[must_use]
    pub fn class(&self) -> OpClass {
        match self.kind {
            OpKind::Linear { .. } => OpClass::Gemm,
            OpKind::AttentionScore { .. } | OpKind::AttentionContext { .. } => OpClass::Attention,
            OpKind::Softmax { .. } | OpKind::Norm { .. } => OpClass::Normalization,
            OpKind::Elementwise { .. } => OpClass::Elementwise,
            OpKind::KvAppend { .. } | OpKind::Embedding { .. } => OpClass::Memory,
        }
    }

    /// FLOPs for one execution.
    #[must_use]
    pub fn flops(&self) -> f64 {
        match &self.kind {
            OpKind::Linear { shape, .. }
            | OpKind::AttentionScore { shape, .. }
            | OpKind::AttentionContext { shape, .. } => shape.flops(),
            OpKind::KvAppend { .. } | OpKind::Embedding { .. } => 0.0,
            // exp + sum + divide ≈ 5 flops/element; two passes over the row.
            OpKind::Softmax { rows, cols } => 5.0 * (*rows as f64) * (*cols as f64),
            // mean/var/normalize ≈ 8 flops/element.
            OpKind::Norm { tokens, dim } => 8.0 * (*tokens as f64) * (*dim as f64),
            OpKind::Elementwise {
                elems,
                flops_per_elem,
                ..
            } => *flops_per_elem * (*elems as f64),
        }
    }

    /// Weight bytes streamed from memory for one execution.
    #[must_use]
    pub fn weight_bytes(&self) -> u64 {
        let wb = self.weight_dtype().bytes();
        match &self.kind {
            OpKind::Linear { weight_elems, .. } => weight_elems * wb,
            OpKind::Embedding { tokens, d_model } => {
                // Gather touches one table row per token.
                tokens * d_model * wb
            }
            _ => 0,
        }
    }

    /// Activation bytes (inputs read + outputs written) for one execution.
    #[must_use]
    pub fn act_bytes(&self) -> u64 {
        let b = self.dtype.bytes();
        match &self.kind {
            OpKind::Linear { shape, .. } => {
                (shape.m * shape.k + shape.m * shape.n) * shape.batch * b
            }
            OpKind::AttentionScore { shape, .. } => {
                // Read Q, write the probability logits.
                (shape.m * shape.k + shape.m * shape.n) * shape.batch * b
            }
            OpKind::AttentionContext { shape, .. } => {
                // Read probabilities, write context output.
                (shape.m * shape.k + shape.m * shape.n) * shape.batch * b
            }
            OpKind::KvAppend { .. } => 0,
            OpKind::Softmax { rows, cols } => 2 * rows * cols * b,
            OpKind::Norm { tokens, dim } => 2 * tokens * dim * b,
            OpKind::Elementwise { elems, streams, .. } => elems * streams * b,
            OpKind::Embedding { tokens, d_model } => tokens * d_model * b,
        }
    }

    /// KV-cache bytes read for one execution.
    #[must_use]
    pub fn kv_read_bytes(&self) -> u64 {
        match &self.kind {
            OpKind::AttentionScore { kv_read_bytes, .. }
            | OpKind::AttentionContext { kv_read_bytes, .. } => *kv_read_bytes,
            _ => 0,
        }
    }

    /// KV-cache bytes written for one execution.
    #[must_use]
    pub fn kv_write_bytes(&self) -> u64 {
        match &self.kind {
            OpKind::KvAppend { bytes } => *bytes,
            _ => 0,
        }
    }

    /// All bytes moved (weights + activations + KV) for one execution.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.weight_bytes() + self.act_bytes() + self.kv_read_bytes() + self.kv_write_bytes()
    }

    /// Arithmetic intensity in FLOP/byte for one execution.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.total_bytes();
        if bytes == 0 {
            0.0
        } else {
            self.flops() / bytes as f64
        }
    }

    /// The GEMM shape if this operator is a matmul of any flavor.
    #[must_use]
    pub fn matmul_shape(&self) -> Option<Matmul> {
        match &self.kind {
            OpKind::Linear { shape, .. }
            | OpKind::AttentionScore { shape, .. }
            | OpKind::AttentionContext { shape, .. } => Some(*shape),
            _ => None,
        }
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} x{} ({})", self.name, self.repeat, self.class())
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact float assertions are deliberate: determinism is bit-level
mod tests {
    use super::*;

    #[test]
    fn matmul_flops() {
        let s = Matmul::new(128, 4096, 4096);
        assert_eq!(s.flops(), 2.0 * 128.0 * 4096.0 * 4096.0);
        let b = Matmul::batched(128, 128, 128, 32);
        assert_eq!(b.flops(), 32.0 * 2.0 * 128.0f64.powi(3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        let _ = Matmul::new(0, 1, 1);
    }

    #[test]
    fn linear_weight_traffic_is_shape_independent_of_m() {
        // Decode's key property: weight bytes don't grow with batch.
        let w = 4096 * 4096;
        let op1 = Operator::new(
            "q",
            OpKind::Linear {
                shape: Matmul::new(1, 4096, 4096),
                weight_elems: w,
            },
            DType::Bf16,
            1,
        );
        let op32 = Operator::new(
            "q",
            OpKind::Linear {
                shape: Matmul::new(32, 4096, 4096),
                weight_elems: w,
            },
            DType::Bf16,
            1,
        );
        assert_eq!(op1.weight_bytes(), op32.weight_bytes());
        assert!(op32.flops() > op1.flops());
        assert!(op32.arithmetic_intensity() > op1.arithmetic_intensity());
    }

    #[test]
    fn class_mapping() {
        let lin = Operator::new(
            "l",
            OpKind::Linear {
                shape: Matmul::new(1, 2, 3),
                weight_elems: 6,
            },
            DType::Bf16,
            1,
        );
        assert_eq!(lin.class(), OpClass::Gemm);
        let sm = Operator::new("s", OpKind::Softmax { rows: 4, cols: 4 }, DType::Fp32, 2);
        assert_eq!(sm.class(), OpClass::Normalization);
        let kv = Operator::new("kv", OpKind::KvAppend { bytes: 64 }, DType::Bf16, 1);
        assert_eq!(kv.class(), OpClass::Memory);
        assert_eq!(kv.kv_write_bytes(), 64);
        assert_eq!(kv.flops(), 0.0);
    }

    #[test]
    fn attention_reads_kv() {
        let op = Operator::new(
            "score",
            OpKind::AttentionScore {
                shape: Matmul::batched(1, 512, 128, 32),
                kv_read_bytes: 512 * 128 * 32 * 2,
            },
            DType::Bf16,
            1,
        );
        assert_eq!(op.kv_read_bytes(), 512 * 128 * 32 * 2);
        assert!(op.total_bytes() > op.act_bytes());
    }
}
