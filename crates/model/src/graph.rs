//! Phase operator-graph construction.
//!
//! [`prefill_graph`] and [`decode_step_graph`] expand a [`ModelConfig`] into
//! the exact operator sequence one forward pass executes, with per-operator
//! FLOP/byte costs. The engine consumes these graphs; the footprint and
//! counter models reuse their totals.

use crate::config::{Family, FfnKind, ModelConfig};
use crate::dtype::DType;
use crate::ops::{Matmul, OpClass, OpKind, Operator};
use crate::phases::Phase;

/// Aggregate costs of a phase graph.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GraphTotals {
    /// Total FLOPs.
    pub flops: f64,
    /// Weight bytes streamed.
    pub weight_bytes: u64,
    /// Activation bytes moved.
    pub act_bytes: u64,
    /// KV-cache bytes read.
    pub kv_read_bytes: u64,
    /// KV-cache bytes written.
    pub kv_write_bytes: u64,
}

impl GraphTotals {
    /// All bytes moved.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.weight_bytes + self.act_bytes + self.kv_read_bytes + self.kv_write_bytes
    }

    /// FLOP/byte over the whole phase.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b == 0 {
            0.0
        } else {
            self.flops / b as f64
        }
    }
}

/// The operator graph of one inference phase.
#[derive(Debug, Clone, PartialEq)]
pub struct OpGraph {
    /// Which phase this graph describes.
    pub phase: Phase,
    /// Operators in execution order (each with its own repeat count).
    pub ops: Vec<Operator>,
}

impl OpGraph {
    /// Sums costs across all operators × repeats.
    #[must_use]
    pub fn totals(&self) -> GraphTotals {
        let mut t = GraphTotals::default();
        for op in &self.ops {
            let r = op.repeat as f64;
            t.flops += op.flops() * r;
            t.weight_bytes += op.weight_bytes() * op.repeat;
            t.act_bytes += op.act_bytes() * op.repeat;
            t.kv_read_bytes += op.kv_read_bytes() * op.repeat;
            t.kv_write_bytes += op.kv_write_bytes() * op.repeat;
        }
        t
    }

    /// Totals restricted to one operator class.
    #[must_use]
    pub fn totals_for_class(&self, class: OpClass) -> GraphTotals {
        let mut t = GraphTotals::default();
        for op in self.ops.iter().filter(|o| o.class() == class) {
            let r = op.repeat as f64;
            t.flops += op.flops() * r;
            t.weight_bytes += op.weight_bytes() * op.repeat;
            t.act_bytes += op.act_bytes() * op.repeat;
            t.kv_read_bytes += op.kv_read_bytes() * op.repeat;
            t.kv_write_bytes += op.kv_write_bytes() * op.repeat;
        }
        t
    }

    /// Rewrites every weight-carrying operator to stream weights in
    /// `dtype` (weight-only quantization: activations, KV cache and compute
    /// dtype are unchanged; only the weight stream shrinks).
    #[must_use]
    pub fn with_weight_dtype(mut self, dtype: DType) -> OpGraph {
        for op in &mut self.ops {
            if op.weight_bytes() > 0 {
                *op = op.clone().with_weight_dtype(dtype);
            }
        }
        self
    }

    /// Applies H2O-style KV-cache compression (Zhang et al., the paper's
    /// ref. \[58\]): only a `keep_ratio` fraction of cached tokens (the
    /// "heavy hitters" plus a recency window) is attended, scaling both the
    /// attention FLOPs and the KV read traffic.
    ///
    /// # Panics
    ///
    /// Panics if `keep_ratio` is not in `(0, 1]`.
    #[must_use]
    pub fn with_kv_keep_ratio(mut self, keep_ratio: f64) -> OpGraph {
        assert!(
            keep_ratio > 0.0 && keep_ratio <= 1.0,
            "keep ratio must be in (0,1], got {keep_ratio}"
        );
        for op in &mut self.ops {
            match &mut op.kind {
                crate::ops::OpKind::AttentionScore {
                    shape,
                    kv_read_bytes,
                } => {
                    shape.n = ((shape.n as f64 * keep_ratio).ceil() as u64).max(1);
                    *kv_read_bytes = (*kv_read_bytes as f64 * keep_ratio).ceil() as u64;
                }
                crate::ops::OpKind::AttentionContext {
                    shape,
                    kv_read_bytes,
                } => {
                    shape.k = ((shape.k as f64 * keep_ratio).ceil() as u64).max(1);
                    *kv_read_bytes = (*kv_read_bytes as f64 * keep_ratio).ceil() as u64;
                }
                crate::ops::OpKind::Softmax { cols, .. } => {
                    *cols = ((*cols as f64 * keep_ratio).ceil() as u64).max(1);
                }
                _ => {}
            }
        }
        self
    }

    /// Rewrites the graph into the per-rank shard of a Megatron-style
    /// `degree`-way tensor-parallel execution: attention heads and FFN
    /// columns split across ranks, norms/residuals/embeddings replicated.
    /// Column-parallel projections (Q/K/V, FFN up/gate, LM head) shard
    /// their output dimension; row-parallel projections (attention output,
    /// FFN down) shard their inner dimension. The all-reduce that stitches
    /// ranks back together is *not* represented here — interconnect pricing
    /// lives in the backend layer.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or does not evenly divide the sharded
    /// dimensions (use [`crate::ModelConfig::supports_tensor_parallel`] to
    /// pre-validate).
    #[must_use]
    pub fn with_tensor_parallel(mut self, degree: u64) -> OpGraph {
        assert!(degree > 0, "tensor-parallel degree must be positive");
        if degree == 1 {
            return self;
        }
        let shard = |dim: &mut u64, what: &str| {
            assert!(
                dim.is_multiple_of(degree),
                "tensor parallelism degree {degree} must divide {what} = {dim}"
            );
            *dim /= degree;
        };
        for op in &mut self.ops {
            let column_parallel = matches!(
                op.name,
                "attn.q_proj"
                    | "attn.k_proj"
                    | "attn.v_proj"
                    | "ffn.fc1"
                    | "ffn.gate_proj"
                    | "ffn.up_proj"
                    | "final.lm_head"
            );
            let row_parallel = matches!(op.name, "attn.out_proj" | "ffn.fc2" | "ffn.down_proj");
            let sharded_elementwise = matches!(op.name, "attn.rope" | "ffn.gelu" | "ffn.silu_mul");
            match &mut op.kind {
                OpKind::Linear {
                    shape,
                    weight_elems,
                } if column_parallel => {
                    shard(&mut shape.n, "projection output dim");
                    *weight_elems /= degree;
                }
                OpKind::Linear {
                    shape,
                    weight_elems,
                } if row_parallel => {
                    shard(&mut shape.k, "projection inner dim");
                    *weight_elems /= degree;
                }
                OpKind::AttentionScore {
                    shape,
                    kv_read_bytes,
                }
                | OpKind::AttentionContext {
                    shape,
                    kv_read_bytes,
                } => {
                    // `batch` is request-batch × heads; heads shard.
                    shard(&mut shape.batch, "batch x heads");
                    *kv_read_bytes /= degree;
                }
                OpKind::Softmax { rows, .. } => shard(rows, "softmax rows"),
                OpKind::KvAppend { bytes } => *bytes /= degree,
                OpKind::Elementwise { elems, .. } if sharded_elementwise => {
                    // These act on sharded head/FFN activations; residual
                    // adds stay on the replicated d_model stream.
                    *elems /= degree;
                }
                _ => {}
            }
        }
        self
    }

    /// Number of distinct operators (not counting repeats).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Builds the prefill-phase graph: `batch` prompts of `prompt_len` tokens are
/// processed in one pass, producing the first output token and populating the
/// KV cache.
///
/// # Panics
///
/// Panics if `batch` or `prompt_len` is zero, or the model fails validation.
#[must_use]
pub fn prefill_graph(model: &ModelConfig, batch: u64, prompt_len: u64, dtype: DType) -> OpGraph {
    assert!(
        batch > 0 && prompt_len > 0,
        "batch and prompt length must be positive"
    );
    model.validate().expect("invalid model config");
    let tokens = batch * prompt_len;
    let mut b = GraphBuilder::new(model, dtype);
    b.embedding(tokens);
    b.decoder_layers(
        batch, /* q_len = */ prompt_len, /* kv_len = */ prompt_len,
    );
    b.lm_head(batch); // only the last position's logits are needed
    OpGraph {
        phase: Phase::Prefill,
        ops: b.ops,
    }
}

/// Builds a single decode-step graph: each of `batch` sequences extends its
/// context (currently `kv_len` tokens, including the one being attended) by
/// one token.
///
/// # Panics
///
/// Panics if `batch` or `kv_len` is zero, or the model fails validation.
#[must_use]
pub fn decode_step_graph(model: &ModelConfig, batch: u64, kv_len: u64, dtype: DType) -> OpGraph {
    assert!(
        batch > 0 && kv_len > 0,
        "batch and context length must be positive"
    );
    model.validate().expect("invalid model config");
    let mut b = GraphBuilder::new(model, dtype);
    b.embedding(batch);
    b.decoder_layers(batch, /* q_len = */ 1, kv_len);
    b.lm_head(batch);
    OpGraph {
        phase: Phase::Decode,
        ops: b.ops,
    }
}

struct GraphBuilder<'m> {
    model: &'m ModelConfig,
    dtype: DType,
    ops: Vec<Operator>,
}

impl<'m> GraphBuilder<'m> {
    fn new(model: &'m ModelConfig, dtype: DType) -> Self {
        GraphBuilder {
            model,
            dtype,
            ops: Vec::with_capacity(24),
        }
    }

    fn push(&mut self, name: &'static str, kind: OpKind, repeat: u64) {
        self.ops.push(Operator::new(name, kind, self.dtype, repeat));
    }

    fn embedding(&mut self, tokens: u64) {
        self.push(
            "embed.tokens",
            OpKind::Embedding {
                tokens,
                d_model: self.model.d_model,
            },
            1,
        );
        if self.model.family == Family::Opt {
            self.push(
                "embed.positions",
                OpKind::Embedding {
                    tokens,
                    d_model: self.model.d_model,
                },
                1,
            );
        }
    }

    /// Emits the per-layer block, repeated `n_layers` times.
    ///
    /// `q_len` is tokens computed this pass per sequence; `kv_len` is the
    /// context length attended over (= `q_len` in prefill).
    fn decoder_layers(&mut self, batch: u64, q_len: u64, kv_len: u64) {
        let m = self.model;
        let layers = m.n_layers;
        let d = m.d_model;
        let d_kv = m.d_kv();
        let d_head = m.d_head();
        let tokens = batch * q_len;
        let bytes = self.dtype.bytes();

        self.push("attn.norm", OpKind::Norm { tokens, dim: d }, layers);
        self.push(
            "attn.q_proj",
            OpKind::Linear {
                shape: Matmul::new(tokens, d, d),
                weight_elems: d * d,
            },
            layers,
        );
        self.push(
            "attn.k_proj",
            OpKind::Linear {
                shape: Matmul::new(tokens, d_kv, d),
                weight_elems: d * d_kv,
            },
            layers,
        );
        self.push(
            "attn.v_proj",
            OpKind::Linear {
                shape: Matmul::new(tokens, d_kv, d),
                weight_elems: d * d_kv,
            },
            layers,
        );
        if m.family == Family::Llama2 {
            // RoPE rotates Q and K in place: ~6 flops per rotated element.
            self.push(
                "attn.rope",
                OpKind::Elementwise {
                    elems: tokens * (d + d_kv),
                    flops_per_elem: 6.0,
                    streams: 2,
                },
                layers,
            );
        }
        self.push(
            "attn.kv_append",
            OpKind::KvAppend {
                bytes: 2 * batch * q_len * d_kv * bytes,
            },
            layers,
        );
        // During prefill, K/V for the current block are produced on-chip;
        // attending still reads the full populated cache once per layer.
        let kv_cache_read = batch * kv_len * d_kv * bytes;
        self.push(
            "attn.score",
            OpKind::AttentionScore {
                shape: Matmul::batched(q_len, kv_len, d_head, batch * m.n_heads),
                kv_read_bytes: kv_cache_read,
            },
            layers,
        );
        self.push(
            "attn.softmax",
            OpKind::Softmax {
                rows: batch * m.n_heads * q_len,
                cols: kv_len,
            },
            layers,
        );
        self.push(
            "attn.context",
            OpKind::AttentionContext {
                shape: Matmul::batched(q_len, d_head, kv_len, batch * m.n_heads),
                kv_read_bytes: kv_cache_read,
            },
            layers,
        );
        self.push(
            "attn.out_proj",
            OpKind::Linear {
                shape: Matmul::new(tokens, d, d),
                weight_elems: d * d,
            },
            layers,
        );
        self.push(
            "attn.residual",
            OpKind::Elementwise {
                elems: tokens * d,
                flops_per_elem: 1.0,
                streams: 3,
            },
            layers,
        );

        self.push("ffn.norm", OpKind::Norm { tokens, dim: d }, layers);
        match m.ffn {
            FfnKind::Gelu => {
                self.push(
                    "ffn.fc1",
                    OpKind::Linear {
                        shape: Matmul::new(tokens, m.d_ff, d),
                        weight_elems: d * m.d_ff,
                    },
                    layers,
                );
                self.push(
                    "ffn.gelu",
                    OpKind::Elementwise {
                        elems: tokens * m.d_ff,
                        flops_per_elem: 8.0,
                        streams: 2,
                    },
                    layers,
                );
                self.push(
                    "ffn.fc2",
                    OpKind::Linear {
                        shape: Matmul::new(tokens, d, m.d_ff),
                        weight_elems: d * m.d_ff,
                    },
                    layers,
                );
            }
            FfnKind::SwiGlu => {
                self.push(
                    "ffn.gate_proj",
                    OpKind::Linear {
                        shape: Matmul::new(tokens, m.d_ff, d),
                        weight_elems: d * m.d_ff,
                    },
                    layers,
                );
                self.push(
                    "ffn.up_proj",
                    OpKind::Linear {
                        shape: Matmul::new(tokens, m.d_ff, d),
                        weight_elems: d * m.d_ff,
                    },
                    layers,
                );
                self.push(
                    "ffn.silu_mul",
                    OpKind::Elementwise {
                        elems: tokens * m.d_ff,
                        flops_per_elem: 9.0,
                        streams: 3,
                    },
                    layers,
                );
                self.push(
                    "ffn.down_proj",
                    OpKind::Linear {
                        shape: Matmul::new(tokens, d, m.d_ff),
                        weight_elems: d * m.d_ff,
                    },
                    layers,
                );
            }
        }
        self.push(
            "ffn.residual",
            OpKind::Elementwise {
                elems: tokens * d,
                flops_per_elem: 1.0,
                streams: 3,
            },
            layers,
        );
    }

    fn lm_head(&mut self, rows: u64) {
        let m = self.model;
        self.push(
            "final.norm",
            OpKind::Norm {
                tokens: rows,
                dim: m.d_model,
            },
            1,
        );
        self.push(
            "final.lm_head",
            OpKind::Linear {
                shape: Matmul::new(rows, m.vocab_size, m.d_model),
                weight_elems: m.d_model * m.vocab_size,
            },
            1,
        );
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact float assertions are deliberate: determinism is bit-level
mod tests {
    use super::*;
    use crate::families;

    #[test]
    fn prefill_flops_track_2_params_tokens() {
        // Rule of thumb: forward FLOPs ≈ 2 × params × tokens for short
        // sequences (attention adds a small s² term).
        for m in [families::opt_13b(), families::llama2_13b()] {
            let g = prefill_graph(&m, 4, 128, DType::Bf16);
            let approx = 2.0 * m.param_count() as f64 * (4.0 * 128.0);
            let ratio = g.totals().flops / approx;
            assert!((0.85..1.25).contains(&ratio), "{}: ratio {ratio}", m.name);
        }
    }

    #[test]
    fn decode_weight_traffic_equals_weight_footprint() {
        // A decode step must stream every weight matrix exactly once,
        // independent of batch size.
        let m = families::llama2_7b();
        let g1 = decode_step_graph(&m, 1, 512, DType::Bf16);
        let g32 = decode_step_graph(&m, 32, 512, DType::Bf16);
        // GEMM weight traffic is exactly batch-independent (embedding
        // gathers touch one extra row per extra sequence and are excluded).
        assert_eq!(
            g1.totals_for_class(OpClass::Gemm).weight_bytes,
            g32.totals_for_class(OpClass::Gemm).weight_bytes
        );
        let weights = m.weight_bytes(DType::Bf16).get() as f64;
        let streamed = g1.totals().weight_bytes as f64;
        // Embedding gathers only touch a few rows, so streamed < full
        // footprint but within ~5%.
        assert!(streamed <= weights);
        assert!(
            streamed > 0.93 * weights,
            "streamed {streamed} vs {weights}"
        );
    }

    #[test]
    fn decode_kv_read_scales_with_context_and_batch() {
        let m = families::opt_13b();
        let short = decode_step_graph(&m, 1, 128, DType::Bf16)
            .totals()
            .kv_read_bytes;
        let long = decode_step_graph(&m, 1, 1024, DType::Bf16)
            .totals()
            .kv_read_bytes;
        assert_eq!(long, 8 * short);
        let batched = decode_step_graph(&m, 16, 128, DType::Bf16)
            .totals()
            .kv_read_bytes;
        assert_eq!(batched, 16 * short);
    }

    #[test]
    fn prefill_kv_write_matches_footprint_formula() {
        let m = families::llama2_13b();
        let g = prefill_graph(&m, 8, 256, DType::Bf16);
        assert_eq!(
            g.totals().kv_write_bytes,
            m.kv_cache_bytes(256, 8, DType::Bf16).get()
        );
    }

    #[test]
    fn prefill_is_more_compute_intense_than_decode() {
        let m = families::opt_6_7b();
        let p = prefill_graph(&m, 1, 128, DType::Bf16).totals();
        let d = decode_step_graph(&m, 1, 128, DType::Bf16).totals();
        assert!(p.arithmetic_intensity() > 20.0 * d.arithmetic_intensity());
    }

    #[test]
    fn gqa_reduces_kv_traffic() {
        let llama70 = families::llama2_70b();
        let g = decode_step_graph(&llama70, 1, 1024, DType::Bf16);
        // d_kv = 1024 = d_model/8: score+context read 2 × kv_len × d_kv per layer.
        let expect = 2 * 1024 * 1024 * 2 * llama70.n_layers;
        assert_eq!(g.totals().kv_read_bytes, expect);
    }

    #[test]
    fn opt_has_positional_embedding_op_llama_has_rope() {
        let opt = prefill_graph(&families::opt_1_3b(), 1, 8, DType::Bf16);
        assert!(opt.ops.iter().any(|o| o.name == "embed.positions"));
        assert!(!opt.ops.iter().any(|o| o.name == "attn.rope"));
        let ll = prefill_graph(&families::llama2_7b(), 1, 8, DType::Bf16);
        assert!(ll.ops.iter().any(|o| o.name == "attn.rope"));
        assert!(!ll.ops.iter().any(|o| o.name == "embed.positions"));
    }

    #[test]
    fn class_totals_partition_the_graph() {
        let m = families::llama2_13b();
        let g = prefill_graph(&m, 2, 64, DType::Bf16);
        let whole = g.totals();
        let classes = [
            OpClass::Gemm,
            OpClass::Attention,
            OpClass::Normalization,
            OpClass::Elementwise,
            OpClass::Memory,
        ];
        let sum: f64 = classes.iter().map(|c| g.totals_for_class(*c).flops).sum();
        assert!((sum - whole.flops).abs() / whole.flops < 1e-12);
        let sum_bytes: u64 = classes
            .iter()
            .map(|c| g.totals_for_class(*c).total_bytes())
            .sum();
        assert_eq!(sum_bytes, whole.total_bytes());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_panics() {
        let _ = prefill_graph(&families::opt_1_3b(), 0, 128, DType::Bf16);
    }

    #[test]
    fn kv_compression_scales_attention_only() {
        let m = families::opt_13b();
        let g = decode_step_graph(&m, 4, 4096, DType::Bf16);
        let c = g.clone().with_kv_keep_ratio(0.25);
        let (gt, ct) = (g.totals(), c.totals());
        // KV reads scale by the keep ratio...
        let ratio = ct.kv_read_bytes as f64 / gt.kv_read_bytes as f64;
        assert!((ratio - 0.25).abs() < 0.01, "{ratio}");
        // ...while weight traffic is untouched.
        assert_eq!(ct.weight_bytes, gt.weight_bytes);
        assert!(ct.flops < gt.flops);
    }

    #[test]
    fn tensor_parallel_shards_gemms_and_replicates_norms() {
        for m in [families::opt_13b(), families::llama2_70b()] {
            assert!(m.supports_tensor_parallel(2).is_ok());
            let g = prefill_graph(&m, 4, 256, DType::Bf16);
            let s = g.clone().with_tensor_parallel(2);
            let (gt, st) = (g.totals(), s.totals());
            // GEMM work (the sharded classes) halves exactly.
            for class in [OpClass::Gemm, OpClass::Attention] {
                assert_eq!(
                    g.totals_for_class(class).flops,
                    2.0 * s.totals_for_class(class).flops,
                    "{}: {class} must shard",
                    m.name
                );
            }
            // Weight traffic per rank halves exactly except the replicated
            // embedding gathers.
            assert!(st.weight_bytes <= gt.weight_bytes / 2 + 8 * m.d_model * 256);
            // KV cache is head-sharded.
            assert_eq!(st.kv_read_bytes, gt.kv_read_bytes / 2);
            assert_eq!(st.kv_write_bytes, gt.kv_write_bytes / 2);
            // Norms/residuals are replicated: per-rank work is strictly
            // more than half the full pass.
            assert!(
                st.flops > gt.flops / 2.0,
                "{}: replicated ops must keep the shard above half",
                m.name
            );
            let norm = g.totals_for_class(OpClass::Normalization).flops;
            // Softmax rows shard, norms do not; the class loses less
            // than half its flops.
            assert!(s.totals_for_class(OpClass::Normalization).flops > norm / 2.0);
        }
    }

    #[test]
    fn tensor_parallel_degree_one_is_identity() {
        let m = families::llama2_13b();
        let g = decode_step_graph(&m, 2, 512, DType::Bf16);
        assert_eq!(g.clone().with_tensor_parallel(1), g);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn tensor_parallel_indivisible_heads_panic() {
        // 32 heads / 5120 d_model: degree 3 divides neither.
        let m = families::opt_6_7b();
        let _ = prefill_graph(&m, 1, 64, DType::Bf16).with_tensor_parallel(3);
    }

    #[test]
    #[should_panic(expected = "keep ratio")]
    fn zero_keep_ratio_panics() {
        let m = families::opt_1_3b();
        let _ = decode_step_graph(&m, 1, 64, DType::Bf16).with_kv_keep_ratio(0.0);
    }

    #[test]
    fn weight_only_quantization_halves_weight_traffic() {
        let m = families::llama2_7b();
        let g = decode_step_graph(&m, 1, 512, DType::Bf16);
        let q = g.clone().with_weight_dtype(DType::Int8);
        assert_eq!(q.totals().weight_bytes * 2, g.totals().weight_bytes);
        // Activations and KV are untouched by weight-only quantization.
        assert_eq!(q.totals().kv_read_bytes, g.totals().kv_read_bytes);
        assert_eq!(q.totals().act_bytes, g.totals().act_bytes);
        assert_eq!(q.totals().flops, g.totals().flops);
    }
}
