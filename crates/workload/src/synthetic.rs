//! Seeded synthetic service traces at production scale.
//!
//! The bundled real traces top out at 72 requests — enough to validate
//! replay semantics, far too small to exercise the fleet engine's hot
//! path. This module synthesizes million-request traces with the two
//! statistical properties that make real service traffic hard to serve:
//!
//! - **MMPP arrivals** (Markov-modulated Poisson): calm/burst phase
//!   switching via [`ArrivalTrace::bursty`], so admission control and
//!   queue growth are stressed the way diurnal-plus-bursty traffic
//!   stresses them;
//! - **heavy-tailed length mixtures**: each request draws a workload
//!   *class* (chat turn, document ingest, code completion, …) and then
//!   log-normal prompt/generation lengths from that class, reproducing
//!   the multi-modal shape histograms of ShareGPT/Azure-LLM-style traces.
//!
//! Lengths are **quantized** to a configurable grid (`prompt_quantum`,
//! `gen_quantum`). Real serving stacks pad sequences to bucket boundaries
//! for exactly the reason the simulator does: it bounds the number of
//! distinct shapes the cost machinery ever sees. A million-request trace
//! with raw log-normal lengths would price ~10^6 distinct shapes; the
//! quantized mixture prices a few thousand, which the engine's
//! prediction memo turns into near-free lookups (see DESIGN.md §12).
//!
//! Everything is seeded: the same [`SyntheticSpec`] always produces the
//! same trace, byte for byte.

use crate::generator::{ArrivalTrace, LogNormalLengths};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One workload class in the mixture: a weight and the length
/// distributions requests of this class draw from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LengthClass {
    /// Relative mixture weight (need not be normalized).
    pub weight: f64,
    /// Prompt-length distribution.
    pub prompt: LogNormalLengths,
    /// Generation-length distribution.
    pub gen: LogNormalLengths,
}

/// Full specification of a synthetic trace. Two specs with equal fields
/// generate byte-identical traces.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Master seed (arrivals and shapes derive independent streams).
    pub seed: u64,
    /// Number of requests to generate.
    pub requests: usize,
    /// Calm-phase arrival rate.
    pub base_rate_per_sec: f64,
    /// Burst-phase multiplier on the calm rate (≥ 1).
    pub burst_multiplier: f64,
    /// Mean calm/burst phase duration.
    pub mean_phase_s: f64,
    /// The workload-class mixture (must be non-empty, weights positive).
    pub classes: Vec<LengthClass>,
    /// Prompt lengths are rounded up to a multiple of this (≥ 1).
    pub prompt_quantum: u64,
    /// Generation lengths are rounded up to a multiple of this (≥ 1).
    pub gen_quantum: u64,
}

impl SyntheticSpec {
    /// A day-of-service-like mixture at `rate_per_sec`: 70 % short chat
    /// turns, 20 % long-prompt document queries, 10 % long-generation
    /// completions. Lengths bucket to a 16/8-token grid.
    #[must_use]
    pub fn service_day(seed: u64, requests: usize, rate_per_sec: f64) -> Self {
        SyntheticSpec {
            seed,
            requests,
            base_rate_per_sec: rate_per_sec,
            burst_multiplier: 4.0,
            mean_phase_s: 60.0,
            classes: vec![
                // Chat: short prompts, short answers.
                LengthClass {
                    weight: 0.7,
                    prompt: LogNormalLengths {
                        mu: 4.7,
                        sigma: 0.6,
                        clamp: (16, 1024),
                    },
                    gen: LogNormalLengths {
                        mu: 4.0,
                        sigma: 0.6,
                        clamp: (8, 256),
                    },
                },
                // Document Q&A: long prompts, short answers.
                LengthClass {
                    weight: 0.2,
                    prompt: LogNormalLengths {
                        mu: 6.6,
                        sigma: 0.5,
                        clamp: (256, 4096),
                    },
                    gen: LogNormalLengths {
                        mu: 3.7,
                        sigma: 0.5,
                        clamp: (8, 128),
                    },
                },
                // Completion/agentic: moderate prompts, long generations.
                LengthClass {
                    weight: 0.1,
                    prompt: LogNormalLengths {
                        mu: 5.3,
                        sigma: 0.5,
                        clamp: (32, 2048),
                    },
                    gen: LogNormalLengths {
                        mu: 5.5,
                        sigma: 0.5,
                        clamp: (32, 1024),
                    },
                },
            ],
            prompt_quantum: 16,
            gen_quantum: 8,
        }
    }
}

/// One synthetic request: arrival plus quantized shape and the class it
/// was drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticRequest {
    /// Arrival time at the router.
    pub arrival_s: f64,
    /// Prompt tokens (quantized).
    pub prompt_len: u64,
    /// Tokens to generate (quantized).
    pub gen_len: u64,
    /// Index into [`SyntheticSpec::classes`].
    pub class: usize,
}

/// Rounds `len` up to a multiple of `quantum` without leaving the clamp
/// range of the drawing distribution's upper bound.
fn quantize(len: u64, quantum: u64, max: u64) -> u64 {
    let q = len.div_ceil(quantum) * quantum;
    q.min(max.div_ceil(quantum) * quantum).max(quantum)
}

/// Generates the trace described by `spec`.
///
/// Arrivals come from the MMPP stream, shapes from the class mixture;
/// the two use independently derived seeds so changing the mixture never
/// perturbs arrival times (and vice versa).
///
/// # Panics
///
/// Panics if the spec is degenerate: no requests, no classes, a
/// non-positive class weight, a zero quantum, or MMPP parameters outside
/// [`ArrivalTrace::bursty`]'s domain.
#[must_use]
pub fn synthesize(spec: &SyntheticSpec) -> Vec<SyntheticRequest> {
    assert!(spec.requests > 0, "trace must have requests");
    assert!(!spec.classes.is_empty(), "mixture must have classes");
    assert!(
        spec.classes.iter().all(|c| c.weight > 0.0),
        "class weights must be positive"
    );
    assert!(
        spec.prompt_quantum >= 1 && spec.gen_quantum >= 1,
        "quanta must be at least 1"
    );

    let arrivals = ArrivalTrace::bursty(
        spec.seed ^ 0xA55A_0F0F_1234_5678,
        spec.requests,
        spec.base_rate_per_sec,
        spec.burst_multiplier,
        spec.mean_phase_s,
    );
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5AA5_F0F0_8765_4321);
    let total_weight: f64 = spec.classes.iter().map(|c| c.weight).sum();

    arrivals
        .arrivals
        .iter()
        .map(|&arrival_s| {
            // Weighted class draw by inverse CDF over the weight prefix.
            let mut u = rng.gen_range(0.0..total_weight);
            let mut class = spec.classes.len() - 1;
            for (i, c) in spec.classes.iter().enumerate() {
                if u < c.weight {
                    class = i;
                    break;
                }
                u -= c.weight;
            }
            let c = &spec.classes[class];
            let prompt_len = quantize(
                c.prompt.sample(&mut rng),
                spec.prompt_quantum,
                c.prompt.clamp.1,
            );
            let gen_len = quantize(c.gen.sample(&mut rng), spec.gen_quantum, c.gen.clamp.1);
            SyntheticRequest {
                arrival_s,
                prompt_len,
                gen_len,
                class,
            }
        })
        .collect()
}

/// Specification of a multi-turn chat-session trace: the workload shape
/// paged-KV prefix caching exists for. Every session shares one of a few
/// system prompts (a cross-session prefix) and then grows its own context
/// turn by turn (a per-session prefix): turn `t+1`'s prompt is exactly
/// turn `t`'s prompt plus its generation plus the new user message, so a
/// KV cache that kept the session's blocks can skip re-prefilling all but
/// the new suffix. Two specs with equal fields generate byte-identical
/// traces.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Master seed (session starts and shapes derive independent streams).
    pub seed: u64,
    /// Number of sessions to generate.
    pub sessions: usize,
    /// Per-session turn count, drawn uniformly from this inclusive range.
    pub turns: (u32, u32),
    /// Number of distinct shared system prompts; each session draws one.
    pub system_prompts: u64,
    /// Length of every system prompt, in tokens (quantized up).
    pub system_prompt_len: u64,
    /// Per-turn user-message length distribution.
    pub user: LogNormalLengths,
    /// Per-turn generation length distribution.
    pub gen: LogNormalLengths,
    /// Mean think time between a turn and the next (exponential gaps).
    pub mean_think_s: f64,
    /// Poisson rate of session starts.
    pub session_rate_per_s: f64,
    /// Prompt lengths are rounded up to a multiple of this (≥ 1).
    pub prompt_quantum: u64,
    /// Generation lengths are rounded up to a multiple of this (≥ 1).
    pub gen_quantum: u64,
    /// Sessions stop growing (end early) once the next prompt would
    /// exceed this many tokens.
    pub max_context: u64,
}

impl SessionSpec {
    /// A chat-service-like session mixture at `rate_per_s` session
    /// starts: 2–8 turns, four shared 512-token system prompts, short
    /// user messages and answers on a 16-token grid (one default KV
    /// block), 8k context windows.
    #[must_use]
    pub fn chat_day(seed: u64, sessions: usize, rate_per_s: f64) -> Self {
        SessionSpec {
            seed,
            sessions,
            turns: (2, 8),
            system_prompts: 4,
            system_prompt_len: 512,
            user: LogNormalLengths {
                mu: 4.2,
                sigma: 0.6,
                clamp: (16, 512),
            },
            gen: LogNormalLengths {
                mu: 4.5,
                sigma: 0.6,
                clamp: (16, 384),
            },
            mean_think_s: 10.0,
            session_rate_per_s: rate_per_s,
            prompt_quantum: 16,
            gen_quantum: 16,
            max_context: 8192,
        }
    }
}

/// One turn of one synthetic session, ready to become a fleet request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionRequest {
    /// Arrival time at the router.
    pub arrival_s: f64,
    /// Full-context prompt tokens (system prompt + whole conversation so
    /// far + this turn's user message, quantized).
    pub prompt_len: u64,
    /// Tokens to generate (quantized).
    pub gen_len: u64,
    /// Shared system prompt id (1-based; 0 is "no shared prefix").
    pub prefix_id: u64,
    /// Length of the shared system prompt, in tokens.
    pub prefix_len: u64,
    /// Session id (1-based; unique per session, 0 is "no session").
    pub session: u64,
    /// Turn index within the session (0-based).
    pub turn: u32,
}

/// Generates the session trace described by `spec`, sorted by arrival
/// time (ties broken by session id, then turn).
///
/// Per session, turn `t+1`'s prompt is `prompt_t + gen_t + user draw`,
/// rounded up to the prompt quantum — always a strict superset of the
/// previous turn's context, which is the invariant the paged-KV session
/// chain relies on. Gaps between turns are exponential think times; the
/// trace is open-loop, so think time stands in for (and need not exceed)
/// the previous turn's service time.
///
/// # Panics
///
/// Panics if the spec is degenerate: no sessions, an empty or inverted
/// turn range, no system prompts, a zero quantum, a non-positive rate or
/// think time, or a context window too small for even a first turn.
#[must_use]
pub fn synthesize_sessions(spec: &SessionSpec) -> Vec<SessionRequest> {
    assert!(spec.sessions > 0, "trace must have sessions");
    assert!(
        spec.turns.0 >= 1 && spec.turns.0 <= spec.turns.1,
        "turn range must be non-empty"
    );
    assert!(spec.system_prompts >= 1, "need at least one system prompt");
    assert!(
        spec.prompt_quantum >= 1 && spec.gen_quantum >= 1,
        "quanta must be at least 1"
    );
    assert!(
        spec.session_rate_per_s > 0.0 && spec.mean_think_s > 0.0,
        "rates must be positive"
    );
    let prefix_len = spec.system_prompt_len.div_ceil(spec.prompt_quantum) * spec.prompt_quantum;
    assert!(
        prefix_len + spec.user.clamp.1 <= spec.max_context,
        "max_context cannot fit the system prompt plus one user message"
    );

    let mut starts_rng = StdRng::seed_from_u64(spec.seed ^ 0xC3C3_1E1E_0F0F_A5A5);
    let mut shape_rng = StdRng::seed_from_u64(spec.seed ^ 0x3C3C_E1E1_F0F0_5A5A);

    let mut out = Vec::new();
    let mut start_s = 0.0f64;
    for session in 1..=spec.sessions as u64 {
        // Poisson session starts: exponential inter-start gaps.
        let u: f64 = starts_rng.gen_range(0.0..1.0);
        start_s += -(1.0 - u).ln() / spec.session_rate_per_s;

        let turns = shape_rng.gen_range(spec.turns.0..=spec.turns.1);
        let prefix_id = 1 + shape_rng.gen_range(0..spec.system_prompts);
        let mut arrival_s = start_s;
        let mut ctx = prefix_len; // tokens already in the conversation
        for turn in 0..turns {
            let user = spec.user.sample(&mut shape_rng);
            let prompt_len = (ctx + user).div_ceil(spec.prompt_quantum) * spec.prompt_quantum;
            if prompt_len > spec.max_context {
                break; // context window exhausted: session ends early
            }
            let gen_len = quantize(
                spec.gen.sample(&mut shape_rng),
                spec.gen_quantum,
                spec.gen.clamp.1,
            );
            out.push(SessionRequest {
                arrival_s,
                prompt_len,
                gen_len,
                prefix_id,
                prefix_len,
                session,
                turn,
            });
            ctx = prompt_len + gen_len;
            let u: f64 = shape_rng.gen_range(0.0..1.0);
            arrival_s += -(1.0 - u).ln() * spec.mean_think_s;
        }
    }
    out.sort_by(|a, b| {
        a.arrival_s
            .total_cmp(&b.arrival_s)
            .then(a.session.cmp(&b.session))
            .then(a.turn.cmp(&b.turn))
    });
    out
}

/// Number of distinct `(prompt_len, gen_len)` shapes in a trace — the
/// quantity the engine's prediction memo scales with, reported by the
/// engine benchmark so shape-bucketing regressions are visible.
#[must_use]
pub fn distinct_shapes(trace: &[SyntheticRequest]) -> usize {
    let mut shapes: Vec<(u64, u64)> = trace.iter().map(|r| (r.prompt_len, r.gen_len)).collect();
    shapes.sort_unstable();
    shapes.dedup();
    shapes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_spec_same_trace() {
        let spec = SyntheticSpec::service_day(11, 5_000, 50.0);
        let a = synthesize(&spec);
        let b = synthesize(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn arrivals_ascend_and_track_the_mmpp_rate() {
        // Short phases so the trace spans many calm/burst switches and the
        // empirical rate converges to the stationary closed form.
        let mut spec = SyntheticSpec::service_day(3, 50_000, 100.0);
        spec.mean_phase_s = 2.0;
        let t = synthesize(&spec);
        assert!(t.windows(2).all(|w| w[1].arrival_s >= w[0].arrival_s));
        // MMPP closed form: equal mean phase lengths ⇒ stationary rate
        // base · (1 + burst_multiplier) / 2.
        let expected = 100.0 * (1.0 + spec.burst_multiplier) / 2.0;
        let span = t.last().unwrap().arrival_s - t[0].arrival_s;
        let rate = (t.len() - 1) as f64 / span;
        assert!(
            (rate - expected).abs() / expected < 0.25,
            "rate {rate} vs {expected}"
        );
    }

    #[test]
    fn lengths_are_quantized_and_clamped() {
        let spec = SyntheticSpec::service_day(7, 10_000, 50.0);
        let t = synthesize(&spec);
        for r in &t {
            assert_eq!(r.prompt_len % spec.prompt_quantum, 0, "{r:?}");
            assert_eq!(r.gen_len % spec.gen_quantum, 0, "{r:?}");
            assert!(r.prompt_len >= spec.prompt_quantum && r.prompt_len <= 4096);
            assert!(r.gen_len >= spec.gen_quantum && r.gen_len <= 1024);
        }
    }

    #[test]
    fn quantization_bounds_distinct_shapes() {
        let spec = SyntheticSpec::service_day(13, 100_000, 100.0);
        let t = synthesize(&spec);
        let shapes = distinct_shapes(&t);
        // 100k raw log-normal draws would give ~10^5 shapes; the 16/8
        // grid keeps the cost-model key space in the low thousands.
        assert!(
            shapes < 10_000,
            "shape bucketing failed: {shapes} distinct shapes"
        );
        assert!(shapes > 100, "mixture collapsed: {shapes} shapes");
    }

    #[test]
    fn mixture_fractions_match_weights() {
        let spec = SyntheticSpec::service_day(5, 50_000, 50.0);
        let t = synthesize(&spec);
        let mut counts = vec![0usize; spec.classes.len()];
        for r in &t {
            counts[r.class] += 1;
        }
        let fractions: Vec<f64> = counts.iter().map(|&c| c as f64 / t.len() as f64).collect();
        for (f, c) in fractions.iter().zip(&spec.classes) {
            assert!((f - c.weight).abs() < 0.02, "{fractions:?}");
        }
    }

    #[test]
    fn same_session_spec_same_trace() {
        let spec = SessionSpec::chat_day(17, 500, 2.0);
        let a = synthesize_sessions(&spec);
        let b = synthesize_sessions(&spec);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[1].arrival_s >= w[0].arrival_s));
    }

    #[test]
    fn turns_extend_the_previous_context_exactly() {
        let spec = SessionSpec::chat_day(23, 300, 2.0);
        let t = synthesize_sessions(&spec);
        let mut by_session: std::collections::BTreeMap<u64, Vec<&SessionRequest>> =
            std::collections::BTreeMap::new();
        for r in &t {
            by_session.entry(r.session).or_default().push(r);
        }
        for turns in by_session.values() {
            for w in turns.windows(2) {
                let (prev, next) = (w[0], w[1]);
                assert_eq!(next.turn, prev.turn + 1);
                assert!(next.arrival_s > prev.arrival_s);
                // The KV session-chain invariant: the next prompt embeds
                // the whole previous context (prompt + generation).
                assert!(next.prompt_len >= prev.prompt_len + prev.gen_len);
                assert_eq!(next.prefix_id, prev.prefix_id);
            }
            for r in turns {
                assert!(r.prompt_len <= spec.max_context);
                assert_eq!(r.prompt_len % spec.prompt_quantum, 0);
                assert_eq!(r.gen_len % spec.gen_quantum, 0);
                assert!(r.prefix_id >= 1 && r.prefix_id <= spec.system_prompts);
                assert!(r.prompt_len >= r.prefix_len);
            }
        }
    }

    #[test]
    fn sessions_share_few_system_prompts() {
        let spec = SessionSpec::chat_day(29, 1_000, 5.0);
        let t = synthesize_sessions(&spec);
        let mut ids: Vec<u64> = t.iter().map(|r| r.prefix_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "turn range")]
    fn inverted_turn_range_panics() {
        let mut spec = SessionSpec::chat_day(1, 10, 1.0);
        spec.turns = (5, 2);
        let _ = synthesize_sessions(&spec);
    }

    #[test]
    #[should_panic(expected = "classes")]
    fn empty_mixture_panics() {
        let mut spec = SyntheticSpec::service_day(1, 10, 1.0);
        spec.classes.clear();
        let _ = synthesize(&spec);
    }
}
