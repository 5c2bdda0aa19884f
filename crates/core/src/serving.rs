//! A continuous-batching serving simulator — the §VII-C extension.
//!
//! The paper's related work contrasts *static* batching (FasterTransformer:
//! a batch runs to completion before the next is admitted) with
//! *iteration-level* scheduling (Orca/vLLM: requests join and leave the
//! running batch at token-step granularity), which Sarathi-style chunked
//! prefill refines. This module simulates all three policies on top of a
//! backend's phase-cost primitives and reports per-request latency plus
//! system throughput. The static loop lives here; iteration-level and
//! chunked prefill run on the resilient engine
//! ([`crate::resilience::simulate_resilient`]'s loops) with every fault,
//! deadline and admission hook off.

use crate::backend::CostModel;
use crate::pricing::StepTable;
use crate::resilience::{run_continuous, ResilienceConfig, ResilienceReport};
use crate::trace::{NullSink, SpanOutcome, SpanRecord, SpanSink};
use llmsim_model::ModelConfig;
use std::fmt;

/// One request arriving at a serving system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingRequest {
    /// Caller-assigned id.
    pub id: u64,
    /// Arrival time offset from simulation start, seconds.
    pub arrival_s: f64,
    /// Prompt length.
    pub prompt_len: u64,
    /// Tokens to generate.
    pub gen_len: u64,
}

/// Batching policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// Whole batches run to completion (FasterTransformer-style). Short
    /// requests wait for the batch's longest generation.
    Static,
    /// Requests join/leave at token-step granularity (Orca-style
    /// iteration-level scheduling).
    IterationLevel,
    /// Iteration-level with Sarathi-style chunked prefill: new prompts are
    /// processed `chunk_tokens` at a time, fused with ongoing decode
    /// iterations, bounding the decode stall a long prompt can cause.
    ChunkedPrefill {
        /// Prompt tokens processed per fused iteration.
        chunk_tokens: u64,
    },
}

impl fmt::Display for SchedulingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulingPolicy::Static => f.write_str("static"),
            SchedulingPolicy::IterationLevel => f.write_str("iteration-level"),
            SchedulingPolicy::ChunkedPrefill { chunk_tokens } => {
                write!(f, "chunked-prefill({chunk_tokens})")
            }
        }
    }
}

/// Serving-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingConfig {
    /// Maximum concurrent sequences in one batch.
    pub max_batch: u64,
    /// Batching policy.
    pub policy: SchedulingPolicy,
}

/// Per-request outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Request id.
    pub id: u64,
    /// Wait from arrival until the prefill that delivered the first token
    /// began, seconds.
    pub queue_delay_s: f64,
    /// Time from arrival to first token, seconds.
    pub ttft_s: f64,
    /// Time from arrival to final token, seconds.
    pub e2e_s: f64,
}

/// Whole-run serving metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Policy used.
    pub policy: SchedulingPolicy,
    /// Per-request outcomes, in completion order.
    pub outcomes: Vec<RequestOutcome>,
    /// Wall-clock of the whole run, seconds.
    pub makespan_s: f64,
    /// Total tokens generated.
    pub generated_tokens: u64,
    /// Longest gap between consecutive tokens experienced by any decoding
    /// request (the TBT stall Sarathi-Serve targets), seconds.
    pub max_decode_stall_s: f64,
}

impl ServingReport {
    /// System throughput: generated tokens / makespan.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.generated_tokens as f64 / self.makespan_s
    }

    /// Mean time-to-first-token across requests.
    #[must_use]
    pub fn mean_ttft(&self) -> f64 {
        // lint:ordered: outcomes is a Vec in deterministic completion order
        self.outcomes.iter().map(|o| o.ttft_s).sum::<f64>() / self.outcomes.len() as f64
    }

    /// A latency percentile over E2E times (`p` in percent; `NaN` when
    /// there are no outcomes or `p` is outside 0..=100). Delegates to
    /// [`llmsim_report::percentile`] so serving, resilience and cluster
    /// metrics all share one linear-interpolation percentile definition.
    #[must_use]
    pub fn e2e_percentile(&self, p: f64) -> f64 {
        let v: Vec<f64> = self.outcomes.iter().map(|o| o.e2e_s).collect();
        llmsim_report::percentile(&v, p)
    }
}

/// Simulates serving `requests` (sorted by arrival) on `backend`.
///
/// # Panics
///
/// Panics if `requests` is empty, unsorted, has zero-length fields, or
/// `config` has a zero `max_batch` or chunk size.
#[must_use]
pub fn simulate<B: CostModel + ?Sized>(
    backend: &B,
    model: &ModelConfig,
    config: &ServingConfig,
    requests: &[ServingRequest],
) -> ServingReport {
    simulate_traced(backend, model, config, requests, &mut NullSink)
}

/// [`simulate`] with per-request span tracing: every request's phase
/// timeline (queue, prefill, decode, completion) is emitted to `sink` as
/// a [`SpanRecord`]. Tracing is observational only — the returned report
/// is identical to [`simulate`]'s, bit for bit.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate`].
#[must_use]
pub fn simulate_traced<B: CostModel + ?Sized>(
    backend: &B,
    model: &ModelConfig,
    config: &ServingConfig,
    requests: &[ServingRequest],
    sink: &mut dyn SpanSink,
) -> ServingReport {
    check_inputs(config, requests);
    sink.hint_len(requests.len());
    let report = match config.policy {
        SchedulingPolicy::Static => simulate_static(backend, model, config, requests, sink),
        SchedulingPolicy::IterationLevel | SchedulingPolicy::ChunkedPrefill { .. } => {
            // Passthrough sets no KV budget, so the engine never reads the
            // per-token KV size.
            let cfg = ResilienceConfig::passthrough(*config, 0);
            serving_report(run_continuous(backend, model, 0, &cfg, requests, sink))
        }
    };
    sink.finish();
    report
}

/// The input checks [`simulate`] and
/// [`crate::resilience::simulate_resilient`] share.
///
/// # Panics
///
/// Panics if `requests` is empty, unsorted, or has zero-length fields,
/// or if `config` has a zero batch cap or chunk size.
pub(crate) fn check_inputs(config: &ServingConfig, requests: &[ServingRequest]) {
    assert!(!requests.is_empty(), "need at least one request");
    assert!(config.max_batch > 0, "max batch must be positive");
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s),
        "requests must be sorted by arrival"
    );
    assert!(
        requests.iter().all(|r| r.prompt_len > 0 && r.gen_len > 0),
        "request lengths must be positive"
    );
    if let SchedulingPolicy::ChunkedPrefill { chunk_tokens } = config.policy {
        assert!(chunk_tokens > 0, "chunk size must be positive");
    }
}

/// The serving view of a passthrough engine run, in which every request
/// completes and so has a first token.
fn serving_report(rep: ResilienceReport) -> ServingReport {
    ServingReport {
        policy: rep.policy,
        outcomes: rep
            .outcomes
            .iter()
            .map(|o| RequestOutcome {
                id: o.id,
                queue_delay_s: o.queue_delay_s,
                ttft_s: o.ttft_s.unwrap_or(f64::NAN),
                e2e_s: o.e2e_s,
            })
            .collect(),
        makespan_s: rep.makespan_s,
        generated_tokens: rep.generated_tokens,
        max_decode_stall_s: rep.max_decode_stall_s,
    }
}

fn simulate_static<B: CostModel + ?Sized>(
    backend: &B,
    model: &ModelConfig,
    config: &ServingConfig,
    requests: &[ServingRequest],
    sink: &mut dyn SpanSink,
) -> ServingReport {
    let mut steps = StepTable::new();
    let mut now = 0.0f64;
    let mut outcomes = Vec::with_capacity(requests.len());
    let mut generated = 0u64;
    let mut max_stall = 0.0f64;
    let mut i = 0usize;
    while i < requests.len() {
        let end = (i + config.max_batch as usize).min(requests.len());
        let batch = &requests[i..end];
        // The batch starts when the server is free and every member arrived.
        let start = now.max(batch.iter().map(|r| r.arrival_s).fold(0.0, f64::max));
        let b = batch.len() as u64;
        // Padding semantics: everyone pays the longest prompt and the
        // longest generation in the batch.
        let max_prompt = batch.iter().map(|r| r.prompt_len).max().unwrap_or(1);
        let max_gen = batch.iter().map(|r| r.gen_len).max().unwrap_or(1);
        let prefill = backend.prefill_time(model, b, max_prompt).as_f64();
        let first_token = start + prefill;
        let mut t = first_token;
        let mut finish = vec![first_token; batch.len()];
        for step in 0..max_gen.saturating_sub(1) {
            let kv = max_prompt + 1 + step;
            let dt = steps.step_s(backend, model, b, kv);
            max_stall = max_stall.max(dt);
            t += dt;
            for (j, r) in batch.iter().enumerate() {
                // Token 1 came from prefill; decode step `s` yields token
                // `s + 2`, so a request finishes after step `gen_len - 2`.
                if r.gen_len >= 2 && step == r.gen_len - 2 {
                    finish[j] = t;
                }
            }
        }
        for (j, r) in batch.iter().enumerate() {
            let done = finish[j].max(first_token);
            outcomes.push(RequestOutcome {
                id: r.id,
                queue_delay_s: start - r.arrival_s,
                ttft_s: first_token - r.arrival_s,
                e2e_s: done - r.arrival_s,
            });
            generated += r.gen_len;
            if sink.enabled() {
                sink.record(SpanRecord {
                    id: r.id,
                    model: 0,
                    replica: None,
                    outcome: SpanOutcome::Completed,
                    arrival_s: r.arrival_s,
                    queue_delay_s: start - r.arrival_s,
                    dispatch_s: start,
                    prefill_end_s: first_token,
                    decode_s: done - first_token,
                    decode_steps: r.gen_len - 1,
                    completion_s: done,
                    batch_at_dispatch: b,
                    prefix_hit_tokens: 0,
                    preemptions: 0,
                });
            }
        }
        now = t;
        i = end;
    }
    let makespan = outcomes
        .iter()
        .map(|o| o.e2e_s)
        .zip(requests)
        .map(|(e, r)| e + r.arrival_s)
        .fold(0.0, f64::max);
    ServingReport {
        policy: SchedulingPolicy::Static,
        outcomes,
        makespan_s: makespan,
        generated_tokens: generated,
        max_decode_stall_s: max_stall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_backend::CpuBackend;
    use llmsim_model::families;

    fn requests(n: u64, gap: f64) -> Vec<ServingRequest> {
        (0..n)
            .map(|i| ServingRequest {
                id: i,
                arrival_s: i as f64 * gap,
                // Heterogeneous lengths: the regime where iteration-level
                // scheduling wins.
                prompt_len: 64 + 64 * (i % 3),
                gen_len: 8 + 24 * (i % 4),
            })
            .collect()
    }

    fn backend() -> CpuBackend {
        CpuBackend::paper_spr()
    }

    #[test]
    fn all_requests_complete_under_both_policies() {
        let model = families::opt_6_7b();
        let reqs = requests(12, 0.05);
        for policy in [SchedulingPolicy::Static, SchedulingPolicy::IterationLevel] {
            let cfg = ServingConfig {
                max_batch: 4,
                policy,
            };
            let rep = simulate(&backend(), &model, &cfg, &reqs);
            assert_eq!(rep.outcomes.len(), 12, "{policy}");
            let expected: u64 = reqs.iter().map(|r| r.gen_len).sum();
            assert_eq!(rep.generated_tokens, expected, "{policy}");
            assert!(rep
                .outcomes
                .iter()
                .all(|o| o.e2e_s >= o.ttft_s && o.ttft_s > 0.0));
        }
    }

    #[test]
    fn iteration_level_beats_static_on_heterogeneous_lengths() {
        // The Orca/vLLM claim (§VII-C): token-level admission avoids
        // padding to the batch's longest generation.
        let model = families::opt_6_7b();
        let reqs = requests(16, 0.02);
        let static_rep = simulate(
            &backend(),
            &model,
            &ServingConfig {
                max_batch: 4,
                policy: SchedulingPolicy::Static,
            },
            &reqs,
        );
        let orca_rep = simulate(
            &backend(),
            &model,
            &ServingConfig {
                max_batch: 4,
                policy: SchedulingPolicy::IterationLevel,
            },
            &reqs,
        );
        assert!(
            orca_rep.throughput() > static_rep.throughput(),
            "orca {} vs static {}",
            orca_rep.throughput(),
            static_rep.throughput()
        );
        assert!(orca_rep.makespan_s < static_rep.makespan_s);
    }

    #[test]
    fn percentiles_are_ordered() {
        let model = families::opt_1_3b();
        let rep = simulate(
            &backend(),
            &model,
            &ServingConfig {
                max_batch: 8,
                policy: SchedulingPolicy::IterationLevel,
            },
            &requests(20, 0.01),
        );
        let p50 = rep.e2e_percentile(50.0);
        let p99 = rep.e2e_percentile(99.0);
        assert!(p50 <= p99);
        assert!(rep.mean_ttft() > 0.0);
    }

    #[test]
    fn chunked_prefill_bounds_decode_stalls() {
        // The Sarathi-Serve claim: a long prompt arriving mid-decode stalls
        // running requests for a full prefill under plain iteration-level
        // scheduling, but only for one chunk under chunked prefill.
        let model = families::opt_6_7b();
        let reqs = vec![
            ServingRequest {
                id: 0,
                arrival_s: 0.0,
                prompt_len: 64,
                gen_len: 48,
            },
            ServingRequest {
                id: 1,
                arrival_s: 0.05,
                prompt_len: 2048,
                gen_len: 8,
            },
        ];
        let run = |policy| {
            simulate(
                &backend(),
                &model,
                &ServingConfig {
                    max_batch: 4,
                    policy,
                },
                &reqs,
            )
        };
        let plain = run(SchedulingPolicy::IterationLevel);
        let chunked = run(SchedulingPolicy::ChunkedPrefill { chunk_tokens: 128 });
        assert!(
            chunked.max_decode_stall_s < 0.5 * plain.max_decode_stall_s,
            "chunked {} vs plain {}",
            chunked.max_decode_stall_s,
            plain.max_decode_stall_s
        );
        // Both complete everything.
        assert_eq!(chunked.outcomes.len(), 2);
        assert_eq!(chunked.generated_tokens, plain.generated_tokens);
    }

    #[test]
    fn chunked_prefill_completes_heterogeneous_load() {
        let model = families::opt_1_3b();
        let reqs = requests(10, 0.03);
        let rep = simulate(
            &backend(),
            &model,
            &ServingConfig {
                max_batch: 4,
                policy: SchedulingPolicy::ChunkedPrefill { chunk_tokens: 64 },
            },
            &reqs,
        );
        assert_eq!(rep.outcomes.len(), 10);
        let expected: u64 = reqs.iter().map(|r| r.gen_len).sum();
        assert_eq!(rep.generated_tokens, expected);
        assert!(rep.max_decode_stall_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn zero_chunk_panics() {
        let model = families::opt_1_3b();
        let reqs = requests(2, 0.1);
        let _ = simulate(
            &backend(),
            &model,
            &ServingConfig {
                max_batch: 2,
                policy: SchedulingPolicy::ChunkedPrefill { chunk_tokens: 0 },
            },
            &reqs,
        );
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_arrivals_panic() {
        let model = families::opt_1_3b();
        let reqs = vec![
            ServingRequest {
                id: 0,
                arrival_s: 1.0,
                prompt_len: 8,
                gen_len: 2,
            },
            ServingRequest {
                id: 1,
                arrival_s: 0.5,
                prompt_len: 8,
                gen_len: 2,
            },
        ];
        let _ = simulate(
            &backend(),
            &model,
            &ServingConfig {
                max_batch: 2,
                policy: SchedulingPolicy::Static,
            },
            &reqs,
        );
    }

    #[test]
    fn spans_reconcile_with_outcomes_across_policies() {
        let model = families::opt_6_7b();
        let reqs = requests(10, 0.03);
        for policy in [
            SchedulingPolicy::Static,
            SchedulingPolicy::IterationLevel,
            SchedulingPolicy::ChunkedPrefill { chunk_tokens: 64 },
        ] {
            let cfg = ServingConfig {
                max_batch: 4,
                policy,
            };
            let mut sink = crate::trace::VecSink::new();
            let traced = simulate_traced(&backend(), &model, &cfg, &reqs, &mut sink);
            // Tracing is observational: same report as the untraced run.
            assert_eq!(
                traced,
                simulate(&backend(), &model, &cfg, &reqs),
                "{policy}"
            );
            assert_eq!(sink.spans.len(), reqs.len(), "{policy}");
            for o in &traced.outcomes {
                let s = sink
                    .spans
                    .iter()
                    .find(|s| s.id == o.id)
                    .expect("every outcome has a span");
                assert!((s.ttft_s() - o.ttft_s).abs() < 1e-9, "{policy}");
                assert!((s.e2e_s() - o.e2e_s).abs() < 1e-9, "{policy}");
                assert_eq!(
                    s.queue_delay_s.to_bits(),
                    o.queue_delay_s.to_bits(),
                    "{policy}: outcome and span disagree on the wait before prefill"
                );
                let phase_sum = s.queue_delay_s + s.prefill_s() + s.decode_s;
                assert!(
                    (phase_sum - s.e2e_s()).abs() < 1e-9,
                    "{policy}: phases {phase_sum} != e2e {}",
                    s.e2e_s()
                );
                assert!(s.batch_at_dispatch >= 1 && s.batch_at_dispatch <= 4);
            }
        }
    }

    #[test]
    fn bigger_batch_cap_raises_throughput() {
        let model = families::opt_6_7b();
        let reqs = requests(24, 0.005);
        let tput = |cap| {
            simulate(
                &backend(),
                &model,
                &ServingConfig {
                    max_batch: cap,
                    policy: SchedulingPolicy::IterationLevel,
                },
                &reqs,
            )
            .throughput()
        };
        assert!(tput(8) > tput(1), "batching should help");
    }
}
