//! Inference run reports: the §II-C / §IV-A metric set.

use crate::request::Request;
use llmsim_hw::Seconds;
use llmsim_mem::HwCounters;
use std::fmt;

/// Where each phase ran and what it cost (populated for offloaded GPU runs;
/// the Fig. 18 breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OffloadBreakdown {
    /// Time spent moving data over the host link that could not be hidden.
    pub exposed_transfer: Seconds,
    /// Raw (un-overlapped) transfer time.
    pub raw_transfer: Seconds,
    /// Device compute time.
    pub gpu_compute: Seconds,
    /// Host-delegated compute time (FlexGen runs attention on the CPU).
    pub cpu_compute: Seconds,
}

impl OffloadBreakdown {
    /// Fraction of total execution spent on data loading (Fig. 18's y-axis).
    #[must_use]
    pub fn data_loading_fraction(&self) -> f64 {
        let total = self.total();
        if total == Seconds::ZERO {
            return 0.0;
        }
        self.exposed_transfer.ratio(total)
    }

    /// Total wall-clock of the breakdown.
    #[must_use]
    pub fn total(&self) -> Seconds {
        self.exposed_transfer + self.gpu_compute + self.cpu_compute
    }
}

/// Timing of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseReport {
    /// Wall-clock time of the phase.
    pub time: Seconds,
    /// Arithmetic performed.
    pub flops: f64,
    /// DRAM traffic generated.
    pub dram_bytes: f64,
    /// Fraction of the phase that was memory-bound (time-weighted).
    pub memory_bound_fraction: f64,
}

/// Full report of one simulated inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceReport {
    /// Model name.
    pub model: String,
    /// Backend description (e.g. `"SPR Max 9468 quad_flat 48c"`).
    pub backend: String,
    /// The request that was served.
    pub request: Request,
    /// Time to first token (= prefill time).
    pub ttft: Seconds,
    /// Average time per output token over the decode phase.
    pub tpot: Seconds,
    /// End-to-end latency.
    pub e2e_latency: Seconds,
    /// Prefill phase details.
    pub prefill: PhaseReport,
    /// Decode phase details (all steps).
    pub decode: PhaseReport,
    /// Synthesized hardware counters for the whole run.
    pub counters: HwCounters,
    /// Offload breakdown, when the backend streamed weights over a host link.
    pub offload: Option<OffloadBreakdown>,
}

impl InferenceReport {
    /// End-to-end generation throughput: generated tokens / E2E latency
    /// (the paper's token/s metric).
    #[must_use]
    pub fn e2e_throughput(&self) -> f64 {
        self.request.generated_tokens() as f64 / self.e2e_latency.as_f64()
    }

    /// Prefill throughput: prompt tokens processed per second.
    #[must_use]
    pub fn prefill_throughput(&self) -> f64 {
        (self.request.batch * self.request.prompt_len) as f64 / self.ttft.as_f64()
    }

    /// Decode throughput: tokens generated per second during decode.
    #[must_use]
    pub fn decode_throughput(&self) -> f64 {
        if self.request.decode_steps() == 0 {
            return 0.0;
        }
        (self.request.batch * self.request.decode_steps()) as f64 / self.decode.time.as_f64()
    }
}

impl fmt::Display for InferenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} [{}]: TTFT {}, TPOT {}, E2E {}, {:.1} tok/s",
            self.model,
            self.backend,
            self.request,
            self.ttft,
            self.tpot,
            self.e2e_latency,
            self.e2e_throughput()
        )
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact float assertions are deliberate: determinism is bit-level
mod tests {
    use super::*;

    fn report() -> InferenceReport {
        InferenceReport {
            model: "OPT-13B".into(),
            backend: "test".into(),
            request: Request::new(4, 128, 32),
            ttft: Seconds::new(0.1),
            tpot: Seconds::new(0.05),
            e2e_latency: Seconds::new(0.1 + 31.0 * 0.05),
            prefill: PhaseReport {
                time: Seconds::new(0.1),
                ..Default::default()
            },
            decode: PhaseReport {
                time: Seconds::new(31.0 * 0.05),
                ..Default::default()
            },
            counters: HwCounters::default(),
            offload: None,
        }
    }

    #[test]
    fn throughput_definitions() {
        let r = report();
        let e2e = r.e2e_throughput();
        assert!((e2e - (4.0 * 32.0) / 1.65).abs() < 1e-9);
        assert!((r.prefill_throughput() - (4.0 * 128.0) / 0.1).abs() < 1e-9);
        assert!((r.decode_throughput() - (4.0 * 31.0) / 1.55).abs() < 1e-9);
    }

    #[test]
    fn offload_fraction() {
        let b = OffloadBreakdown {
            exposed_transfer: Seconds::new(0.9),
            raw_transfer: Seconds::new(1.0),
            gpu_compute: Seconds::new(0.05),
            cpu_compute: Seconds::new(0.05),
        };
        assert!((b.data_loading_fraction() - 0.9).abs() < 1e-12);
        assert_eq!(OffloadBreakdown::default().data_loading_fraction(), 0.0);
    }

    #[test]
    fn display_mentions_key_metrics() {
        let s = report().to_string();
        assert!(
            s.contains("TTFT") && s.contains("TPOT") && s.contains("tok/s"),
            "{s}"
        );
    }
}
