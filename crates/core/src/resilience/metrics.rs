//! Fleet-level metrics for a resilient serving run: goodput vs raw
//! throughput, latency percentiles, SLO attainment, shed/retry rates.

use super::{ResilientOutcome, TerminalState};
use crate::serving::SchedulingPolicy;
use llmsim_report::percentile;

/// Everything a resilient serving run produced, with the fleet metrics the
/// resilience experiments report.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Scheduling policy the run used.
    pub policy: SchedulingPolicy,
    /// Per-request terminal outcomes, in terminal-event order.
    pub outcomes: Vec<ResilientOutcome>,
    /// Wall-clock span of the whole run.
    pub makespan_s: f64,
    /// Every token emitted, including tokens of requests that later failed
    /// or timed out (what the hardware paid for).
    pub generated_tokens: u64,
    /// Tokens delivered to successful requests (what clients got).
    pub goodput_tokens: u64,
    /// Longest gap between consecutive token emissions for a decoding
    /// request (head-of-line stall, as in the plain simulator).
    pub max_decode_stall_s: f64,
    /// Retries scheduled across the run.
    pub retries: u64,
    /// Preemption events (evict-and-requeue) across the run.
    pub preemptions: u64,
    /// Injected hard faults (core/socket loss events).
    pub faults_injected: u64,
    /// Injected transient slowdown iterations.
    pub slowdowns_injected: u64,
}

impl ResilienceReport {
    /// Raw token throughput: every emitted token over the makespan.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.generated_tokens as f64 / self.makespan_s
    }

    /// Goodput: only tokens of successfully completed requests count.
    /// The gap to [`Self::throughput`] is work wasted on requests that
    /// were later cancelled, failed, or recomputed.
    #[must_use]
    pub fn goodput(&self) -> f64 {
        self.goodput_tokens as f64 / self.makespan_s
    }

    /// Tokens the hardware produced that no successful request consumed.
    #[must_use]
    pub fn wasted_tokens(&self) -> u64 {
        self.generated_tokens.saturating_sub(self.goodput_tokens)
    }

    /// Requests that reached a successful terminal state.
    #[must_use]
    pub fn n_success(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state.is_success())
            .count()
    }

    /// Requests shed by admission control.
    #[must_use]
    pub fn n_rejected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state == TerminalState::Rejected)
            .count()
    }

    /// Requests cancelled by an SLO deadline (any phase).
    #[must_use]
    pub fn n_timed_out(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.state, TerminalState::TimedOut(_)))
            .count()
    }

    /// Requests that exhausted retries and failed hard.
    #[must_use]
    pub fn n_failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.state, TerminalState::Failed(_)))
            .count()
    }

    /// Fraction of all requests shed by admission control.
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.n_rejected() as f64 / self.outcomes.len() as f64
    }

    /// Fraction of all requests that completed AND met the given targets
    /// (`None` target = that dimension always passes). Rejected, timed-out
    /// and failed requests count against attainment.
    #[must_use]
    pub fn slo_attainment(&self, ttft_target_s: Option<f64>, e2e_target_s: Option<f64>) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let met = self
            .outcomes
            .iter()
            .filter(|o| {
                o.state.is_success()
                    && ttft_target_s.is_none_or(|t| o.ttft_s.is_some_and(|v| v <= t))
                    && e2e_target_s.is_none_or(|t| o.e2e_s <= t)
            })
            .count();
        met as f64 / self.outcomes.len() as f64
    }

    /// TTFT percentile (`p` in percent) over successful requests.
    #[must_use]
    pub fn ttft_percentile(&self, p: f64) -> f64 {
        let v: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.state.is_success())
            .filter_map(|o| o.ttft_s)
            .collect();
        percentile(&v, p)
    }

    /// End-to-end latency percentile (`p` in percent) over successful
    /// requests.
    #[must_use]
    pub fn e2e_percentile(&self, p: f64) -> f64 {
        let v: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.state.is_success())
            .map(|o| o.e2e_s)
            .collect();
        percentile(&v, p)
    }
}
