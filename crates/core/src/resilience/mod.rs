//! Resilience layer for the serving simulator: fault injection, SLO
//! deadlines, admission control with load shedding, retry with exponential
//! backoff, and graceful degradation under memory pressure.
//!
//! The plain [`crate::serving`] simulator models throughput on a healthy
//! machine: every request eventually completes. Real CPU serving fleets do
//! not look like that — nodes stall (transient frequency dips, noisy
//! neighbours), cores and sockets drop out mid-batch, and unbounded
//! KV-cache growth runs the box out of memory. Serving systems
//! differentiate on how their *schedulers* behave under those conditions
//! (LLMServingSim, Cho et al. 2024; the NPU-serving scheduling study of
//! Zhu et al. 2025), so this module wraps the same iteration-level cost
//! primitives with a failure model and the standard production defenses:
//!
//! * **Fault injection** ([`FaultModel`]) — deterministic, seeded draws
//!   for transient slowdowns, core/socket loss mid-batch, and simulated
//!   OOM when KV-cache growth exceeds a memory budget derived from the
//!   `llmsim-hw` presets.
//! * **SLO deadlines** ([`SloPolicy`]) — per-request TTFT and end-to-end
//!   budgets with timeout-based cancellation (expired queue entries are
//!   dropped before they waste prefill compute).
//! * **Admission control** ([`AdmissionPolicy`]) — a bounded queue that
//!   sheds load at arrival time instead of letting latency collapse.
//! * **Retry** ([`RetryPolicy`]) — exponential backoff with deterministic
//!   jitter and a global retry budget that prevents retry storms.
//! * **Graceful degradation** ([`DegradationPolicy`]) — under memory
//!   pressure, preempt-and-requeue the lowest-priority sequence
//!   (recompute semantics, vLLM-style) instead of failing the batch.
//!
//! Every admitted request reaches exactly one [`TerminalState`] (the
//! conservation property tests check this). With every feature disabled
//! ([`ResilienceConfig::passthrough`]) the engine is how
//! [`crate::serving::simulate`] runs its iteration-level and
//! chunked-prefill policies.

mod engine;
mod metrics;

pub(crate) use engine::run_continuous;
pub use engine::simulate_resilient;
pub use metrics::ResilienceReport;

#[cfg(test)]
mod rng_tests {
    use super::SimRng;

    #[test]
    fn derived_streams_are_stable_and_independent() {
        let a1: Vec<u64> = {
            let mut r = SimRng::derive(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = SimRng::derive(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a1, a2, "same (seed, stream) must replay identically");
        let b: Vec<u64> = {
            let mut r = SimRng::derive(7, 4);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a1, b, "distinct streams must decorrelate");
    }

    #[test]
    fn exp_draws_are_positive_finite_for_finite_means() {
        let mut r = SimRng::new(11);
        for _ in 0..256 {
            let x = r.exp_s(30.0);
            assert!(x.is_finite() && x > 0.0);
        }
        assert!(SimRng::new(0).exp_s(f64::INFINITY).is_infinite());
    }
}

use crate::serving::ServingConfig;
use llmsim_hw::{Bytes, CpuSpec};
use std::fmt;

/// Deterministic xorshift-free SplitMix64 stream used for every random
/// draw the resilient engine makes. One seed → one byte-identical run.
///
/// Public so higher layers (the `llmsim-cluster` fault scheduler) can
/// reuse the exact same deterministic stream instead of growing a second
/// RNG convention. Use [`SimRng::derive`] to split independent substreams
/// (e.g. one per replica) from a single run seed: the substream for a
/// given index is the same no matter how many other substreams exist or
/// in which order they are drawn from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// An independent substream for `stream` derived from `seed`.
    ///
    /// The derivation hashes `(seed, stream)` through one SplitMix64
    /// round, so substreams for distinct indices are decorrelated and —
    /// crucial for the cluster fault scheduler — the substream for index
    /// `i` does not depend on any other index being instantiated.
    #[must_use]
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut base = SimRng::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        let derived = base.next_u64();
        SimRng::new(derived)
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential draw with mean `mean_s` seconds (inter-fault gaps).
    ///
    /// Returns infinity when `mean_s` is infinite (a disabled fault
    /// process never fires) and clamps the uniform draw away from zero so
    /// the result is always finite and positive for finite means.
    pub fn exp_s(&mut self, mean_s: f64) -> f64 {
        if mean_s.is_infinite() {
            return f64::INFINITY;
        }
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        -mean_s * u.ln()
    }
}

/// The injected-failure model: all probabilities are per scheduler
/// iteration (one prefill pass, one fused chunk, or one decode step), all
/// draws come from one seeded stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Seed for every stochastic draw the engine makes.
    pub seed: u64,
    /// Probability an iteration runs degraded (frequency dip, noisy
    /// neighbour, page-cache pressure).
    pub slowdown_prob: f64,
    /// Cost multiplier applied to a degraded iteration (≥ 1).
    pub slowdown_factor: f64,
    /// Probability an iteration suffers a backend fault (core/socket loss):
    /// the iteration's work is lost and the victims must retry.
    pub fault_prob: f64,
    /// Given a fault, probability it takes the whole batch down (socket
    /// loss) rather than a single victim sequence (core loss).
    pub whole_batch_fault_prob: f64,
    /// KV-cache memory budget; `None` disables the simulated-OOM path.
    /// Derive it from an `llmsim-hw` preset via [`FaultModel::kv_budget_for`].
    pub kv_budget: Option<Bytes>,
}

impl FaultModel {
    /// A fault-free model (the passthrough baseline).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        FaultModel {
            seed,
            slowdown_prob: 0.0,
            slowdown_factor: 1.0,
            fault_prob: 0.0,
            whole_batch_fault_prob: 0.0,
            kv_budget: None,
        }
    }

    /// A model injecting faults at `fault_prob` per iteration with mild
    /// transient slowdowns, the shape the `ext_resilience` experiment sweeps.
    #[must_use]
    pub fn with_rates(seed: u64, fault_prob: f64, slowdown_prob: f64) -> Self {
        FaultModel {
            seed,
            slowdown_prob,
            slowdown_factor: 3.0,
            fault_prob,
            whole_batch_fault_prob: 0.25,
            kv_budget: None,
        }
    }

    /// Sets the KV budget.
    #[must_use]
    pub fn with_kv_budget(mut self, budget: Bytes) -> Self {
        self.kv_budget = Some(budget);
        self
    }

    /// The KV-cache budget a `frac` share of `cpu`'s total memory allows —
    /// the bridge from the Table-I hardware presets to the OOM model.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `(0, 1]`.
    #[must_use]
    pub fn kv_budget_for(cpu: &CpuSpec, frac: f64) -> Bytes {
        assert!(
            frac > 0.0 && frac <= 1.0,
            "memory fraction must be in (0,1]"
        );
        Bytes::new((cpu.total_memory_capacity().get() as f64 * frac) as u64)
    }

    /// Validates probability ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range probabilities or a slowdown factor below 1.
    pub fn validate(&self) {
        for (name, p) in [
            ("slowdown_prob", self.slowdown_prob),
            ("fault_prob", self.fault_prob),
            ("whole_batch_fault_prob", self.whole_batch_fault_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be a probability, got {p}"
            );
        }
        assert!(self.slowdown_factor >= 1.0, "slowdown factor must be >= 1");
    }
}

/// Per-request service-level objectives; `None` disables a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloPolicy {
    /// Time-to-first-token budget, seconds from arrival.
    pub ttft_deadline_s: Option<f64>,
    /// End-to-end budget, seconds from arrival.
    pub e2e_deadline_s: Option<f64>,
}

impl SloPolicy {
    /// No deadlines (the passthrough baseline).
    #[must_use]
    pub fn unlimited() -> Self {
        SloPolicy::default()
    }

    /// An interactive-chat SLO: first token within `ttft_s`, full answer
    /// within `e2e_s`.
    #[must_use]
    pub fn interactive(ttft_s: f64, e2e_s: f64) -> Self {
        SloPolicy {
            ttft_deadline_s: Some(ttft_s),
            e2e_deadline_s: Some(e2e_s),
        }
    }
}

/// Bounded-queue admission control; `None` capacity admits everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionPolicy {
    /// Maximum requests waiting for a batch slot; arrivals beyond it are
    /// shed with [`TerminalState::Rejected`].
    pub queue_capacity: Option<usize>,
}

impl AdmissionPolicy {
    /// Unbounded queue (the passthrough baseline).
    #[must_use]
    pub fn unbounded() -> Self {
        AdmissionPolicy::default()
    }

    /// Queue bounded at `capacity`.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        AdmissionPolicy {
            queue_capacity: Some(capacity),
        }
    }
}

/// Retry with exponential backoff, deterministic jitter, and a global
/// retry budget (the standard anti-retry-storm trio).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts allowed per request beyond the first.
    pub max_retries: u32,
    /// First backoff, seconds.
    pub base_backoff_s: f64,
    /// Backoff growth per attempt (≥ 1).
    pub multiplier: f64,
    /// Uniform jitter: backoff is scaled by `1 + jitter_frac · U[0,1)`.
    pub jitter_frac: f64,
    /// Total retries allowed across the whole run; `None` is unlimited.
    /// A budget keeps correlated faults from amplifying offered load.
    pub retry_budget: Option<u64>,
}

impl RetryPolicy {
    /// No retries: every backend fault is terminal.
    #[must_use]
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff_s: 0.0,
            multiplier: 1.0,
            jitter_frac: 0.0,
            retry_budget: Some(0),
        }
    }

    /// A production-shaped default: 3 attempts, 50 ms base, doubling, 20%
    /// jitter, budget of one retry per two offered requests (set by caller).
    #[must_use]
    pub fn standard(retry_budget: Option<u64>) -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_s: 0.05,
            multiplier: 2.0,
            jitter_frac: 0.2,
            retry_budget,
        }
    }

    /// Whether a request that has already retried `retries` times may
    /// retry again, with `budget_left` retries left in the run's budget
    /// (`None` is unlimited).
    #[must_use]
    pub fn allows(&self, retries: u32, budget_left: Option<u64>) -> bool {
        retries < self.max_retries && budget_left.is_none_or(|b| b > 0)
    }

    /// Backoff before retry number `retry` (1 for the first), with `u` a
    /// uniform draw from `[0, 1)`:
    /// `base_backoff_s · multiplier^(retry−1) · (1 + jitter_frac · u)`.
    #[must_use]
    pub fn backoff_s(&self, retry: u32, u: f64) -> f64 {
        self.base_backoff_s * self.multiplier.powi(retry as i32 - 1) * (1.0 + self.jitter_frac * u)
    }
}

/// What to do when the KV budget is exhausted mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradationPolicy {
    /// Fail the most recently admitted sequence with a (retryable) OOM.
    FailNewest,
    /// Preempt the most recently admitted sequence and requeue it with
    /// recompute semantics (its KV is dropped and rebuilt on readmission) —
    /// graceful degradation: the batch survives, the victim is delayed.
    PreemptAndRequeue,
}

impl fmt::Display for DegradationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationPolicy::FailNewest => f.write_str("fail-newest"),
            DegradationPolicy::PreemptAndRequeue => f.write_str("preempt-requeue"),
        }
    }
}

/// Full configuration of the resilient serving engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Batching policy and cap (shared with the plain simulator).
    pub serving: ServingConfig,
    /// Injected-failure model.
    pub faults: FaultModel,
    /// Per-request deadlines.
    pub slo: SloPolicy,
    /// Queue bound.
    pub admission: AdmissionPolicy,
    /// Backoff/retry behaviour.
    pub retry: RetryPolicy,
    /// Memory-pressure response.
    pub degradation: DegradationPolicy,
}

impl ResilienceConfig {
    /// A configuration with every resilience feature disabled: the one
    /// [`crate::serving::simulate`] runs its iteration-level and
    /// chunked-prefill policies under.
    #[must_use]
    pub fn passthrough(serving: ServingConfig, seed: u64) -> Self {
        ResilienceConfig {
            serving,
            faults: FaultModel::none(seed),
            slo: SloPolicy::unlimited(),
            admission: AdmissionPolicy::unbounded(),
            retry: RetryPolicy::disabled(),
            degradation: DegradationPolicy::PreemptAndRequeue,
        }
    }
}

/// Why a request failed terminally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FailureKind {
    /// A core/socket-loss fault hit the request and its retries ran out
    /// (or retries were disabled / the global budget was spent).
    BackendFault,
    /// The KV budget could not fit the request even alone, or the
    /// degradation policy chose to fail it.
    OutOfMemory,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::BackendFault => f.write_str("backend fault"),
            FailureKind::OutOfMemory => f.write_str("out of memory"),
        }
    }
}

/// Where a deadline cancellation caught the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TimeoutPhase {
    /// Expired while still waiting for a batch slot.
    Queued,
    /// Missed its TTFT budget during/after prefill.
    Prefill,
    /// Missed its end-to-end budget while decoding.
    Decode,
}

impl fmt::Display for TimeoutPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeoutPhase::Queued => f.write_str("queued"),
            TimeoutPhase::Prefill => f.write_str("prefill"),
            TimeoutPhase::Decode => f.write_str("decode"),
        }
    }
}

/// The exactly-one terminal state every request reaches.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TerminalState {
    /// Finished every token without interference.
    Completed,
    /// Was preempted under memory pressure at least once, then finished.
    PreemptedThenCompleted,
    /// Shed at arrival by admission control.
    Rejected,
    /// Cancelled by an SLO deadline.
    TimedOut(TimeoutPhase),
    /// Gave up after faults/OOM exhausted its retries.
    Failed(FailureKind),
}

impl TerminalState {
    /// Did the request deliver its full generation?
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            TerminalState::Completed | TerminalState::PreemptedThenCompleted
        )
    }
}

impl fmt::Display for TerminalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TerminalState::Completed => f.write_str("completed"),
            TerminalState::PreemptedThenCompleted => f.write_str("preempted-then-completed"),
            TerminalState::Rejected => f.write_str("rejected"),
            TerminalState::TimedOut(p) => write!(f, "timed-out({p})"),
            TerminalState::Failed(k) => write!(f, "failed({k})"),
        }
    }
}

/// Per-request outcome under the resilient engine — the terminal-state
/// extension of [`crate::serving::RequestOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientOutcome {
    /// Request id.
    pub id: u64,
    /// How the request ended.
    pub state: TerminalState,
    /// Wait from arrival until the prefill that delivered the first token
    /// began (the definition [`crate::serving::RequestOutcome`] uses); for
    /// a request that never got a first token, arrival → terminal event.
    pub queue_delay_s: f64,
    /// Arrival → first token, if any token was ever delivered.
    pub ttft_s: Option<f64>,
    /// Arrival → terminal event (completion, shed, cancel, or failure).
    pub e2e_s: f64,
    /// Retry attempts consumed.
    pub retries: u32,
    /// Preemptions survived.
    pub preemptions: u32,
}

impl ResilientOutcome {
    /// The [`crate::SimError`] a non-successful outcome corresponds to, for
    /// callers that surface per-request failures as errors. `None` for
    /// successful outcomes.
    #[must_use]
    pub fn as_error(&self, cfg: &ResilienceConfig) -> Option<crate::SimError> {
        match self.state {
            TerminalState::Completed | TerminalState::PreemptedThenCompleted => None,
            TerminalState::Rejected => Some(crate::SimError::QueueFull {
                id: self.id,
                capacity: cfg.admission.queue_capacity.unwrap_or(usize::MAX),
            }),
            TerminalState::TimedOut(phase) => {
                let deadline_s = match phase {
                    TimeoutPhase::Queued | TimeoutPhase::Prefill => cfg
                        .slo
                        .ttft_deadline_s
                        .or(cfg.slo.e2e_deadline_s)
                        .unwrap_or(f64::INFINITY),
                    TimeoutPhase::Decode => cfg.slo.e2e_deadline_s.unwrap_or(f64::INFINITY),
                };
                Some(crate::SimError::DeadlineExceeded {
                    id: self.id,
                    deadline_s,
                    elapsed_s: self.e2e_s,
                })
            }
            TerminalState::Failed(kind) => Some(crate::SimError::BackendFault {
                id: self.id,
                kind: kind.to_string(),
                at_s: self.e2e_s,
            }),
        }
    }
}
