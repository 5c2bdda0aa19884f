//! Replica-scoped fault injection for the fleet simulator.
//!
//! This module lifts the single-node fault machinery of
//! `llmsim_core::resilience` to fleet scale: instead of per-iteration
//! coin flips inside one server, faults here are *first-class engine
//! events* with a replica, a timestamp, and a kind, drawn once up front
//! from the run seed. The schedule generator gives every replica its own
//! [`SimRng`] substream ([`SimRng::derive`]), so the faults replica `i`
//! sees are a function of `(seed, i)` alone — byte-identical across runs
//! and independent of fleet size or replica iteration order (proptested
//! in `tests/chaos.rs`).
//!
//! The recovery side reuses `core::resilience` vocabulary directly:
//! [`RetryPolicy`] governs re-routing of requests lost to crashes
//! (exponential backoff, deterministic jitter, fleet-wide budget), and
//! [`ChaosConfig::none`] is the passthrough configuration under which the
//! engine must reproduce the chaos-free fleet byte for byte.

use llmsim_core::resilience::{RetryPolicy, SimRng};
use llmsim_workload::ChaosScenario;

/// What an injected fault does to its replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The replica dies: every queued and in-service request on it is
    /// destroyed (resolved to a backend fault and re-routed under the
    /// retry policy) and the replica re-cold-starts, paying its
    /// hardware-derived warmup before serving again.
    Crash,
    /// Service-time multiplier window: requests *dispatched* while the
    /// window is open run `factor` times slower (noisy neighbour,
    /// frequency dip). In-service work is not retimed.
    Slowdown {
        /// Cost multiplier (≥ 1) applied at dispatch.
        factor: f64,
        /// Window length, seconds.
        duration_s: f64,
    },
    /// The replica becomes unreachable to the router for a window: no new
    /// work is admitted, but accepted work keeps running and completes.
    Partition {
        /// Window length, seconds.
        duration_s: f64,
    },
    /// Graceful maintenance drain: admission stops immediately, accepted
    /// work finishes, and the replica returns to service when the window
    /// closes. Nothing is lost.
    Drain {
        /// Window length, seconds.
        duration_s: f64,
    },
}

/// One scheduled fault: `kind` strikes `replica` at `at_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Fleet index of the victim replica.
    pub replica: usize,
    /// Injection time, seconds.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Stochastic fault-process parameters: a per-replica Poisson process
/// with exponential inter-fault gaps of mean [`FaultInjection::mtbf_s`],
/// each fault's kind drawn from the normalized weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjection {
    /// Per-replica mean time between faults, seconds. Infinite disables
    /// the process (no faults are ever drawn).
    pub mtbf_s: f64,
    /// Faults are drawn in `[0, horizon_s)`.
    pub horizon_s: f64,
    /// Relative weight of [`FaultKind::Crash`].
    pub crash_weight: f64,
    /// Relative weight of [`FaultKind::Slowdown`].
    pub slowdown_weight: f64,
    /// Relative weight of [`FaultKind::Partition`].
    pub partition_weight: f64,
    /// Relative weight of [`FaultKind::Drain`].
    pub drain_weight: f64,
    /// Slowdown multiplier (≥ 1).
    pub slowdown_factor: f64,
    /// Slowdown window, seconds.
    pub slowdown_s: f64,
    /// Partition window, seconds.
    pub partition_s: f64,
    /// Drain window, seconds.
    pub drain_s: f64,
}

impl FaultInjection {
    /// Crash-only injection at the given MTBF over `horizon_s`.
    #[must_use]
    pub fn crashes(mtbf_s: f64, horizon_s: f64) -> Self {
        FaultInjection {
            mtbf_s,
            horizon_s,
            crash_weight: 1.0,
            slowdown_weight: 0.0,
            partition_weight: 0.0,
            drain_weight: 0.0,
            slowdown_factor: 1.0,
            slowdown_s: 0.0,
            partition_s: 0.0,
            drain_s: 0.0,
        }
    }

    /// Validates weights and windows.
    ///
    /// # Panics
    ///
    /// Panics on negative weights, a non-positive weight sum, a slowdown
    /// factor below 1, or negative/non-finite windows.
    pub fn validate(&self) {
        for (name, w) in [
            ("crash_weight", self.crash_weight),
            ("slowdown_weight", self.slowdown_weight),
            ("partition_weight", self.partition_weight),
            ("drain_weight", self.drain_weight),
        ] {
            assert!(w >= 0.0, "{name} must be non-negative, got {w}");
        }
        assert!(
            self.crash_weight + self.slowdown_weight + self.partition_weight + self.drain_weight
                > 0.0,
            "at least one fault kind must carry weight"
        );
        assert!(self.slowdown_factor >= 1.0, "slowdown factor must be >= 1");
        for (name, d) in [
            ("slowdown_s", self.slowdown_s),
            ("partition_s", self.partition_s),
            ("drain_s", self.drain_s),
            ("horizon_s", self.horizon_s),
        ] {
            assert!(d >= 0.0 && d.is_finite(), "{name} must be finite and >= 0");
        }
        assert!(self.mtbf_s > 0.0, "mtbf must be positive");
    }

    /// Draws one replica's fault stream from its derived substream.
    fn events_for(&self, seed: u64, replica: usize) -> Vec<FaultEvent> {
        let mut rng = SimRng::derive(seed, replica as u64);
        let mut events = Vec::new();
        let mut t_s = 0.0;
        loop {
            t_s += rng.exp_s(self.mtbf_s);
            if t_s >= self.horizon_s {
                return events;
            }
            let total = self.crash_weight
                + self.slowdown_weight
                + self.partition_weight
                + self.drain_weight;
            let draw = rng.next_f64() * total;
            let kind = if draw < self.crash_weight {
                FaultKind::Crash
            } else if draw < self.crash_weight + self.slowdown_weight {
                FaultKind::Slowdown {
                    factor: self.slowdown_factor,
                    duration_s: self.slowdown_s,
                }
            } else if draw < self.crash_weight + self.slowdown_weight + self.partition_weight {
                FaultKind::Partition {
                    duration_s: self.partition_s,
                }
            } else {
                FaultKind::Drain {
                    duration_s: self.drain_s,
                }
            };
            events.push(FaultEvent {
                replica,
                at_s: t_s,
                kind,
            });
        }
    }
}

/// Hedged dispatch: if a request is still unresolved after a fraction of
/// its deadline, a duplicate attempt is routed to a second replica and
/// whichever attempt completes first wins (the loser is cancelled
/// deterministically and its partial work counted as wasted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Hedge fires at `after_frac` × the e2e SLO after arrival (or
    /// `after_frac` × the routing-time service estimate when the fleet
    /// has no SLO configured).
    pub after_frac: f64,
}

/// Full fleet-level chaos configuration: the seeded fault schedule plus
/// the recovery machinery (retry + hedging).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the fault schedule and every backoff-jitter draw.
    pub seed: u64,
    /// Stochastic fault process; `None` draws nothing.
    pub injection: Option<FaultInjection>,
    /// Explicit faults merged into the drawn schedule (tests, replayed
    /// incident timelines). May be empty.
    pub schedule: Vec<FaultEvent>,
    /// Re-routing policy for requests destroyed by crashes: exponential
    /// backoff with deterministic jitter under a fleet-wide budget.
    pub retry: RetryPolicy,
    /// Hedged dispatch; `None` disables it.
    pub hedge: Option<HedgePolicy>,
}

impl ChaosConfig {
    /// The passthrough configuration: no faults, no retries, no hedging.
    /// A fleet simulated under this must produce a report byte-identical
    /// to one with chaos disabled entirely (proptested).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        ChaosConfig {
            seed,
            injection: None,
            schedule: Vec::new(),
            retry: RetryPolicy::disabled(),
            hedge: None,
        }
    }

    /// Builds the chaos side of a [`ChaosScenario`] preset (the arrival
    /// side is built by the workload generators).
    #[must_use]
    pub fn from_scenario(seed: u64, s: &ChaosScenario) -> Self {
        let injection = s.mtbf_s.is_finite().then_some(FaultInjection {
            mtbf_s: s.mtbf_s,
            horizon_s: s.fault_horizon_s,
            crash_weight: s.crash_weight,
            slowdown_weight: s.slowdown_weight,
            partition_weight: s.partition_weight,
            drain_weight: s.drain_weight,
            slowdown_factor: s.slowdown_factor,
            slowdown_s: s.slowdown_s,
            partition_s: s.partition_s,
            drain_s: s.drain_s,
        });
        ChaosConfig {
            seed,
            injection,
            schedule: Vec::new(),
            retry: RetryPolicy {
                max_retries: s.max_retries,
                base_backoff_s: 0.05,
                multiplier: 2.0,
                jitter_frac: 0.2,
                retry_budget: s.retry_budget,
            },
            hedge: s
                .hedge_after_frac
                .map(|after_frac| HedgePolicy { after_frac }),
        }
    }

    /// Sets the explicit fault schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Vec<FaultEvent>) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables hedged dispatch.
    #[must_use]
    pub fn with_hedge(mut self, after_frac: f64) -> Self {
        self.hedge = Some(HedgePolicy { after_frac });
        self
    }

    /// The complete fault schedule for an `n_replicas` fleet: the drawn
    /// per-replica streams merged with the explicit schedule, ordered by
    /// `(time, replica)`. Each replica's stream comes from its own
    /// derived substream, so the result for replica `i` is unchanged by
    /// adding or removing other replicas.
    ///
    /// # Panics
    ///
    /// Panics if the injection parameters fail validation or an explicit
    /// fault names a replica outside the fleet.
    #[must_use]
    pub fn schedule_for(&self, n_replicas: usize) -> Vec<FaultEvent> {
        let mut events: Vec<FaultEvent> = Vec::new();
        if let Some(inj) = &self.injection {
            inj.validate();
            for replica in 0..n_replicas {
                events.extend(inj.events_for(self.seed, replica));
            }
        }
        for f in &self.schedule {
            assert!(
                f.replica < n_replicas,
                "explicit fault names replica {} but the fleet has {}",
                f.replica,
                n_replicas
            );
            events.push(*f);
        }
        // Stable sort on a total order: per-replica times are strictly
        // increasing, so (time, replica) ties can only involve explicit
        // entries, which keep their input order.
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.replica.cmp(&b.replica)));
        events
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact float assertions are deliberate: determinism is bit-level
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seed_deterministic() {
        let cfg = ChaosConfig::none(42)
            .with_retry(RetryPolicy::standard(Some(8)))
            .with_hedge(0.25);
        assert!(cfg.schedule_for(4).is_empty(), "no injection draws nothing");

        let chaotic = ChaosConfig {
            injection: Some(FaultInjection::crashes(20.0, 200.0)),
            ..ChaosConfig::none(42)
        };
        let a = chaotic.schedule_for(4);
        let b = chaotic.schedule_for(4);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s), "sorted");
    }

    #[test]
    fn per_replica_streams_are_independent_of_fleet_size() {
        let cfg = ChaosConfig {
            injection: Some(FaultInjection::crashes(15.0, 300.0)),
            ..ChaosConfig::none(7)
        };
        let small: Vec<FaultEvent> = cfg
            .schedule_for(2)
            .into_iter()
            .filter(|f| f.replica == 1)
            .collect();
        let large: Vec<FaultEvent> = cfg
            .schedule_for(6)
            .into_iter()
            .filter(|f| f.replica == 1)
            .collect();
        assert!(!small.is_empty());
        assert_eq!(
            small, large,
            "replica 1's faults must not depend on fleet size"
        );
    }

    #[test]
    fn scenario_conversion_maps_every_axis() {
        let s = llmsim_workload::ChaosScenario::flaky_network();
        let cfg = ChaosConfig::from_scenario(9, &s);
        let inj = cfg.injection.expect("finite MTBF enables injection");
        assert_eq!(inj.mtbf_s, s.mtbf_s);
        assert_eq!(inj.partition_s, s.partition_s);
        assert_eq!(cfg.retry.max_retries, s.max_retries);
        assert_eq!(cfg.retry.retry_budget, s.retry_budget);
        assert_eq!(
            cfg.hedge.map(|h| h.after_frac),
            s.hedge_after_frac,
            "hedging carries over"
        );
        let base = ChaosConfig::from_scenario(9, &llmsim_workload::ChaosScenario::fault_free());
        assert!(base.injection.is_none(), "infinite MTBF disables injection");
    }

    #[test]
    #[should_panic(expected = "at least one fault kind")]
    fn zero_weight_injection_panics() {
        let mut inj = FaultInjection::crashes(10.0, 100.0);
        inj.crash_weight = 0.0;
        let cfg = ChaosConfig {
            injection: Some(inj),
            ..ChaosConfig::none(1)
        };
        let _ = cfg.schedule_for(1);
    }

    #[test]
    fn kind_mix_follows_weights() {
        let inj = FaultInjection {
            mtbf_s: 5.0,
            horizon_s: 2000.0,
            crash_weight: 0.5,
            slowdown_weight: 0.5,
            partition_weight: 0.0,
            drain_weight: 0.0,
            slowdown_factor: 2.0,
            slowdown_s: 3.0,
            partition_s: 0.0,
            drain_s: 0.0,
        };
        let cfg = ChaosConfig {
            injection: Some(inj),
            ..ChaosConfig::none(3)
        };
        let events = cfg.schedule_for(1);
        assert!(events.len() > 100, "dense process over a long horizon");
        let crashes = events.iter().filter(|f| f.kind == FaultKind::Crash).count();
        let frac = crashes as f64 / events.len() as f64;
        assert!(
            (0.35..0.65).contains(&frac),
            "crash fraction {frac} should be near the 0.5 weight"
        );
        assert!(
            !events.iter().any(|f| matches!(
                f.kind,
                FaultKind::Partition { .. } | FaultKind::Drain { .. }
            )),
            "zero-weight kinds never drawn"
        );
    }
}
