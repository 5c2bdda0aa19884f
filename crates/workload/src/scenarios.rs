//! Serving scenarios from §II-C of the paper: different use cases
//! prioritize different metrics.

use std::fmt;

/// The metric a use case optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimaryMetric {
    /// Time to first token.
    Ttft,
    /// Time per output token.
    Tpot,
    /// End-to-end latency.
    E2eLatency,
    /// Tokens generated per second.
    Throughput,
}

impl fmt::Display for PrimaryMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrimaryMetric::Ttft => "TTFT",
            PrimaryMetric::Tpot => "TPOT",
            PrimaryMetric::E2eLatency => "E2E latency",
            PrimaryMetric::Throughput => "throughput",
        };
        f.write_str(s)
    }
}

/// A named serving scenario with its workload shape and priority metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name.
    pub name: String,
    /// What matters most (§II-C).
    pub metric: PrimaryMetric,
    /// Typical prompt length.
    pub prompt_len: u64,
    /// Typical generation length.
    pub gen_len: u64,
    /// Typical batch size.
    pub batch: u64,
}

impl Scenario {
    /// Real-time chatbot: users expect a fast first token (§II-C).
    #[must_use]
    pub fn chatbot() -> Self {
        Scenario {
            name: "chatbot".into(),
            metric: PrimaryMetric::Ttft,
            prompt_len: 256,
            gen_len: 64,
            batch: 1,
        }
    }

    /// Live translation: a slight startup delay is fine, but TPOT must keep
    /// pace with speech (§II-C).
    #[must_use]
    pub fn live_translation() -> Self {
        Scenario {
            name: "live-translation".into(),
            metric: PrimaryMetric::Tpot,
            prompt_len: 64,
            gen_len: 64,
            batch: 4,
        }
    }

    /// Batch sentiment analysis: finish the whole job as fast as possible;
    /// system throughput wins (§II-C).
    #[must_use]
    pub fn batch_analytics() -> Self {
        Scenario {
            name: "batch-analytics".into(),
            metric: PrimaryMetric::Throughput,
            prompt_len: 128,
            gen_len: 32,
            batch: 32,
        }
    }

    /// All three §II-C scenarios.
    #[must_use]
    pub fn all() -> Vec<Scenario> {
        vec![
            Self::chatbot(),
            Self::live_translation(),
            Self::batch_analytics(),
        ]
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (optimizes {}, b={} in={} out={})",
            self.name, self.metric, self.batch, self.prompt_len, self.gen_len
        )
    }
}

/// A named stress condition for the resilience experiments: arrival
/// shape, fault rates, and SLO targets as plain numbers (the core crate
/// turns them into its fault/SLO policies).
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceScenario {
    /// Scenario name.
    pub name: String,
    /// Mean arrival rate, requests per second.
    pub arrival_rate_per_sec: f64,
    /// Burst rate multiplier (1 = plain Poisson arrivals).
    pub burst_multiplier: f64,
    /// Mean calm/burst phase duration, seconds (ignored when
    /// `burst_multiplier` is 1).
    pub mean_phase_s: f64,
    /// Per-iteration backend fault probability.
    pub fault_prob: f64,
    /// Per-iteration transient slowdown probability.
    pub slowdown_prob: f64,
    /// TTFT budget, seconds (`None` = no deadline).
    pub ttft_slo_s: Option<f64>,
    /// End-to-end budget, seconds (`None` = no deadline).
    pub e2e_slo_s: Option<f64>,
    /// Admission queue bound (`None` = admit everything).
    pub queue_capacity: Option<usize>,
}

impl ResilienceScenario {
    /// A healthy fleet serving steady traffic: no faults, no deadlines —
    /// the baseline every other scenario is compared against.
    #[must_use]
    pub fn steady_healthy() -> Self {
        ResilienceScenario {
            name: "steady-healthy".into(),
            arrival_rate_per_sec: 4.0,
            burst_multiplier: 1.0,
            mean_phase_s: 1.0,
            fault_prob: 0.0,
            slowdown_prob: 0.0,
            ttft_slo_s: None,
            e2e_slo_s: None,
            queue_capacity: None,
        }
    }

    /// Degraded hardware under steady traffic: iteration-level faults and
    /// transient slowdowns, interactive SLOs enforced.
    #[must_use]
    pub fn degraded_node() -> Self {
        ResilienceScenario {
            name: "degraded-node".into(),
            arrival_rate_per_sec: 4.0,
            burst_multiplier: 1.0,
            mean_phase_s: 1.0,
            fault_prob: 0.02,
            slowdown_prob: 0.05,
            ttft_slo_s: Some(2.0),
            e2e_slo_s: Some(20.0),
            queue_capacity: Some(32),
        }
    }

    /// A traffic spike against healthy hardware: bursty arrivals that
    /// saturate the bounded queue and force load shedding.
    #[must_use]
    pub fn burst_overload() -> Self {
        ResilienceScenario {
            name: "burst-overload".into(),
            arrival_rate_per_sec: 6.0,
            burst_multiplier: 8.0,
            mean_phase_s: 2.0,
            fault_prob: 0.0,
            slowdown_prob: 0.0,
            ttft_slo_s: Some(2.0),
            e2e_slo_s: Some(20.0),
            queue_capacity: Some(16),
        }
    }

    /// Everything at once: bursty traffic on degraded hardware — the
    /// worst-case condition the resilience layer is designed for.
    #[must_use]
    pub fn burst_on_degraded() -> Self {
        ResilienceScenario {
            name: "burst-on-degraded".into(),
            arrival_rate_per_sec: 6.0,
            burst_multiplier: 8.0,
            mean_phase_s: 2.0,
            fault_prob: 0.02,
            slowdown_prob: 0.05,
            ttft_slo_s: Some(2.0),
            e2e_slo_s: Some(20.0),
            queue_capacity: Some(16),
        }
    }

    /// All resilience stress scenarios, mildest first.
    #[must_use]
    pub fn all() -> Vec<ResilienceScenario> {
        vec![
            Self::steady_healthy(),
            Self::degraded_node(),
            Self::burst_overload(),
            Self::burst_on_degraded(),
        ]
    }
}

impl fmt::Display for ResilienceScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}/s x{} bursts, fault {:.1}%, slowdown {:.1}%)",
            self.name,
            self.arrival_rate_per_sec,
            self.burst_multiplier,
            self.fault_prob * 100.0,
            self.slowdown_prob * 100.0
        )
    }
}

/// A named chaos condition for the fleet-level fault experiments: MMPP
/// arrival shape plus a replica-scoped fault schedule and the recovery
/// machinery (retry budget, hedging) as plain numbers. `llmsim-cluster`
/// turns these into its `ChaosConfig`; keeping the preset here means the
/// `ext_chaos` experiment and the cluster tests share one canonical
/// configuration instead of each hand-rolling rates.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Scenario name.
    pub name: String,
    /// Mean arrival rate, requests per second.
    pub arrival_rate_per_sec: f64,
    /// Burst rate multiplier (1 = plain Poisson arrivals).
    pub burst_multiplier: f64,
    /// Mean calm/burst phase duration, seconds.
    pub mean_phase_s: f64,
    /// Per-replica mean time between faults, seconds (infinite = no
    /// faults are ever injected).
    pub mtbf_s: f64,
    /// Fault schedule horizon, seconds (faults are drawn in `[0, horizon)`).
    pub fault_horizon_s: f64,
    /// Relative weight of crash faults (lose in-flight work, re-cold-start).
    pub crash_weight: f64,
    /// Relative weight of transient slowdown faults.
    pub slowdown_weight: f64,
    /// Relative weight of router-partition faults.
    pub partition_weight: f64,
    /// Relative weight of maintenance-drain faults.
    pub drain_weight: f64,
    /// Service-time multiplier during a slowdown window (≥ 1).
    pub slowdown_factor: f64,
    /// Slowdown window duration, seconds.
    pub slowdown_s: f64,
    /// Partition window duration, seconds.
    pub partition_s: f64,
    /// Drain window duration, seconds.
    pub drain_s: f64,
    /// Retry attempts allowed per request beyond the first.
    pub max_retries: u32,
    /// Fleet-wide retry budget (`None` = unlimited).
    pub retry_budget: Option<u64>,
    /// Hedge a second dispatch after this fraction of the e2e SLO
    /// (`None` disables hedging).
    pub hedge_after_frac: Option<f64>,
    /// TTFT budget for goodput accounting, seconds.
    pub ttft_slo_s: f64,
    /// End-to-end budget for goodput accounting, seconds.
    pub e2e_slo_s: f64,
}

impl ChaosScenario {
    /// The no-fault baseline: same arrivals and SLOs as the chaos runs,
    /// but an infinite MTBF and no recovery machinery. A fleet under this
    /// scenario must behave byte-identically to one with chaos disabled.
    #[must_use]
    pub fn fault_free() -> Self {
        ChaosScenario {
            name: "fault-free".into(),
            arrival_rate_per_sec: 4.0,
            burst_multiplier: 6.0,
            mean_phase_s: 4.0,
            mtbf_s: f64::INFINITY,
            fault_horizon_s: 120.0,
            crash_weight: 1.0,
            slowdown_weight: 0.0,
            partition_weight: 0.0,
            drain_weight: 0.0,
            slowdown_factor: 1.0,
            slowdown_s: 0.0,
            partition_s: 0.0,
            drain_s: 0.0,
            max_retries: 0,
            retry_budget: Some(0),
            hedge_after_frac: None,
            ttft_slo_s: 8.0,
            e2e_slo_s: 60.0,
        }
    }

    /// Crash-dominated chaos: replicas die and re-cold-start, in-flight
    /// work is lost, retries + hedging are the only defense.
    #[must_use]
    pub fn crashy_fleet() -> Self {
        ChaosScenario {
            name: "crashy-fleet".into(),
            mtbf_s: 40.0,
            crash_weight: 1.0,
            max_retries: 3,
            retry_budget: Some(64),
            hedge_after_frac: Some(0.25),
            ..Self::fault_free()
        }
    }

    /// Network-shaped chaos: partitions hide replicas from the router and
    /// slowdown windows stretch service times; crashes are rare.
    #[must_use]
    pub fn flaky_network() -> Self {
        ChaosScenario {
            name: "flaky-network".into(),
            mtbf_s: 25.0,
            crash_weight: 0.2,
            slowdown_weight: 0.4,
            partition_weight: 0.4,
            slowdown_factor: 3.0,
            slowdown_s: 6.0,
            partition_s: 8.0,
            max_retries: 3,
            retry_budget: Some(64),
            hedge_after_frac: Some(0.25),
            ..Self::fault_free()
        }
    }

    /// Rolling maintenance: drains cycle through the fleet, stopping
    /// admission but finishing accepted work; nothing is ever lost.
    #[must_use]
    pub fn rolling_maintenance() -> Self {
        ChaosScenario {
            name: "rolling-maintenance".into(),
            mtbf_s: 30.0,
            crash_weight: 0.0,
            drain_weight: 1.0,
            drain_s: 10.0,
            max_retries: 1,
            retry_budget: Some(16),
            ..Self::fault_free()
        }
    }

    /// All chaos scenarios, mildest first.
    #[must_use]
    pub fn all() -> Vec<ChaosScenario> {
        vec![
            Self::fault_free(),
            Self::rolling_maintenance(),
            Self::flaky_network(),
            Self::crashy_fleet(),
        ]
    }
}

impl fmt::Display for ChaosScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}/s x{} bursts, MTBF {}s, retries {}, hedge {})",
            self.name,
            self.arrival_rate_per_sec,
            self.burst_multiplier,
            self.mtbf_s,
            self.max_retries,
            self.hedge_after_frac
                .map_or("off".into(), |h| format!("{h:.2}")),
        )
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact float assertions are deliberate: determinism is bit-level
mod tests {
    use super::*;

    #[test]
    fn scenarios_cover_distinct_metrics() {
        let all = Scenario::all();
        assert_eq!(all.len(), 3);
        let metrics: std::collections::HashSet<_> = all.iter().map(|s| s.metric).collect();
        assert_eq!(metrics.len(), 3);
    }

    #[test]
    fn chatbot_is_interactive() {
        let c = Scenario::chatbot();
        assert_eq!(c.metric, PrimaryMetric::Ttft);
        assert_eq!(c.batch, 1);
    }

    #[test]
    fn chaos_scenarios_share_arrivals_and_slos_with_the_baseline() {
        let all = ChaosScenario::all();
        assert_eq!(all.len(), 4);
        let names: std::collections::HashSet<_> = all.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), all.len(), "names must be unique");
        let base = ChaosScenario::fault_free();
        assert!(base.mtbf_s.is_infinite(), "baseline injects nothing");
        for s in &all {
            // The sweep varies the fault axis only: same traffic, same SLOs.
            assert_eq!(
                s.arrival_rate_per_sec, base.arrival_rate_per_sec,
                "{}",
                s.name
            );
            assert_eq!(s.burst_multiplier, base.burst_multiplier, "{}", s.name);
            assert_eq!(s.ttft_slo_s, base.ttft_slo_s, "{}", s.name);
            assert_eq!(s.e2e_slo_s, base.e2e_slo_s, "{}", s.name);
            let wsum = s.crash_weight + s.slowdown_weight + s.partition_weight + s.drain_weight;
            assert!(wsum > 0.0, "{}: some fault kind must carry weight", s.name);
            assert!(s.slowdown_factor >= 1.0, "{}", s.name);
        }
        for s in &all[1..] {
            assert!(
                s.mtbf_s.is_finite(),
                "{}: stressed scenarios inject",
                s.name
            );
            assert!(s.to_string().contains(&s.name));
        }
    }

    #[test]
    fn resilience_scenarios_escalate_from_a_clean_baseline() {
        let all = ResilienceScenario::all();
        assert_eq!(all.len(), 4);
        let names: std::collections::HashSet<_> = all.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), all.len(), "names must be unique");
        let baseline = &all[0];
        assert_eq!(baseline.fault_prob, 0.0);
        assert_eq!(baseline.queue_capacity, None);
        // Every stressed scenario enforces SLOs and perturbs at least one axis.
        for s in &all[1..] {
            assert!(
                s.ttft_slo_s.is_some() && s.e2e_slo_s.is_some(),
                "{}",
                s.name
            );
            assert!(s.fault_prob > 0.0 || s.burst_multiplier > 1.0, "{}", s.name);
        }
        let worst = ResilienceScenario::burst_on_degraded();
        assert!(worst.fault_prob > 0.0 && worst.burst_multiplier > 1.0);
        assert!(worst.to_string().contains("burst-on-degraded"));
    }
}
