//! Fleet-level outcomes and the goodput-vs-throughput distinction.
//!
//! Raw throughput (tokens/s over the makespan) treats every completed
//! token equally. Goodput only counts tokens from requests that met their
//! latency SLO — the metric an operator actually bills against. Two
//! routers can complete the same requests with identical throughput and
//! wildly different goodput; that gap is exactly what the `ext_cluster`
//! study surfaces between round-robin and cost-model-aware routing.

use llmsim_report::{percentile, table::Table};

/// Latency targets a request must meet to count toward goodput.
#[derive(Debug, Clone, Copy)]
pub struct SloTargets {
    /// Max arrival-to-first-token latency.
    pub ttft_s: f64,
    /// Max arrival-to-last-token latency.
    pub e2e_s: f64,
}

impl SloTargets {
    /// Whether a completed request with these latencies meets the SLO.
    #[must_use]
    pub fn met(&self, ttft_s: f64, e2e_s: f64) -> bool {
        ttft_s <= self.ttft_s && e2e_s <= self.e2e_s
    }
}

/// Terminal state of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeState {
    /// Served to completion.
    Completed,
    /// Turned away at routing time: every routable replica was at
    /// capacity.
    Rejected,
    /// Lost to replica crashes and not recovered: every retry attempt
    /// (if any were allowed) was exhausted or the fleet-wide retry
    /// budget ran dry.
    Failed,
}

/// Per-request record in the fleet report.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Workload index.
    pub id: usize,
    /// Index into the fleet's model list.
    pub model: usize,
    /// Replica that served it (`None` when rejected or failed).
    pub replica: Option<usize>,
    /// Completed, rejected, or failed.
    pub state: OutcomeState,
    /// Arrival-to-dispatch wait (queue + warmup), completed requests only.
    pub queue_delay_s: Option<f64>,
    /// Arrival-to-first-token latency, completed requests only.
    pub ttft_s: Option<f64>,
    /// Arrival-to-last-token latency, completed requests only.
    pub e2e_s: Option<f64>,
    /// Tokens generated (0 when rejected or failed).
    pub tokens: u64,
    /// Crash-recovery re-routes this request went through.
    pub retries: u32,
    /// Whether a hedged duplicate was dispatched for this request.
    pub hedged: bool,
}

impl ClusterOutcome {
    /// Whether this outcome counts toward goodput under `slo`: the request
    /// must have completed *and* met both latency targets. Rejected or
    /// otherwise unserved outcomes (which carry no latencies) are always
    /// SLO misses — never a panic.
    #[must_use]
    pub fn meets_slo(&self, slo: &SloTargets) -> bool {
        self.state == OutcomeState::Completed
            && match (self.ttft_s, self.e2e_s) {
                (Some(ttft), Some(e2e)) => slo.met(ttft, e2e),
                _ => false,
            }
    }
}

/// Per-replica utilization summary.
#[derive(Debug, Clone)]
pub struct ReplicaStats {
    /// Backend name.
    pub name: String,
    /// Requests dispatched into service.
    pub served: u64,
    /// Accumulated slot-seconds of service.
    pub busy_slot_s: f64,
    /// Busy slot-seconds ÷ (makespan × batch slots).
    pub utilization: f64,
    /// Cold starts paid.
    pub warmups: u64,
    /// Injected crashes suffered.
    pub crashes: u64,
    /// Peak fraction of the KV block pool held by in-flight sequences
    /// (0 when paged KV is off).
    pub kv_peak_occupancy: f64,
    /// Time-weighted mean fraction of the KV block pool held by in-flight
    /// sequences over the makespan (0 when paged KV is off).
    pub kv_mean_occupancy: f64,
    /// Pipeline-bubble seconds: idle time this replica spent as a
    /// downstream pipeline stage waiting for upstream handoffs (0 when
    /// pipeline parallelism is off or the replica is a head/standalone).
    pub pipeline_bubble_s: f64,
}

/// The result of one fleet simulation.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Routing policy name.
    pub router: String,
    /// Per-request terminal records, in workload order.
    pub outcomes: Vec<ClusterOutcome>,
    /// First arrival to last completion.
    pub makespan_s: f64,
    /// Tokens generated across all completed requests. Each request's
    /// tokens are counted exactly once — from its winning attempt — no
    /// matter how many crash retries or hedged duplicates ran.
    pub generated_tokens: u64,
    /// Tokens generated by requests that met the SLO.
    pub goodput_tokens: u64,
    /// Tokens of duplicate or abandoned work: partial generation
    /// destroyed by crashes plus partial generation of cancelled hedge
    /// losers. Never double-counted into `generated_tokens`.
    pub wasted_tokens: u64,
    /// Crash-recovery re-routes across the run.
    pub retries: u64,
    /// Hedged duplicates dispatched across the run.
    pub hedges: u64,
    /// Injected crashes across the fleet.
    pub crashes: u64,
    /// Prompt tokens served from the prefix cache instead of being
    /// prefilled (0 when paged KV is off). Counted once per completed
    /// request, from its winning attempt.
    pub prefix_hit_tokens: u64,
    /// Sequences preempted off a batch for KV blocks and requeued (0 when
    /// paged KV is off). Their partial generation is in `wasted_tokens`.
    pub preemptions: u64,
    /// The SLO goodput was judged against, if any.
    pub slo: Option<SloTargets>,
    /// Per-replica summaries, in fleet order.
    pub replicas: Vec<ReplicaStats>,
    /// Autoscaler activations.
    pub scale_ups: u64,
    /// Autoscaler park operations.
    pub scale_downs: u64,
    /// Discrete events the engine processed to produce this report — the
    /// denominator of the engine's events/sec rate and the first number
    /// to check when a routing change makes a run mysteriously slower.
    pub events_processed: u64,
    /// Highest simultaneous in-flight attempt count (queued + in-service,
    /// summed over the fleet) at any instant of the run. For a merged
    /// sharded report this is the sum of per-shard peaks: an upper bound,
    /// since independent cells need not peak at the same sim-time.
    pub peak_in_flight: u64,
    /// Pipeline-parallel stage chains configured (0 when the feature is
    /// off — and the rendered report is then byte-identical to one that
    /// predates pipeline parallelism).
    pub pipeline_groups: u64,
    /// Inter-stage activation handoffs performed across the run.
    pub pipeline_handoffs: u64,
}

impl FleetReport {
    /// Completed-request count.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state == OutcomeState::Completed)
            .count()
    }

    /// Rejected-request count (turned away at routing time).
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state == OutcomeState::Rejected)
            .count()
    }

    /// Failed-request count (lost to crashes, retries exhausted).
    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.state == OutcomeState::Failed)
            .count()
    }

    /// Fraction of requests rejected.
    #[must_use]
    pub fn reject_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.rejected() as f64 / self.outcomes.len() as f64
        }
    }

    /// Tokens per second over the makespan, counting every completion.
    #[must_use]
    pub fn throughput_tok_s(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.generated_tokens as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// Tokens per second over the makespan, counting only SLO-meeting
    /// requests. Equal to throughput when no SLO is configured.
    #[must_use]
    pub fn goodput_tok_s(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.goodput_tokens as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// Fraction of *completed* requests that met the SLO (1.0 when no SLO
    /// is configured).
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        let Some(slo) = self.slo else { return 1.0 };
        let completed: Vec<&ClusterOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.state == OutcomeState::Completed)
            .collect();
        if completed.is_empty() {
            return 0.0;
        }
        let met = completed.iter().filter(|o| o.meets_slo(&slo)).count();
        met as f64 / completed.len() as f64
    }

    /// TTFT percentile over completed requests (NaN when none completed).
    #[must_use]
    pub fn ttft_percentile(&self, p: f64) -> f64 {
        percentile(&self.collect(|o| o.ttft_s), p)
    }

    /// End-to-end latency percentile over completed requests.
    #[must_use]
    pub fn e2e_percentile(&self, p: f64) -> f64 {
        percentile(&self.collect(|o| o.e2e_s), p)
    }

    fn collect<F: Fn(&ClusterOutcome) -> Option<f64>>(&self, f: F) -> Vec<f64> {
        self.outcomes.iter().filter_map(f).collect()
    }

    /// Total pipeline-bubble seconds across the fleet (0 when pipeline
    /// parallelism is off).
    #[must_use]
    pub fn pipeline_bubble_s(&self) -> f64 {
        // lint:ordered: replicas is a Vec kept in registration order by the engine
        self.replicas.iter().map(|r| r.pipeline_bubble_s).sum()
    }

    /// One-row-per-replica summary table plus a fleet totals line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "replica".into(),
            "served".into(),
            "busy s".into(),
            "util".into(),
            "warmups".into(),
            "crashes".into(),
            "kv peak".into(),
            "kv mean".into(),
        ]);
        for (i, r) in self.replicas.iter().enumerate() {
            t.row(vec![
                format!("[{i}] {}", r.name),
                r.served.to_string(),
                format!("{:.1}", r.busy_slot_s),
                format!("{:.1}%", r.utilization * 100.0),
                r.warmups.to_string(),
                r.crashes.to_string(),
                format!("{:.1}%", r.kv_peak_occupancy * 100.0),
                format!("{:.1}%", r.kv_mean_occupancy * 100.0),
            ]);
        }
        // Latency percentiles are NaN over an empty sample (e.g. every
        // request rejected); print a dash rather than leaking "NaN" into
        // operator-facing reports. Finite values format exactly as the
        // historical `{:.2}`, so populated reports are byte-identical.
        let p = |v: f64| {
            if v.is_finite() {
                format!("{v:.2}")
            } else {
                "-".into()
            }
        };
        // Appended only when the feature is on, so pipeline-off reports
        // stay byte-identical to pre-pipeline ones.
        let pipeline = if self.pipeline_groups > 0 {
            format!(
                " pipeline_groups={} pipeline_handoffs={} pipeline_bubble={:.1}s",
                self.pipeline_groups,
                self.pipeline_handoffs,
                self.pipeline_bubble_s()
            )
        } else {
            String::new()
        };
        format!(
            "router={} completed={} rejected={} failed={} makespan={:.1}s\n\
             throughput={:.1} tok/s goodput={:.1} tok/s wasted={} tok slo_attainment={:.1}% \
             p50/p99 ttft={}/{}s e2e={}/{}s\n\
             crashes={} retries={} hedges={} preemptions={} prefix_hit_tokens={} \
             scale_ups={} scale_downs={} events={} peak_in_flight={}{}\n{}",
            self.router,
            self.completed(),
            self.rejected(),
            self.failed(),
            self.makespan_s,
            self.throughput_tok_s(),
            self.goodput_tok_s(),
            self.wasted_tokens,
            self.slo_attainment() * 100.0,
            p(self.ttft_percentile(50.0)),
            p(self.ttft_percentile(99.0)),
            p(self.e2e_percentile(50.0)),
            p(self.e2e_percentile(99.0)),
            self.crashes,
            self.retries,
            self.hedges,
            self.preemptions,
            self.prefix_hit_tokens,
            self.scale_ups,
            self.scale_downs,
            self.events_processed,
            self.peak_in_flight,
            pipeline,
            t.render()
        )
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact float assertions are deliberate: determinism is bit-level
mod tests {
    use super::*;

    fn outcome(id: usize, ttft: f64, e2e: f64, tokens: u64) -> ClusterOutcome {
        ClusterOutcome {
            id,
            model: 0,
            replica: Some(0),
            state: OutcomeState::Completed,
            queue_delay_s: Some(0.0),
            ttft_s: Some(ttft),
            e2e_s: Some(e2e),
            tokens,
            retries: 0,
            hedged: false,
        }
    }

    fn rejected_outcome(id: usize) -> ClusterOutcome {
        ClusterOutcome {
            id,
            model: 0,
            replica: None,
            state: OutcomeState::Rejected,
            queue_delay_s: None,
            ttft_s: None,
            e2e_s: None,
            tokens: 0,
            retries: 0,
            hedged: false,
        }
    }

    fn failed_outcome(id: usize, retries: u32) -> ClusterOutcome {
        ClusterOutcome {
            state: OutcomeState::Failed,
            retries,
            ..rejected_outcome(id)
        }
    }

    fn report(outcomes: Vec<ClusterOutcome>, slo: Option<SloTargets>) -> FleetReport {
        let generated: u64 = outcomes.iter().map(|o| o.tokens).sum();
        let goodput = outcomes
            .iter()
            .filter(|o| match &slo {
                Some(s) => o.meets_slo(s),
                None => o.state == OutcomeState::Completed,
            })
            .map(|o| o.tokens)
            .sum();
        FleetReport {
            router: "test".into(),
            outcomes,
            makespan_s: 10.0,
            generated_tokens: generated,
            goodput_tokens: goodput,
            wasted_tokens: 0,
            retries: 0,
            hedges: 0,
            crashes: 0,
            prefix_hit_tokens: 0,
            preemptions: 0,
            slo,
            replicas: vec![ReplicaStats {
                name: "r0".into(),
                served: 2,
                busy_slot_s: 5.0,
                utilization: 0.5,
                warmups: 0,
                crashes: 0,
                kv_peak_occupancy: 0.0,
                kv_mean_occupancy: 0.0,
                pipeline_bubble_s: 0.0,
            }],
            scale_ups: 0,
            scale_downs: 0,
            events_processed: 0,
            peak_in_flight: 0,
            pipeline_groups: 0,
            pipeline_handoffs: 0,
        }
    }

    #[test]
    fn goodput_counts_only_slo_meeting_tokens() {
        let slo = SloTargets {
            ttft_s: 1.0,
            e2e_s: 5.0,
        };
        let r = report(
            vec![outcome(0, 0.5, 2.0, 100), outcome(1, 3.0, 8.0, 100)],
            Some(slo),
        );
        assert_eq!(r.generated_tokens, 200);
        assert_eq!(r.goodput_tokens, 100);
        assert!((r.throughput_tok_s() - 20.0).abs() < 1e-12);
        assert!((r.goodput_tok_s() - 10.0).abs() < 1e-12);
        assert!((r.slo_attainment() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejected_outcomes_count_as_slo_misses_without_panicking() {
        // Regression: the SLO accounting used to unwrap `ttft_s`/`e2e_s`,
        // panicking on any report that mixed rejected outcomes (which have
        // no latencies) with an SLO.
        let slo = SloTargets {
            ttft_s: 1.0,
            e2e_s: 5.0,
        };
        let r = report(
            vec![
                outcome(0, 0.5, 2.0, 100), // meets the SLO
                rejected_outcome(1),       // no latencies at all
                outcome(2, 3.0, 8.0, 100), // completed but missed
            ],
            Some(slo),
        );
        assert!(!r.outcomes[1].meets_slo(&slo));
        assert_eq!(r.generated_tokens, 200);
        assert_eq!(r.goodput_tokens, 100, "only the SLO-meeting request");
        // Attainment is over completed requests; the rejection shows up in
        // reject_rate and goodput instead.
        assert!((r.slo_attainment() - 0.5).abs() < 1e-12);
        assert!((r.reject_rate() - 1.0 / 3.0).abs() < 1e-12);
        // Percentiles skip the latency-less outcome rather than panic.
        assert!(r.ttft_percentile(50.0).is_finite());
        assert!(!r.render().is_empty());
    }

    #[test]
    fn percentiles_and_render_are_stable() {
        let r = report(
            vec![outcome(0, 0.5, 2.0, 10), outcome(1, 1.5, 4.0, 10)],
            None,
        );
        assert!((r.ttft_percentile(50.0) - 1.0).abs() < 1e-12);
        assert_eq!(r.render(), r.render());
        assert!(r.render().contains("router=test"));
    }

    #[test]
    fn empty_report_is_well_behaved() {
        let r = report(vec![], None);
        assert_eq!(r.reject_rate(), 0.0);
        assert!(r.ttft_percentile(99.0).is_nan());
    }

    #[test]
    fn all_rejected_report_renders_dashes_not_nan() {
        // Regression: with zero completions every latency percentile is
        // NaN, and render() used to print it verbatim ("ttft=NaN/NaNs").
        let r = report(vec![rejected_outcome(0), rejected_outcome(1)], None);
        let s = r.render();
        assert!(!s.contains("NaN"), "render must not leak NaN: {s}");
        assert!(s.contains("ttft=-/-s e2e=-/-s"), "{s}");
        assert_eq!(r.throughput_tok_s(), 0.0);
        assert_eq!(r.goodput_tok_s(), 0.0);
    }

    #[test]
    fn pipeline_line_appears_only_when_groups_exist() {
        let mut r = report(vec![outcome(0, 0.5, 2.0, 10)], None);
        assert!(
            !r.render().contains("pipeline_groups="),
            "pipeline-off reports must not change"
        );
        r.pipeline_groups = 1;
        r.pipeline_handoffs = 7;
        r.replicas[0].pipeline_bubble_s = 0.5;
        let s = r.render();
        assert!(
            s.contains("pipeline_groups=1 pipeline_handoffs=7 pipeline_bubble=0.5s"),
            "{s}"
        );
        assert!((r.pipeline_bubble_s() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_outcomes_are_neither_completed_nor_rejected() {
        // Regression guard for the accounting fix: `rejected()` used to be
        // `len - completed`, which would silently lump crash-failed
        // requests in with admission rejections.
        let r = report(
            vec![
                outcome(0, 0.5, 2.0, 100),
                rejected_outcome(1),
                failed_outcome(2, 3),
            ],
            None,
        );
        assert_eq!(r.completed(), 1);
        assert_eq!(r.rejected(), 1);
        assert_eq!(r.failed(), 1);
        assert_eq!(r.generated_tokens, 100, "failed requests add no tokens");
        assert!(r.render().contains("failed=1"));
        let slo = SloTargets {
            ttft_s: 1.0,
            e2e_s: 5.0,
        };
        assert!(!r.outcomes[2].meets_slo(&slo), "failed is never goodput");
    }
}
