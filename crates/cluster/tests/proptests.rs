//! Fleet-simulator properties: determinism, conservation, and routing
//! sanity across randomly drawn heterogeneous fleets and traces.

use llmsim_cluster::{
    simulate_fleet, simulate_fleet_traced, AutoscaleConfig, ChaosConfig, ClusterConfig,
    ClusterRequest, FaultInjection, HeteroAware, JoinShortestQueue, LeastOutstandingTokens,
    OutcomeState, ReplicaConfig, ReplicaStart, ReplicaView, RoundRobin, RouterPolicy, SloTargets,
};
use llmsim_core::resilience::RetryPolicy;
use llmsim_core::{CostModel, CpuBackend, GpuBackend, VecSink};
use llmsim_model::families;
use proptest::prelude::*;
use std::sync::Arc;

/// A heterogeneous fleet: `n` replicas cycling through SPR / ICL / A100 /
/// H100 backends, with drawn queue caps and batch widths, the tail of the
/// fleet starting in the drawn state.
fn fleet(n: usize, queue_cap: usize, max_batch: u64, tail_start: ReplicaStart) -> ClusterConfig {
    let replicas: Vec<ReplicaConfig> = (0..n)
        .map(|i| {
            let backend: Arc<dyn CostModel + Send + Sync> = match i % 4 {
                0 => Arc::new(CpuBackend::paper_spr()),
                1 => Arc::new(CpuBackend::paper_icl()),
                2 => Arc::new(GpuBackend::paper_a100()),
                _ => Arc::new(GpuBackend::paper_h100()),
            };
            // Drawn independently, so clamp the batch to the queue cap:
            // `ClusterConfig::validate` rejects queue_cap < max_batch.
            let mut cfg = ReplicaConfig::warm(backend)
                .with_queue_cap(queue_cap)
                .with_max_batch(max_batch.min(queue_cap as u64));
            if i == n - 1 {
                cfg.start = tail_start;
            }
            cfg
        })
        .collect();
    ClusterConfig::new(replicas, vec![families::opt_1_3b(), families::opt_13b()])
        .with_slo(SloTargets {
            ttft_s: 2.0,
            e2e_s: 30.0,
        })
        .with_autoscale(AutoscaleConfig::default())
}

fn arb_trace() -> impl Strategy<Value = Vec<ClusterRequest>> {
    (1usize..24, 1u64..256, 1u64..32, 0u64..500).prop_map(|(n, p0, g0, gap_ms)| {
        (0..n)
            .map(|i| ClusterRequest {
                id: i,
                arrival_s: i as f64 * gap_ms as f64 / 1000.0,
                prompt_len: p0 + 13 * (i as u64 % 7),
                gen_len: g0 + 5 * (i as u64 % 4),
                model: i % 2,
                ..ClusterRequest::default()
            })
            .collect()
    })
}

fn routers() -> [Box<dyn RouterPolicy>; 4] {
    [
        Box::new(RoundRobin::new()),
        Box::new(JoinShortestQueue),
        Box::new(LeastOutstandingTokens),
        Box::new(HeteroAware),
    ]
}

fn starts() -> [ReplicaStart; 3] {
    [
        ReplicaStart::Warm,
        ReplicaStart::Cold,
        ReplicaStart::Standby,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same fleet + same trace + same policy ⇒ byte-identical report.
    #[test]
    fn same_seed_byte_identical_report(
        reqs in arb_trace(),
        n in 2usize..5,
        cap in 2usize..12,
        batch in 1u64..5,
        router_ix in 0usize..4,
        start_ix in 0usize..3,
    ) {
        let config = fleet(n, cap, batch, starts()[start_ix]);
        let a = simulate_fleet(&config, &mut *routers()[router_ix], &reqs);
        let b = simulate_fleet(&config, &mut *routers()[router_ix], &reqs);
        prop_assert_eq!(a.render(), b.render());
        prop_assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
        prop_assert_eq!(format!("{:?}", a.replicas), format!("{:?}", b.replicas));
    }

    /// Span tracing is observational: a traced run produces a report
    /// bit-identical to the untraced run, one span per request, with each
    /// completed span's phases summing to the outcome's e2e latency; and
    /// the TSV rendering is byte-stable across same-seed runs.
    #[test]
    fn tracing_changes_nothing_and_spans_reconcile(
        reqs in arb_trace(),
        n in 2usize..5,
        cap in 2usize..12,
        batch in 1u64..5,
        router_ix in 0usize..4,
        start_ix in 0usize..3,
    ) {
        let config = fleet(n, cap, batch, starts()[start_ix]);
        let plain = simulate_fleet(&config, &mut *routers()[router_ix], &reqs);
        let mut sink = VecSink::new();
        let traced =
            simulate_fleet_traced(&config, &mut *routers()[router_ix], &reqs, &mut sink);
        prop_assert_eq!(plain.render(), traced.render());
        prop_assert_eq!(format!("{:?}", plain.outcomes), format!("{:?}", traced.outcomes));
        prop_assert_eq!(sink.spans.len(), reqs.len());
        for o in &traced.outcomes {
            let s = sink
                .spans
                .iter()
                .find(|s| s.id == o.id as u64)
                .expect("span per request");
            if o.state == OutcomeState::Completed {
                let phase_sum = s.queue_delay_s + s.prefill_s() + s.decode_s;
                prop_assert!((s.e2e_s() - o.e2e_s.unwrap()).abs() < 1e-9);
                prop_assert!((phase_sum - s.e2e_s()).abs() < 1e-9);
            } else {
                prop_assert!(s.e2e_s().is_nan());
            }
        }
        let mut sink2 = VecSink::new();
        let _ = simulate_fleet_traced(&config, &mut *routers()[router_ix], &reqs, &mut sink2);
        prop_assert_eq!(sink.to_tsv(), sink2.to_tsv());
    }

    /// Conservation: every request terminates exactly once — completed with
    /// its full generation on a real replica, or rejected with zero tokens —
    /// and no latency is negative or reordered (ttft ≤ e2e, delay ≤ ttft).
    #[test]
    fn every_request_completes_or_is_rejected(
        reqs in arb_trace(),
        n in 1usize..5,
        cap in 1usize..10,
        batch in 1u64..5,
        router_ix in 0usize..4,
        start_ix in 0usize..3,
    ) {
        let config = fleet(n, cap, batch, starts()[start_ix]);
        let report = simulate_fleet(&config, &mut *routers()[router_ix], &reqs);
        prop_assert_eq!(report.outcomes.len(), reqs.len());
        prop_assert_eq!(report.completed() + report.rejected(), reqs.len());
        for (o, req) in report.outcomes.iter().zip(&reqs) {
            prop_assert_eq!(o.id, req.id);
            match o.state {
                OutcomeState::Completed => {
                    prop_assert_eq!(o.tokens, req.gen_len);
                    let replica = o.replica.expect("completed request has a replica");
                    prop_assert!(replica < n);
                    let delay = o.queue_delay_s.unwrap();
                    let ttft = o.ttft_s.unwrap();
                    let e2e = o.e2e_s.unwrap();
                    prop_assert!(delay >= 0.0 && ttft >= delay && e2e >= ttft);
                }
                OutcomeState::Rejected | OutcomeState::Failed => {
                    prop_assert_eq!(o.tokens, 0);
                    prop_assert!(o.replica.is_none());
                }
            }
        }
        let total: u64 = report.outcomes.iter().map(|o| o.tokens).sum();
        prop_assert_eq!(total, report.generated_tokens);
        prop_assert!(report.goodput_tokens <= report.generated_tokens);
    }

    /// Chaos as a passthrough: installing [`ChaosConfig::none`] — chaos
    /// machinery present, every fault/retry/hedge feature disabled — must
    /// leave the report byte-identical to a fleet with no chaos at all.
    #[test]
    fn passthrough_chaos_is_byte_identical(
        reqs in arb_trace(),
        n in 2usize..5,
        cap in 2usize..12,
        batch in 1u64..5,
        router_ix in 0usize..4,
        start_ix in 0usize..3,
        seed in any::<u64>(),
    ) {
        let config = fleet(n, cap, batch, starts()[start_ix]);
        let base = simulate_fleet(&config, &mut *routers()[router_ix], &reqs);
        let with_none = simulate_fleet(
            &config.clone().with_chaos(ChaosConfig::none(seed)),
            &mut *routers()[router_ix],
            &reqs,
        );
        prop_assert_eq!(base.render(), with_none.render());
        prop_assert_eq!(
            format!("{:?}", base.outcomes),
            format!("{:?}", with_none.outcomes)
        );
        prop_assert_eq!(
            format!("{:?}", base.replicas),
            format!("{:?}", with_none.replicas)
        );
    }

    /// Same-seed fault schedules are byte-identical, and each replica's
    /// stream is a function of `(seed, replica)` alone — growing the fleet
    /// never changes the faults an existing replica sees.
    #[test]
    fn fault_schedules_deterministic_and_fleet_size_independent(
        seed in any::<u64>(),
        mtbf_s in 5.0f64..60.0,
        n in 1usize..6,
        extra in 1usize..4,
    ) {
        let chaos = ChaosConfig::none(seed)
            .with_schedule(Vec::new());
        let chaos = ChaosConfig {
            injection: Some(FaultInjection::crashes(mtbf_s, 300.0)),
            ..chaos
        };
        let a = chaos.schedule_for(n);
        let b = chaos.schedule_for(n);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let grown = chaos.schedule_for(n + extra);
        for r in 0..n {
            let small: Vec<_> = a.iter().filter(|f| f.replica == r).collect();
            let large: Vec<_> = grown.iter().filter(|f| f.replica == r).collect();
            prop_assert_eq!(
                format!("{small:?}"),
                format!("{large:?}"),
                "replica {} stream changed with fleet size",
                r
            );
        }
    }

    /// Conservation under chaos: across crash/retry/hedge chains, every
    /// arrival terminates in exactly one terminal state, retried requests
    /// count their tokens once, and the whole thing is seed-deterministic.
    #[test]
    fn chaos_conserves_requests(
        reqs in arb_trace(),
        n in 2usize..5,
        cap in 2usize..12,
        batch in 1u64..5,
        router_ix in 0usize..4,
        seed in any::<u64>(),
        mtbf_s in 3.0f64..30.0,
        max_retries in 0u32..4,
        hedge in any::<bool>(),
    ) {
        let chaos = ChaosConfig {
            seed,
            injection: Some(FaultInjection::crashes(mtbf_s, 120.0)),
            schedule: Vec::new(),
            retry: RetryPolicy {
                max_retries,
                base_backoff_s: 0.05,
                multiplier: 2.0,
                jitter_frac: 0.2,
                retry_budget: Some(64),
            },
            hedge: None,
        };
        let chaos = if hedge { chaos.with_hedge(0.25) } else { chaos };
        let config = fleet(n, cap, batch, ReplicaStart::Warm).with_chaos(chaos);
        let report = simulate_fleet(&config, &mut *routers()[router_ix], &reqs);
        prop_assert_eq!(report.outcomes.len(), reqs.len());
        prop_assert_eq!(
            report.completed() + report.rejected() + report.failed(),
            reqs.len(),
            "every arrival reaches exactly one terminal state"
        );
        for (o, req) in report.outcomes.iter().zip(&reqs) {
            prop_assert_eq!(o.id, req.id);
            match o.state {
                OutcomeState::Completed => prop_assert_eq!(o.tokens, req.gen_len),
                OutcomeState::Rejected | OutcomeState::Failed => {
                    prop_assert_eq!(o.tokens, 0);
                    prop_assert!(o.replica.is_none());
                }
            }
        }
        let total: u64 = report.outcomes.iter().map(|o| o.tokens).sum();
        prop_assert_eq!(total, report.generated_tokens, "winners counted once");
        // Seed-determinism holds with faults active too.
        let again = simulate_fleet(&config, &mut *routers()[router_ix], &reqs);
        prop_assert_eq!(report.render(), again.render());
        prop_assert_eq!(
            format!("{:?}", report.outcomes),
            format!("{:?}", again.outcomes)
        );
    }

    /// JSQ never routes to a full replica while a non-full one exists, and
    /// never rejects while any replica can still accept.
    #[test]
    fn jsq_never_picks_full_over_available(
        loads in proptest::collection::vec((0usize..8, 1usize..8), 1..6),
    ) {
        let views: Vec<ReplicaView> = loads
            .iter()
            .enumerate()
            .map(|(idx, &(in_flight, cap))| ReplicaView {
                idx,
                now_s: 0.0,
                queue_len: in_flight.min(cap),
                active: 0,
                queue_cap: cap,
                max_batch: 4,
                outstanding_tokens: 64 * in_flight as u64,
                predicted_hit_tokens: 0,
                est_prefix_saved_s: 0.0,
                session_resident: false,
                kv_free_blocks: 0,
                kv_total_blocks: 0,
                pipeline_group: None,
                pipeline_stage: 0,
                pipeline_depth: 1,
                warm: true,
                warmup_remaining_s: 0.0,
                est_start_delay_s: in_flight as f64,
                est_service_s: 1.0,
                resident: true,
            })
            .collect();
        let req = ClusterRequest {
            id: 0,
            arrival_s: 0.0,
            prompt_len: 64,
            gen_len: 8,
            ..ClusterRequest::default()
        };
        let choice = JoinShortestQueue.route(&req, &views);
        let any_open = views.iter().any(ReplicaView::can_accept);
        match choice {
            Some(i) => {
                prop_assert!(views[i].can_accept(), "routed to a full replica");
                let best = views
                    .iter()
                    .filter(|v| v.can_accept())
                    .map(ReplicaView::in_flight)
                    .min()
                    .unwrap();
                prop_assert_eq!(views[i].in_flight(), best);
            }
            None => prop_assert!(!any_open, "rejected while a replica had room"),
        }
    }
}
