//! Fault-injection integration tests: crash/slowdown/partition/drain
//! semantics, hedging and its config checks, retry recovery,
//! recovery-aware autoscaling, and the documented crash-beats-completion
//! tie-break.

use llmsim_cluster::{
    simulate_fleet, AutoscaleConfig, ChaosConfig, ClusterConfig, ClusterRequest, FaultEvent,
    FaultKind, HealthAware, JoinShortestQueue, OutcomeState, ReplicaConfig, RoundRobin, SloTargets,
};
use llmsim_core::resilience::RetryPolicy;
use llmsim_core::{CostModel, CpuBackend, SimError};
use llmsim_model::families;
use std::sync::Arc;

fn spr() -> Arc<dyn CostModel + Send + Sync> {
    Arc::new(CpuBackend::paper_spr())
}

fn fleet(n: usize) -> ClusterConfig {
    let replicas = (0..n).map(|_| ReplicaConfig::warm(spr())).collect();
    ClusterConfig::new(replicas, vec![families::opt_13b()])
}

fn req(id: usize, arrival_s: f64) -> ClusterRequest {
    ClusterRequest {
        id,
        arrival_s,
        prompt_len: 128,
        gen_len: 32,
        ..ClusterRequest::default()
    }
}

/// Service time of the standard request on an idle SPR replica, measured
/// from a fault-free run (arrival at t = 0, so e2e = service).
fn service_s() -> f64 {
    let report = simulate_fleet(&fleet(1), &mut RoundRobin::new(), &[req(0, 0.0)]);
    report.outcomes[0].e2e_s.expect("fault-free run completes")
}

/// The documented tie-break, pinned: the fault schedule is pushed at
/// setup, so a crash landing on the *exact* timestamp of a completion
/// fires first and wins — the completion arrives stale (epoch mismatch)
/// and the request is a crash victim, not a completion.
#[test]
fn crash_at_completion_timestamp_beats_the_completion() {
    let e2e = service_s();
    let crash_at = FaultEvent {
        replica: 0,
        at_s: e2e,
        kind: FaultKind::Crash,
    };
    // No retries: the victim terminates as failed.
    let config = fleet(1).with_chaos(ChaosConfig::none(1).with_schedule(vec![crash_at]));
    let report = simulate_fleet(&config, &mut RoundRobin::new(), &[req(0, 0.0)]);
    assert_eq!(report.completed(), 0, "crash wins the timestamp tie");
    assert_eq!(report.failed(), 1);
    assert_eq!(report.crashes, 1);
    assert_eq!(report.outcomes[0].state, OutcomeState::Failed);
    // The attempt had run its entire service when the crash struck: the
    // full generation is wasted work.
    assert_eq!(report.wasted_tokens, 32);

    // Deterministic: the same tie resolves the same way every run.
    let again = simulate_fleet(&config, &mut RoundRobin::new(), &[req(0, 0.0)]);
    assert_eq!(report.render(), again.render());
}

#[test]
fn crash_victim_recovers_via_retry() {
    let e2e = service_s();
    let crash_at = FaultEvent {
        replica: 0,
        at_s: e2e / 2.0,
        kind: FaultKind::Crash,
    };
    let chaos = ChaosConfig::none(3)
        .with_schedule(vec![crash_at])
        .with_retry(RetryPolicy::standard(Some(8)));
    let report = simulate_fleet(
        &fleet(1).with_chaos(chaos),
        &mut RoundRobin::new(),
        &[req(0, 0.0)],
    );
    assert_eq!(report.completed(), 1, "retry re-routes the crash victim");
    let o = &report.outcomes[0];
    assert!(o.retries >= 1, "outcome records its retry count");
    assert_eq!(report.retries, u64::from(o.retries));
    assert!(
        o.e2e_s.unwrap() > e2e,
        "recovered request pays crash + cold restart + backoff"
    );
    // Half the service ran before the crash: ~half the generation wasted.
    assert!(report.wasted_tokens > 0 && report.wasted_tokens < 32);
    assert_eq!(report.replicas[0].crashes, 1);
    assert!(
        report.replicas[0].warmups >= 1,
        "post-crash restart is a cold start"
    );
}

#[test]
fn queued_victims_carry_no_wasted_tokens() {
    // max_batch 1: request 1 is queued (never dispatched) when the crash
    // lands mid-service of request 0.
    let e2e = service_s();
    let mut config = fleet(1);
    config.replicas[0] = config.replicas[0].clone().with_max_batch(1);
    let crash_at = FaultEvent {
        replica: 0,
        at_s: e2e / 2.0,
        kind: FaultKind::Crash,
    };
    let config = config.with_chaos(ChaosConfig::none(5).with_schedule(vec![crash_at]));
    let report = simulate_fleet(&config, &mut RoundRobin::new(), &[req(0, 0.0), req(1, 0.0)]);
    assert_eq!(report.failed(), 2, "no retries configured");
    assert!(
        report.wasted_tokens < 32,
        "only the dispatched attempt's partial run counts as waste"
    );
}

#[test]
fn partition_hides_the_replica_without_killing_its_work() {
    let e2e = service_s();
    // Partition replica 0 from just after the first dispatch until well
    // past the horizon of the second arrival.
    let partition = FaultEvent {
        replica: 0,
        at_s: e2e * 0.1,
        kind: FaultKind::Partition {
            duration_s: e2e * 4.0,
        },
    };
    let config = fleet(2).with_chaos(ChaosConfig::none(7).with_schedule(vec![partition]));
    // Round-robin would alternate; the partition forces both later
    // arrivals onto replica 1.
    let reqs = [req(0, 0.0), req(1, e2e * 0.5), req(2, e2e * 0.6)];
    let report = simulate_fleet(&config, &mut RoundRobin::new(), &reqs);
    assert_eq!(report.completed(), 3, "accepted work survives a partition");
    assert_eq!(
        report.replicas[0].served, 1,
        "only the pre-partition request"
    );
    assert_eq!(report.replicas[1].served, 2);
    assert_eq!(report.crashes, 0);
    assert_eq!(report.wasted_tokens, 0);
}

#[test]
fn slowdown_multiplies_service_of_work_dispatched_in_the_window() {
    let e2e = service_s();
    let slowdown = FaultEvent {
        replica: 0,
        at_s: 0.0,
        kind: FaultKind::Slowdown {
            factor: 3.0,
            duration_s: e2e,
        },
    };
    let config = fleet(1).with_chaos(ChaosConfig::none(9).with_schedule(vec![slowdown]));
    let report = simulate_fleet(&config, &mut RoundRobin::new(), &[req(0, 0.0)]);
    let slowed = report.outcomes[0].e2e_s.unwrap();
    assert!(
        (slowed - 3.0 * e2e).abs() < 1e-9,
        "dispatch inside the window runs at the slowdown factor: {slowed} vs {}",
        3.0 * e2e
    );

    // Work dispatched after the window closes runs at full speed.
    let late = simulate_fleet(&config, &mut RoundRobin::new(), &[req(0, e2e * 3.5)]);
    let fast = late.outcomes[0].e2e_s.unwrap();
    assert!((fast - e2e).abs() < 1e-9, "window closed: {fast} vs {e2e}");
}

#[test]
fn drain_stops_admission_but_finishes_accepted_work() {
    let e2e = service_s();
    let mut config = fleet(1);
    config.replicas[0] = config.replicas[0].clone().with_max_batch(1);
    let drain = FaultEvent {
        replica: 0,
        at_s: e2e * 0.25,
        kind: FaultKind::Drain {
            duration_s: e2e * 4.0,
        },
    };
    let config = config.with_chaos(ChaosConfig::none(11).with_schedule(vec![drain]));
    let reqs = [
        req(0, 0.0),       // in service when the drain starts
        req(1, 0.0),       // queued when the drain starts
        req(2, e2e * 0.5), // arrives mid-drain: rejected
        req(3, e2e * 5.0), // arrives after the drain window: accepted
    ];
    let report = simulate_fleet(&config, &mut RoundRobin::new(), &reqs);
    assert_eq!(report.outcomes[0].state, OutcomeState::Completed);
    assert_eq!(
        report.outcomes[1].state,
        OutcomeState::Completed,
        "queued work accepted before the drain still runs"
    );
    assert_eq!(report.outcomes[2].state, OutcomeState::Rejected);
    assert_eq!(report.outcomes[3].state, OutcomeState::Completed);
    assert_eq!(report.crashes, 0);
    assert_eq!(report.wasted_tokens, 0, "drains lose nothing");
}

#[test]
fn hedge_wins_the_race_when_the_primary_is_slow() {
    let e2e = service_s();
    // Replica 0 is 10x slow for a long window; ties route to it first.
    let slowdown = FaultEvent {
        replica: 0,
        at_s: 0.0,
        kind: FaultKind::Slowdown {
            factor: 10.0,
            duration_s: e2e * 20.0,
        },
    };
    let chaos = ChaosConfig::none(13)
        .with_schedule(vec![slowdown])
        .with_hedge(0.25);
    let report = simulate_fleet(
        &fleet(2).with_chaos(chaos),
        &mut JoinShortestQueue,
        &[req(0, 0.0)],
    );
    assert_eq!(report.completed(), 1);
    assert_eq!(report.hedges, 1);
    let o = &report.outcomes[0];
    assert!(o.hedged);
    assert_eq!(o.replica, Some(1), "the hedge on the healthy replica wins");
    let hedged_e2e = o.e2e_s.unwrap();
    assert!(
        hedged_e2e < 2.0 * e2e,
        "first-wins: {hedged_e2e} must beat the 10x-slowed primary {}",
        10.0 * e2e
    );
    assert!(
        report.wasted_tokens > 0,
        "the cancelled slow primary's partial run is waste"
    );
    // Same seed, same race winner, byte for byte.
    let again = simulate_fleet(
        &fleet(2).with_chaos(
            ChaosConfig::none(13)
                .with_schedule(vec![slowdown])
                .with_hedge(0.25),
        ),
        &mut JoinShortestQueue,
        &[req(0, 0.0)],
    );
    assert_eq!(report.render(), again.render());
}

#[test]
fn health_aware_router_shifts_traffic_off_a_crashy_replica() {
    let e2e = service_s();
    // Replica 0 crashes twice early; the breaker should eject it and
    // route the rest of the trace to replica 1.
    let crashes = vec![
        FaultEvent {
            replica: 0,
            at_s: e2e * 0.2,
            kind: FaultKind::Crash,
        },
        FaultEvent {
            replica: 0,
            at_s: e2e * 0.4,
            kind: FaultKind::Crash,
        },
    ];
    let chaos = ChaosConfig::none(17)
        .with_schedule(crashes)
        .with_retry(RetryPolicy::standard(Some(16)));
    let config = fleet(2).with_chaos(chaos);
    let reqs: Vec<ClusterRequest> = (0..8).map(|i| req(i, i as f64 * e2e * 0.1)).collect();

    let mut breaker = HealthAware::new(RoundRobin::new(), 17);
    let guarded = simulate_fleet(&config, &mut breaker, &reqs);
    let mut plain = RoundRobin::new();
    let unguarded = simulate_fleet(&config, &mut plain, &reqs);

    assert!(guarded.completed() >= unguarded.completed());
    assert!(
        guarded.replicas[1].served > guarded.replicas[0].served,
        "breaker shifts traffic to the healthy replica: {} vs {}",
        guarded.replicas[1].served,
        guarded.replicas[0].served
    );
    assert!(guarded.router.starts_with("health("));
}

#[test]
fn autoscaler_replaces_a_crashed_replica_from_standby() {
    let e2e = service_s();
    let mut config = fleet(2);
    config.replicas[1] = ReplicaConfig::standby(spr());
    let crash = FaultEvent {
        replica: 0,
        at_s: e2e * 0.5,
        kind: FaultKind::Crash,
    };
    let chaos = ChaosConfig::none(19)
        .with_schedule(vec![crash])
        .with_retry(RetryPolicy::standard(Some(16)));
    let config = config.with_chaos(chaos).with_autoscale(AutoscaleConfig {
        interval_s: e2e * 0.2,
        ..AutoscaleConfig::default()
    });
    let reqs: Vec<ClusterRequest> = (0..6).map(|i| req(i, i as f64 * e2e * 0.3)).collect();
    let report = simulate_fleet(&config, &mut RoundRobin::new(), &reqs);
    assert!(
        report.scale_ups >= 1,
        "a standby replacement spins up for the crashed replica"
    );
    assert!(
        report.replicas[1].served > 0,
        "the replacement takes traffic after paying its cold start"
    );
    assert_eq!(
        report.completed() + report.rejected() + report.failed(),
        reqs.len()
    );
}

/// Two warm SPR replicas serving OPT-1.3B, hedging after `after_frac` of
/// the deadline.
fn hedged_fleet(after_frac: f64) -> ClusterConfig {
    let replicas = (0..2).map(|_| ReplicaConfig::warm(spr())).collect();
    ClusterConfig::new(replicas, vec![families::opt_1_3b()])
        .with_chaos(ChaosConfig::none(1).with_hedge(after_frac))
}

fn expect_unsupported(config: &ClusterConfig, needle: &str) {
    match config.validate() {
        Err(SimError::UnsupportedConfig(msg)) => {
            assert!(msg.contains(needle), "expected {needle:?} in {msg:?}");
        }
        other => panic!("expected UnsupportedConfig({needle:?}), got {other:?}"),
    }
}

#[test]
fn validate_rejects_a_negative_hedge_fraction() {
    expect_unsupported(&hedged_fleet(-0.5), "after_frac");
    assert!(hedged_fleet(0.0).validate().is_ok(), "hedging at arrival");
}

#[test]
fn validate_rejects_a_non_finite_hedge_fraction() {
    for frac in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        expect_unsupported(&hedged_fleet(frac), "after_frac");
    }
}

#[test]
fn validate_rejects_a_bad_hedge_deadline() {
    let slo = |e2e_s| SloTargets { ttft_s: 1.0, e2e_s };
    for e2e_s in [-1.0, f64::NAN, f64::INFINITY] {
        expect_unsupported(&hedged_fleet(0.25).with_slo(slo(e2e_s)), "e2e_s");
        // Without hedging the SLO is only a goodput threshold.
        assert!(fleet(2).with_slo(slo(e2e_s)).validate().is_ok());
    }
}

/// A hedge that fires before its request arrives would dispatch in the
/// past and win, reporting negative queue delay and TTFT: the replay
/// refuses the config instead.
#[test]
#[should_panic(expected = "invalid cluster config")]
fn negative_hedge_fraction_panics_instead_of_reporting_negative_latencies() {
    let reqs: Vec<ClusterRequest> = (0..3).map(|i| req(i, i as f64 * 0.01)).collect();
    simulate_fleet(&hedged_fleet(-0.5), &mut RoundRobin::new(), &reqs);
}
