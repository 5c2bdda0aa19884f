//! Resilience-layer integration tests: exact passthrough equivalence with
//! the plain serving simulator, byte-level determinism under a fixed seed,
//! and the terminal-state conservation invariants.

use llmsim_core::resilience::{
    simulate_resilient, AdmissionPolicy, DegradationPolicy, FaultModel, ResilienceConfig,
    RetryPolicy, SloPolicy, TerminalState,
};
use llmsim_core::serving::{self, SchedulingPolicy, ServingConfig, ServingRequest};
use llmsim_core::{CpuBackend, ResilienceReport, ServingReport, SimError};
use llmsim_model::families;
use proptest::prelude::*;

fn backend() -> CpuBackend {
    CpuBackend::paper_spr()
}

fn requests(n: u64, gap: f64) -> Vec<ServingRequest> {
    (0..n)
        .map(|i| ServingRequest {
            id: i,
            arrival_s: i as f64 * gap,
            prompt_len: 64 + 64 * (i % 3),
            gen_len: 8 + 24 * (i % 4),
        })
        .collect()
}

/// Workload shapes drawn by the property tests: up to 10 heterogeneous
/// requests with irregular arrivals.
fn arb_requests() -> impl Strategy<Value = Vec<ServingRequest>> {
    (1usize..10, 1u64..200, 1u64..40, 0u64..1000).prop_map(|(n, p0, g0, gap_ms)| {
        (0..n as u64)
            .map(|i| ServingRequest {
                id: i,
                arrival_s: i as f64 * gap_ms as f64 / 1000.0,
                prompt_len: p0 + 17 * (i % 5),
                gen_len: g0 + 7 * (i % 3),
            })
            .collect()
    })
}

fn policies() -> [SchedulingPolicy; 2] {
    [
        SchedulingPolicy::IterationLevel,
        SchedulingPolicy::ChunkedPrefill { chunk_tokens: 64 },
    ]
}

/// A stressed configuration exercising every resilience feature at once.
fn stressed_config(policy: SchedulingPolicy, seed: u64) -> ResilienceConfig {
    ResilienceConfig {
        serving: ServingConfig {
            max_batch: 4,
            policy,
        },
        faults: FaultModel::with_rates(seed, 0.05, 0.05),
        slo: SloPolicy::interactive(5.0, 60.0),
        admission: AdmissionPolicy::bounded(6),
        retry: RetryPolicy::standard(Some(16)),
        degradation: DegradationPolicy::PreemptAndRequeue,
    }
}

/// `requests` through `serving::simulate` and through `simulate_resilient`
/// under passthrough.
fn both_entry_points(
    model: &llmsim_model::ModelConfig,
    serving_cfg: ServingConfig,
    reqs: &[ServingRequest],
) -> (ServingReport, ResilienceReport) {
    let plain = serving::simulate(&backend(), model, &serving_cfg, reqs);
    let resilient = simulate_resilient(
        &backend(),
        model,
        &ResilienceConfig::passthrough(serving_cfg, 1234),
        reqs,
    )
    .expect("iteration-level policies are supported");
    (plain, resilient)
}

/// Every outcome and aggregate of the two entry points agrees bit for bit.
fn assert_entry_points_agree(plain: &ServingReport, resilient: &ResilienceReport) {
    let policy = plain.policy;
    assert_eq!(plain.outcomes.len(), resilient.outcomes.len(), "{policy}");
    for (p, r) in plain.outcomes.iter().zip(&resilient.outcomes) {
        assert_eq!(p.id, r.id, "{policy}: completion order must match");
        assert_eq!(r.state, TerminalState::Completed, "{policy}");
        assert_eq!(
            p.queue_delay_s.to_bits(),
            r.queue_delay_s.to_bits(),
            "{policy}"
        );
        assert_eq!(
            p.ttft_s.to_bits(),
            r.ttft_s.expect("completed").to_bits(),
            "{policy}"
        );
        assert_eq!(p.e2e_s.to_bits(), r.e2e_s.to_bits(), "{policy}");
    }
    assert_eq!(
        plain.makespan_s.to_bits(),
        resilient.makespan_s.to_bits(),
        "{policy}"
    );
    assert_eq!(
        plain.generated_tokens, resilient.generated_tokens,
        "{policy}"
    );
    assert_eq!(
        plain.max_decode_stall_s.to_bits(),
        resilient.max_decode_stall_s.to_bits(),
        "{policy}"
    );
    assert_eq!(resilient.faults_injected, 0, "{policy}");
    assert_eq!(resilient.retries, 0, "{policy}");
    assert_eq!(resilient.preemptions, 0, "{policy}");
}

#[test]
fn passthrough_matches_plain_simulator_exactly() {
    // The acceptance bar: fault rate 0 + no deadlines reproduces the plain
    // simulator bit-for-bit, per request AND per aggregate.
    let model = families::opt_6_7b();
    let reqs = requests(14, 0.04);
    for policy in policies() {
        let serving_cfg = ServingConfig {
            max_batch: 4,
            policy,
        };
        let (plain, resilient) = both_entry_points(&model, serving_cfg, &reqs);
        assert_entry_points_agree(&plain, &resilient);
    }
}

#[test]
fn one_token_request_retires_at_its_prefill() {
    // A request that wants one token gets it from its prefill and is done:
    // on an idle server its e2e is exactly the prefill's cost, under both
    // entry points and both continuous-batching policies.
    let model = families::opt_1_3b();
    let prefill = backend().prefill_time(&model, 1, 64).as_f64();
    let lone = [ServingRequest {
        id: 0,
        arrival_s: 0.0,
        prompt_len: 64,
        gen_len: 1,
    }];
    for policy in [
        SchedulingPolicy::IterationLevel,
        SchedulingPolicy::ChunkedPrefill { chunk_tokens: 64 },
        SchedulingPolicy::ChunkedPrefill { chunk_tokens: 256 },
    ] {
        let serving_cfg = ServingConfig {
            max_batch: 3,
            policy,
        };
        let (plain, resilient) = both_entry_points(&model, serving_cfg, &lone);
        assert_eq!(
            plain.outcomes[0].e2e_s.to_bits(),
            prefill.to_bits(),
            "{policy}"
        );
        assert_eq!(
            resilient.outcomes[0].e2e_s.to_bits(),
            prefill.to_bits(),
            "{policy}"
        );
    }

    // One-token requests next to a longer one, alone and joining late.
    let reqs: Vec<ServingRequest> = [(0.0, 64, 1), (0.0, 64, 8), (0.5, 32, 1)]
        .iter()
        .enumerate()
        .map(|(i, &(arrival_s, prompt_len, gen_len))| ServingRequest {
            id: i as u64,
            arrival_s,
            prompt_len,
            gen_len,
        })
        .collect();
    for policy in policies() {
        let serving_cfg = ServingConfig {
            max_batch: 3,
            policy,
        };
        let (plain, resilient) = both_entry_points(&model, serving_cfg, &reqs);
        assert_entry_points_agree(&plain, &resilient);
    }
}

#[test]
fn static_policy_is_rejected() {
    let model = families::opt_1_3b();
    let cfg = ResilienceConfig::passthrough(
        ServingConfig {
            max_batch: 4,
            policy: SchedulingPolicy::Static,
        },
        1,
    );
    let err = simulate_resilient(&backend(), &model, &cfg, &requests(2, 0.1))
        .expect_err("static batching has no iteration boundaries");
    assert!(matches!(err, SimError::UnsupportedConfig(_)), "{err}");
}

#[test]
fn same_seed_is_byte_identical_different_seeds_diverge() {
    let model = families::opt_1_3b();
    let reqs = requests(16, 0.02);
    for policy in policies() {
        let run = |seed| {
            simulate_resilient(&backend(), &model, &stressed_config(policy, seed), &reqs)
                .expect("supported policy")
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.outcomes.len(), b.outcomes.len(), "{policy}");
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.id, y.id, "{policy}");
            assert_eq!(x.state, y.state, "{policy}");
            assert_eq!(
                x.queue_delay_s.to_bits(),
                y.queue_delay_s.to_bits(),
                "{policy}"
            );
            assert_eq!(
                x.ttft_s.map(f64::to_bits),
                y.ttft_s.map(f64::to_bits),
                "{policy}"
            );
            assert_eq!(x.e2e_s.to_bits(), y.e2e_s.to_bits(), "{policy}");
            assert_eq!(
                (x.retries, x.preemptions),
                (y.retries, y.preemptions),
                "{policy}"
            );
        }
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits(), "{policy}");
        assert_eq!(a.faults_injected, b.faults_injected, "{policy}");

        // Different seeds must explore different fault patterns. Compare a
        // digest of the full outcome vector, not just counters.
        let digest = |r: &llmsim_core::ResilienceReport| {
            r.outcomes
                .iter()
                .map(|o| (o.id, format!("{:?}", o.state), o.e2e_s.to_bits()))
                .collect::<Vec<_>>()
        };
        let c = run(43);
        assert_ne!(digest(&a), digest(&c), "{policy}: seeds 42 and 43 collided");
    }
}

#[test]
fn faults_reduce_goodput_below_throughput() {
    let model = families::opt_1_3b();
    let reqs = requests(16, 0.02);
    let cfg = stressed_config(SchedulingPolicy::IterationLevel, 7);
    let rep = simulate_resilient(&backend(), &model, &cfg, &reqs).expect("supported");
    assert!(
        rep.faults_injected > 0,
        "stress seed must actually inject faults"
    );
    assert!(rep.goodput() <= rep.throughput());
    assert_eq!(
        rep.wasted_tokens(),
        rep.generated_tokens - rep.goodput_tokens
    );
    // Fleet percentiles are ordered whenever at least one request succeeds.
    if rep.n_success() > 0 {
        assert!(rep.e2e_percentile(50.0) <= rep.e2e_percentile(99.0));
        assert!(rep.ttft_percentile(50.0) <= rep.ttft_percentile(99.0));
    }
}

#[test]
fn deadline_cancellation_and_queue_shedding_trigger() {
    let model = families::opt_6_7b();
    // A thundering herd at t=0 against a tiny queue and tight deadlines.
    let reqs: Vec<ServingRequest> = (0..24)
        .map(|i| ServingRequest {
            id: i,
            arrival_s: 0.0,
            prompt_len: 256,
            gen_len: 48,
        })
        .collect();
    let cfg = ResilienceConfig {
        serving: ServingConfig {
            max_batch: 2,
            policy: SchedulingPolicy::IterationLevel,
        },
        faults: FaultModel::none(3),
        slo: SloPolicy::interactive(1.0, 8.0),
        admission: AdmissionPolicy::bounded(4),
        retry: RetryPolicy::disabled(),
        degradation: DegradationPolicy::PreemptAndRequeue,
    };
    let rep = simulate_resilient(&backend(), &model, &cfg, &reqs).expect("supported");
    assert!(
        rep.n_rejected() > 0,
        "a 4-deep queue cannot absorb 24 simultaneous arrivals"
    );
    assert!(rep.n_timed_out() > 0, "tight SLOs must cancel stragglers");
    assert!(rep.shed_rate() > 0.0 && rep.shed_rate() < 1.0);
    assert!(rep.slo_attainment(Some(1.0), Some(8.0)) < 1.0);
    // Every non-success maps onto an informative SimError.
    for o in rep.outcomes.iter().filter(|o| !o.state.is_success()) {
        let err = o.as_error(&cfg).expect("non-success maps to an error");
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn kv_budget_forces_preemptions_that_still_complete() {
    let model = families::opt_1_3b();
    let reqs = requests(8, 0.01);
    // Budget sized to hold roughly two of the four batch slots' contexts.
    let per_token = model.kv_bytes_per_token(backend().kv_dtype());
    let budget = llmsim_hw::Bytes::new(per_token * 600);
    let cfg = ResilienceConfig {
        serving: ServingConfig {
            max_batch: 4,
            policy: SchedulingPolicy::IterationLevel,
        },
        faults: FaultModel::none(11).with_kv_budget(budget),
        slo: SloPolicy::unlimited(),
        admission: AdmissionPolicy::unbounded(),
        retry: RetryPolicy::disabled(),
        degradation: DegradationPolicy::PreemptAndRequeue,
    };
    let rep = simulate_resilient(&backend(), &model, &cfg, &reqs).expect("supported");
    assert!(rep.preemptions > 0, "the budget must actually bite");
    let preempted_ok = rep
        .outcomes
        .iter()
        .filter(|o| o.state == TerminalState::PreemptedThenCompleted)
        .count();
    assert!(preempted_ok > 0, "preempted requests recover via recompute");
    // No faults and no deadlines: everything still completes.
    assert_eq!(rep.n_success(), reqs.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation: every request reaches exactly one terminal state, no
    /// outcome has a negative queue delay or e2e, and successful requests
    /// deliver their full generation — under every policy combination.
    #[test]
    fn every_request_reaches_exactly_one_terminal_state(
        reqs in arb_requests(),
        seed in 0u64..1000,
        policy_ix in 0usize..2,
        degradation_ix in 0usize..2,
    ) {
        let model = families::opt_1_3b();
        let mut cfg = stressed_config(policies()[policy_ix], seed);
        cfg.degradation = if degradation_ix == 0 {
            DegradationPolicy::PreemptAndRequeue
        } else {
            DegradationPolicy::FailNewest
        };
        let rep = simulate_resilient(&backend(), &model, &cfg, &reqs)
            .expect("supported policy");

        prop_assert_eq!(rep.outcomes.len(), reqs.len());
        let mut seen: Vec<u64> = rep.outcomes.iter().map(|o| o.id).collect();
        seen.sort_unstable();
        let mut expected: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        expected.sort_unstable();
        prop_assert_eq!(seen, expected);

        for o in &rep.outcomes {
            prop_assert!(o.queue_delay_s >= 0.0, "negative queue delay: {:?}", o);
            prop_assert!(o.e2e_s >= 0.0, "negative e2e: {:?}", o);
            if let Some(t) = o.ttft_s {
                prop_assert!(o.e2e_s >= t - 1e-12, "e2e below ttft: {:?}", o);
            }
            if o.state.is_success() {
                prop_assert!(o.ttft_s.is_some(), "success without a first token: {:?}", o);
            }
        }
        let goodput: u64 = rep
            .outcomes
            .iter()
            .filter(|o| o.state.is_success())
            .map(|o| reqs.iter().find(|r| r.id == o.id).expect("known id").gen_len)
            .sum();
        prop_assert_eq!(goodput, rep.goodput_tokens);
        prop_assert!(rep.makespan_s >= 0.0);
    }

    /// The zero-fault resilient scheduler reproduces the plain simulator on
    /// arbitrary workloads, not just the hand-picked ones.
    #[test]
    fn passthrough_equivalence_holds_on_arbitrary_workloads(
        reqs in arb_requests(),
        policy_ix in 0usize..2,
    ) {
        let model = families::opt_1_3b();
        let serving_cfg = ServingConfig { max_batch: 3, policy: policies()[policy_ix] };
        let plain = serving::simulate(&backend(), &model, &serving_cfg, &reqs);
        let resilient = simulate_resilient(
            &backend(),
            &model,
            &ResilienceConfig::passthrough(serving_cfg, 99),
            &reqs,
        )
        .expect("supported policy");
        prop_assert_eq!(plain.outcomes.len(), resilient.outcomes.len());
        for (p, r) in plain.outcomes.iter().zip(&resilient.outcomes) {
            prop_assert_eq!(p.id, r.id);
            prop_assert_eq!(p.ttft_s.to_bits(), r.ttft_s.expect("completed").to_bits());
            prop_assert_eq!(p.e2e_s.to_bits(), r.e2e_s.to_bits());
        }
        prop_assert_eq!(plain.makespan_s.to_bits(), resilient.makespan_s.to_bits());
        prop_assert_eq!(plain.generated_tokens, resilient.generated_tokens);
    }
}
