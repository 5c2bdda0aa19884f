//! Paged-KV properties.
//!
//! The KV subsystem is strictly additive: with `ClusterConfig::kv` unset
//! the fast engine must stay byte-identical to the preserved seed engine
//! even on session-structured traces carrying prefix/session identities.
//! With KV enabled, the engine asserts block conservation after every
//! event internally — these properties drive it across drawn pool sizes,
//! block sizes, chaos, and preemption pressure so that assert actually
//! fires on any leak — and the sharded replay must stay thread-count
//! invariant with prefix-hit counters intact.

use llmsim_cluster::{
    shard_fleet, simulate_fleet, simulate_fleet_legacy, simulate_fleet_traced, simulate_shards,
    ChaosConfig, ClusterConfig, ClusterRequest, FaultInjection, JoinShortestQueue, KvConfig,
    OutcomeState, PrefixAware, ReplicaConfig, RouterPolicy, SloTargets,
};
use llmsim_core::resilience::RetryPolicy;
use llmsim_core::{CostModel, CpuBackend, VecSink};
use llmsim_model::families;
use llmsim_report::validate_tsv;
use llmsim_workload::{synthesize_sessions, SessionSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// A homogeneous SPR fleet (CPU serving is where paged KV matters most in
/// this paper's setting).
fn spr_fleet(n: usize, queue_cap: usize, max_batch: u64) -> ClusterConfig {
    let replicas: Vec<ReplicaConfig> = (0..n)
        .map(|_| {
            let backend: Arc<dyn CostModel + Send + Sync> = Arc::new(CpuBackend::paper_spr());
            ReplicaConfig::warm(backend)
                .with_queue_cap(queue_cap)
                .with_max_batch(max_batch.min(queue_cap as u64))
        })
        .collect();
    ClusterConfig::new(replicas, vec![families::opt_13b()]).with_slo(SloTargets {
        ttft_s: 5.0,
        e2e_s: 60.0,
    })
}

/// A session trace as fleet requests: ids are positional, models pinned
/// per session so chains never straddle models.
fn session_trace(seed: u64, sessions: usize, rate_per_s: f64) -> Vec<ClusterRequest> {
    let spec = SessionSpec::chat_day(seed, sessions, rate_per_s);
    synthesize_sessions(&spec)
        .iter()
        .enumerate()
        .map(|(i, r)| ClusterRequest {
            id: i,
            arrival_s: r.arrival_s,
            prompt_len: r.prompt_len,
            gen_len: r.gen_len,
            model: 0,
            prefix_id: r.prefix_id,
            prefix_len: r.prefix_len,
            session: r.session,
        })
        .collect()
}

fn crashy(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        injection: Some(FaultInjection::crashes(20.0, 120.0)),
        schedule: Vec::new(),
        retry: RetryPolicy {
            max_retries: 2,
            base_backoff_s: 0.05,
            multiplier: 2.0,
            jitter_frac: 0.2,
            retry_budget: Some(64),
        },
        hedge: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// KV disabled (the default) is byte-identical to the seed engine on
    /// session traces — the new request fields, report columns, and
    /// router-view signals are all inert until `with_kv` opts in.
    #[test]
    fn kv_disabled_is_byte_identical_to_legacy(
        seed in any::<u64>(),
        sessions in 5usize..40,
        n in 1usize..4,
        cap in 4usize..12,
        batch in 1u64..6,
        chaos_on in any::<bool>(),
    ) {
        let reqs = session_trace(seed, sessions, 2.0);
        let mut config = spr_fleet(n, cap, batch);
        if chaos_on {
            config = config.with_chaos(crashy(seed));
        }
        let legacy = simulate_fleet_legacy(&config, &mut JoinShortestQueue, &reqs);
        let fast = simulate_fleet(&config, &mut JoinShortestQueue, &reqs);
        prop_assert_eq!(legacy.render(), fast.render());
        prop_assert_eq!(
            format!("{:?}", legacy.outcomes),
            format!("{:?}", fast.outcomes)
        );
        prop_assert_eq!(
            format!("{:?}", legacy.replicas),
            format!("{:?}", fast.replicas)
        );
        prop_assert_eq!(fast.prefix_hit_tokens, 0);
        prop_assert_eq!(fast.preemptions, 0);
    }

    /// KV-enabled runs hold block conservation at every event (asserted
    /// inside the engine), terminate every request, stay deterministic
    /// run-to-run, and only hit prefixes when prefix caching is on —
    /// across drawn block sizes and pool capacities tight enough to force
    /// eviction and preemption.
    #[test]
    fn kv_enabled_conserves_blocks_and_is_deterministic(
        seed in any::<u64>(),
        sessions in 5usize..30,
        n in 1usize..4,
        bt_ix in 0usize..3,
        cap_blocks in 600u64..4000,
        caching in any::<bool>(),
        chaos_on in any::<bool>(),
    ) {
        let reqs = session_trace(seed, sessions, 2.0);
        let block_tokens = [8u64, 16, 32][bt_ix];
        let kv = KvConfig::new()
            .with_block_tokens(block_tokens)
            .with_prefix_caching(caching)
            .with_capacity_blocks(cap_blocks);
        let mut config = spr_fleet(n, 12, 6).with_kv(kv);
        if chaos_on {
            config = config.with_chaos(crashy(seed));
        }
        let a = simulate_fleet(&config, &mut JoinShortestQueue, &reqs);
        let b = simulate_fleet(&config, &mut JoinShortestQueue, &reqs);
        prop_assert_eq!(a.render(), b.render());
        prop_assert_eq!(a.outcomes.len(), reqs.len());
        if !caching {
            prop_assert_eq!(a.prefix_hit_tokens, 0);
        }
        for r in &a.replicas {
            prop_assert!((0.0..=1.0).contains(&r.kv_peak_occupancy));
            prop_assert!(r.kv_mean_occupancy <= r.kv_peak_occupancy + 1e-12);
        }
    }

    /// Sharded KV-enabled replay is invariant to the worker thread count,
    /// including the new prefix-hit / preemption counters in the merged
    /// report.
    #[test]
    fn kv_sharded_replay_is_thread_count_invariant(
        seed in any::<u64>(),
        sessions in 10usize..40,
        k in 2usize..5,
    ) {
        let reqs = session_trace(seed, sessions, 4.0);
        let config = spr_fleet(2, 12, 6).with_kv(KvConfig::new().with_capacity_blocks(1500));
        let shards = shard_fleet(&config, &reqs, k);
        let make: &(dyn Fn(usize) -> Box<dyn RouterPolicy> + Sync) =
            &|_| Box::new(PrefixAware::new());
        let serial = simulate_shards(&shards, make, 1);
        for threads in [2usize, 4] {
            let parallel = simulate_shards(&shards, make, threads);
            prop_assert_eq!(serial.render(), parallel.render());
            prop_assert_eq!(serial.prefix_hit_tokens, parallel.prefix_hit_tokens);
            prop_assert_eq!(serial.preemptions, parallel.preemptions);
        }
        prop_assert_eq!(serial.outcomes.len(), reqs.len());
    }
}

/// Session traffic through a prefix-caching fleet actually shares KV:
/// the shared system prompts and per-session chains produce nonzero hit
/// tokens, and the saved prefill shortens the makespan relative to the
/// same fleet with caching off.
#[test]
fn prefix_caching_hits_and_helps_on_session_traffic() {
    let reqs = session_trace(42, 60, 2.0);
    let on = spr_fleet(2, 16, 8).with_kv(KvConfig::new().with_capacity_blocks(4000));
    let off = spr_fleet(2, 16, 8).with_kv(
        KvConfig::new()
            .with_capacity_blocks(4000)
            .with_prefix_caching(false),
    );
    let hit = simulate_fleet(&on, &mut JoinShortestQueue, &reqs);
    let cold = simulate_fleet(&off, &mut JoinShortestQueue, &reqs);
    assert!(
        hit.prefix_hit_tokens > 0,
        "session traffic must hit the prefix cache"
    );
    assert_eq!(cold.prefix_hit_tokens, 0);
    assert!(
        hit.makespan_s <= cold.makespan_s,
        "skipped prefill cannot lengthen the run: {} vs {}",
        hit.makespan_s,
        cold.makespan_s
    );
}

/// A pool far too small for the offered context forces preemptions, and
/// the run still terminates with every request resolved and wasted tokens
/// accounted.
#[test]
fn tight_pools_preempt_and_still_terminate() {
    let reqs = session_trace(7, 30, 4.0);
    let max_final = reqs
        .iter()
        .map(|r| (r.prompt_len + r.gen_len).div_ceil(16))
        .max()
        .unwrap();
    // Just enough for the biggest single sequence plus a little contention.
    let config = spr_fleet(1, 16, 8).with_kv(KvConfig::new().with_capacity_blocks(max_final + 8));
    let report = simulate_fleet(&config, &mut JoinShortestQueue, &reqs);
    assert_eq!(report.outcomes.len(), reqs.len());
    assert!(
        report.preemptions > 0,
        "a starved pool must preempt: {}",
        report.render()
    );
    assert!(report.wasted_tokens > 0, "preemption wastes partial decode");
}

/// A request that generates nothing still claims blocks for
/// `prompt_len + 1` tokens at dispatch, one block more than its context
/// when the prompt fills whole blocks. On a pool without that block,
/// routing rejects it; queued, it could never dispatch, and everything
/// behind it on the replica would wait forever. One block more and it
/// completes.
#[test]
fn zero_generation_request_without_its_dispatch_blocks_is_rejected_at_routing() {
    let reqs = [
        ClusterRequest {
            id: 0,
            arrival_s: 0.0,
            prompt_len: 16,
            gen_len: 0,
            ..ClusterRequest::default()
        },
        ClusterRequest {
            id: 1,
            arrival_s: 0.5,
            prompt_len: 8,
            gen_len: 4,
            ..ClusterRequest::default()
        },
    ];
    let backend: Arc<dyn CostModel + Send + Sync> = Arc::new(CpuBackend::paper_spr());
    let fleet = |blocks| {
        ClusterConfig::new(
            vec![ReplicaConfig::warm(backend.clone())],
            vec![families::opt_13b()],
        )
        .with_kv(KvConfig::new().with_capacity_blocks(blocks))
    };
    let states = |blocks| {
        let report = simulate_fleet(&fleet(blocks), &mut JoinShortestQueue, &reqs);
        let mut outcomes = report.outcomes.clone();
        outcomes.sort_by_key(|o| o.id);
        outcomes.iter().map(|o| o.state).collect::<Vec<_>>()
    };
    assert_eq!(
        states(1),
        [OutcomeState::Rejected, OutcomeState::Completed],
        "one block holds the second request but not the first's dispatch"
    );
    assert_eq!(
        states(2),
        [OutcomeState::Completed, OutcomeState::Completed]
    );
}

/// Traced KV runs emit well-formed span TSV whose new `prefix_hit_tokens`
/// and `preemptions` columns reconcile with the fleet-level counters:
/// rejected spans carry zeros, and summing the hit column over completed
/// spans reproduces `FleetReport::prefix_hit_tokens` exactly.
#[test]
fn traced_kv_spans_validate_and_reconcile_hit_columns() {
    let reqs = session_trace(9, 40, 2.0);
    let config = spr_fleet(1, 16, 8).with_kv(KvConfig::new().with_capacity_blocks(4000));
    let mut sink = VecSink::new();
    let report = simulate_fleet_traced(&config, &mut JoinShortestQueue, &reqs, &mut sink);
    let tsv = sink.to_tsv();
    assert_eq!(validate_tsv(&tsv), Ok(reqs.len()));
    let header = tsv.lines().next().unwrap();
    let col = |name: &str| {
        header
            .split('\t')
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("missing column {name}"))
    };
    let (hit_col, outcome_col) = (col("prefix_hit_tokens"), col("outcome"));
    let mut span_hits = 0u64;
    for line in tsv.lines().skip(1) {
        let fields: Vec<&str> = line.split('\t').collect();
        let hits: u64 = fields[hit_col].parse().unwrap();
        if fields[outcome_col] == "completed" {
            span_hits += hits;
        } else {
            assert_eq!(hits, 0, "non-completed span with hit tokens: {line}");
        }
    }
    assert!(report.prefix_hit_tokens > 0, "session trace must hit");
    assert_eq!(span_hits, report.prefix_hit_tokens);
}

/// `ClusterConfig::validate` rejects a queue cap smaller than the batch
/// width instead of silently truncating the batch.
#[test]
#[should_panic(expected = "queue_cap")]
fn queue_cap_below_max_batch_is_rejected() {
    let backend: Arc<dyn CostModel + Send + Sync> = Arc::new(CpuBackend::paper_spr());
    let cfg = ReplicaConfig::warm(backend)
        .with_queue_cap(2)
        .with_max_batch(8);
    let config = ClusterConfig::new(vec![cfg], vec![families::opt_13b()]);
    let reqs = session_trace(1, 2, 1.0);
    let _ = simulate_fleet(&config, &mut JoinShortestQueue, &reqs);
}
