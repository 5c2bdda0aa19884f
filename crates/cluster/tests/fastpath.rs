//! Fast-path equivalence properties.
//!
//! The engine rewrite (slab allocation, memoized pricing, O(1) id
//! lookups, persistent router views) and the sharded parallel replay are
//! pure performance work: none of it may move a single byte of output.
//! These properties hold the fast engine to the preserved seed engine,
//! streaming span sinks to the buffered renderer, and the parallel shard
//! replay to its own serial execution, across randomly drawn
//! heterogeneous fleets, traces, routers, and chaos configurations.

use llmsim_cluster::{
    merge_reports, shard_fleet, simulate_fleet, simulate_fleet_legacy, simulate_fleet_traced,
    simulate_fleet_traced_legacy, simulate_shards, simulate_shards_traced, AutoscaleConfig,
    ChaosConfig, ClusterConfig, ClusterRequest, FaultInjection, HeteroAware, JoinShortestQueue,
    LeastOutstandingTokens, ReplicaConfig, ReplicaStart, RoundRobin, RouterPolicy, SloTargets,
};
use llmsim_core::resilience::RetryPolicy;
use llmsim_core::trace::span_log;
use llmsim_core::{CostModel, CpuBackend, GpuBackend, StreamSink, VecSink};
use llmsim_model::families;
use llmsim_workload::{synthesize, SyntheticSpec};
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

fn router(ix: usize) -> Box<dyn RouterPolicy> {
    match ix % 4 {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(JoinShortestQueue),
        2 => Box::new(LeastOutstandingTokens),
        _ => Box::new(HeteroAware),
    }
}

fn starts() -> [ReplicaStart; 3] {
    [
        ReplicaStart::Warm,
        ReplicaStart::Cold,
        ReplicaStart::Standby,
    ]
}

/// A chaos config exercising crashes, retries, and (optionally) hedging.
fn chaos(seed: u64, mtbf_s: f64, max_retries: u32, hedge: bool) -> ChaosConfig {
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
    if hedge {
        chaos.with_hedge(0.25)
    } else {
        chaos
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The rewritten engine is byte-identical to the preserved seed
    /// engine — report rendering, outcome-by-outcome debug formatting,
    /// per-replica stats, and the new event counters — including under
    /// crash/retry/hedge chaos, where any divergence in event or RNG
    /// ordering would cascade into visibly different outcomes.
    #[test]
    fn fast_engine_is_byte_identical_to_legacy(
        reqs in arb_trace(),
        n in 2usize..5,
        cap in 2usize..12,
        batch in 1u64..5,
        router_ix in 0usize..4,
        start_ix in 0usize..3,
        seed in any::<u64>(),
        mtbf_s in 3.0f64..30.0,
        max_retries in 0u32..4,
        hedge in any::<bool>(),
        chaos_on in any::<bool>(),
    ) {
        let mut config = fleet(n, cap, batch, starts()[start_ix]);
        if chaos_on {
            config = config.with_chaos(chaos(seed, mtbf_s, max_retries, hedge));
        }
        let legacy = simulate_fleet_legacy(&config, &mut *router(router_ix), &reqs);
        let fast = simulate_fleet(&config, &mut *router(router_ix), &reqs);
        prop_assert_eq!(legacy.render(), fast.render());
        prop_assert_eq!(
            format!("{:?}", legacy.outcomes),
            format!("{:?}", fast.outcomes)
        );
        prop_assert_eq!(
            format!("{:?}", legacy.replicas),
            format!("{:?}", fast.replicas)
        );
        prop_assert_eq!(legacy.events_processed, fast.events_processed);
        prop_assert_eq!(legacy.peak_in_flight, fast.peak_in_flight);
    }

    /// Both engines emit identical span logs, and the streaming sink's
    /// incremental TSV/JSONL bytes match rendering the same spans through
    /// the buffered `span_log` path — even with a pathologically small
    /// flush threshold forcing a write every record.
    #[test]
    fn traced_spans_and_streaming_bytes_are_identical(
        reqs in arb_trace(),
        n in 2usize..5,
        cap in 2usize..12,
        batch in 1u64..5,
        router_ix in 0usize..4,
        start_ix in 0usize..3,
        buf in 1usize..64,
    ) {
        let config = fleet(n, cap, batch, starts()[start_ix]);
        let mut fast_spans = VecSink::new();
        let fast = simulate_fleet_traced(&config, &mut *router(router_ix), &reqs, &mut fast_spans);
        let mut legacy_spans = VecSink::new();
        let legacy = simulate_fleet_traced_legacy(
            &config,
            &mut *router(router_ix),
            &reqs,
            &mut legacy_spans,
        );
        prop_assert_eq!(legacy.render(), fast.render());
        prop_assert_eq!(legacy_spans.to_tsv(), fast_spans.to_tsv());
        prop_assert_eq!(legacy_spans.to_jsonl(), fast_spans.to_jsonl());

        // Streaming vs buffered: same run, same bytes, no sorting — the
        // comparison target is the emission-order render.
        let mut tsv = StreamSink::tsv(Vec::new()).with_buffer_bytes(buf);
        let traced = simulate_fleet_traced(&config, &mut *router(router_ix), &reqs, &mut tsv);
        prop_assert_eq!(traced.render(), fast.render());
        let tsv_bytes = tsv.finish_into().expect("stream sink io error");
        prop_assert_eq!(
            String::from_utf8_lossy(&tsv_bytes).into_owned(),
            span_log(&fast_spans.spans).to_tsv()
        );

        let mut jsonl = StreamSink::jsonl(Vec::new()).with_buffer_bytes(buf);
        let _ = simulate_fleet_traced(&config, &mut *router(router_ix), &reqs, &mut jsonl);
        let jsonl_bytes = jsonl.finish_into().expect("stream sink io error");
        prop_assert_eq!(
            String::from_utf8_lossy(&jsonl_bytes).into_owned(),
            span_log(&fast_spans.spans).to_jsonl()
        );
    }

    /// Parallel shard replay is invariant to the worker thread count —
    /// 1, 2, and 4 threads produce byte-identical merged reports and
    /// span logs — and matches the hand-rolled serial fold over
    /// per-shard `simulate_fleet` runs.
    #[test]
    fn sharded_replay_is_thread_count_invariant(
        reqs in arb_trace(),
        n in 2usize..5,
        cap in 2usize..12,
        batch in 1u64..5,
        router_ix in 0usize..4,
        k in 1usize..5,
        seed in any::<u64>(),
        chaos_on in any::<bool>(),
    ) {
        let mut config = fleet(n, cap, batch, ReplicaStart::Warm);
        if chaos_on {
            config = config.with_chaos(chaos(seed, 10.0, 2, false));
        }
        let shards = shard_fleet(&config, &reqs, k);
        let make: &(dyn Fn(usize) -> Box<dyn RouterPolicy> + Sync) = &|_| router(router_ix);

        let serial = simulate_shards(&shards, make, 1);
        for threads in [2usize, 4] {
            let parallel = simulate_shards(&shards, make, threads);
            prop_assert_eq!(serial.render(), parallel.render());
            prop_assert_eq!(
                format!("{:?}", serial.outcomes),
                format!("{:?}", parallel.outcomes)
            );
        }

        // The merge is nothing more than the in-order fold of independent
        // single-fleet runs.
        let folded = merge_reports(
            &shards,
            shards
                .iter()
                .enumerate()
                .map(|(ix, s)| simulate_fleet(&s.config, &mut *make(ix), &s.requests))
                .collect(),
        );
        prop_assert_eq!(serial.render(), folded.render());
        prop_assert_eq!(
            format!("{:?}", serial.outcomes),
            format!("{:?}", folded.outcomes)
        );
        prop_assert_eq!(serial.outcomes.len(), reqs.len());

        // Traced shards: per-shard span logs are thread-count invariant
        // and carry source ids.
        let mut sinks_a: Vec<VecSink> = (0..shards.len()).map(|_| VecSink::new()).collect();
        let mut sinks_b: Vec<VecSink> = (0..shards.len()).map(|_| VecSink::new()).collect();
        let ta = simulate_shards_traced(&shards, make, 1, &mut sinks_a);
        let tb = simulate_shards_traced(&shards, make, 3, &mut sinks_b);
        prop_assert_eq!(ta.render(), tb.render());
        prop_assert_eq!(ta.render(), serial.render());
        for (a, b) in sinks_a.iter().zip(&sinks_b) {
            prop_assert_eq!(a.to_tsv(), b.to_tsv());
        }
        let seen: usize = sinks_a.iter().map(|s| s.spans.len()).sum();
        prop_assert_eq!(seen, reqs.len());
    }
}

/// The drawn traces above are short and linearly shaped, and give every
/// replica its own backend `Arc`. This seeded case holds the engines to
/// each other on the benchmark's shape instead: a `service_day` trace
/// (MMPP bursts, log-normal length classes) on warm replicas that share
/// backend `Arc`s, so prediction groups span several replicas. Two fleets
/// run it: two SPR replicas sharing one `Arc` (the whole fleet one group)
/// under JSQ, and SPR, A100, SPR, A100 on two interleaved `Arc`s (each
/// group's replicas non-adjacent) under `HeteroAware`, which reads the
/// per-group service estimates. Every replica serves and the bursts
/// overflow the queues, so the admission path runs too.
#[test]
fn fast_engine_matches_legacy_on_a_shared_group_service_day_trace() {
    let spr: Arc<dyn CostModel + Send + Sync> = Arc::new(CpuBackend::paper_spr());
    let a100: Arc<dyn CostModel + Send + Sync> = Arc::new(GpuBackend::paper_a100());
    let shared = ClusterConfig::new(
        vec![
            ReplicaConfig::warm(spr.clone()),
            ReplicaConfig::warm(spr.clone()),
        ],
        vec![families::opt_13b()],
    );
    let interleaved = ClusterConfig::new(
        [&spr, &a100, &spr, &a100]
            .into_iter()
            .map(|b| ReplicaConfig::warm(b.clone()))
            .collect(),
        vec![families::opt_13b()],
    );
    let reqs: Vec<ClusterRequest> = synthesize(&SyntheticSpec::service_day(0x0E16_13E5, 300, 1.5))
        .into_iter()
        .enumerate()
        .map(|(i, r)| ClusterRequest {
            id: i,
            arrival_s: r.arrival_s,
            prompt_len: r.prompt_len,
            gen_len: r.gen_len,
            ..ClusterRequest::default()
        })
        .collect();
    // `router(1)` is JSQ, `router(3)` is `HeteroAware`.
    for (config, router_ix) in [(&shared, 1), (&interleaved, 3)] {
        let legacy = simulate_fleet_legacy(config, &mut *router(router_ix), &reqs);
        let fast = simulate_fleet(config, &mut *router(router_ix), &reqs);
        assert!(fast.completed() > 0 && fast.rejected() > 0);
        assert!(fast.replicas.iter().all(|r| r.served > 0));
        assert_eq!(legacy.render(), fast.render());
        assert_eq!(
            format!("{:?}", legacy.outcomes),
            format!("{:?}", fast.outcomes)
        );
        assert_eq!(
            format!("{:?}", legacy.replicas),
            format!("{:?}", fast.replicas)
        );
        assert_eq!(legacy.events_processed, fast.events_processed);
        assert_eq!(legacy.peak_in_flight, fast.peak_in_flight);
    }
}
