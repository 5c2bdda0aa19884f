//! Pipeline-parallel stage chains: degenerate single-stage groups must be
//! byte-identical to plain replicas, two-stage chains must actually
//! pipeline (higher throughput than one replica, bubbles and handoffs
//! accounted), and the config layer must reject every composition the
//! engine does not model.

use llmsim_cluster::{
    simulate_fleet, AutoscaleConfig, ChaosConfig, ClusterConfig, ClusterRequest, FleetReport,
    HeteroAware, JoinShortestQueue, KvConfig, PipelineConfig, PipelineGroup, ReplicaConfig,
    RoundRobin, RouterPolicy,
};
use llmsim_core::{CostModel, CpuBackend};
use llmsim_hw::presets::upi_link;
use llmsim_model::families;
use proptest::prelude::*;
use std::sync::Arc;

fn spr() -> Arc<dyn CostModel + Send + Sync> {
    Arc::new(CpuBackend::paper_spr())
}

fn fleet(n: usize) -> Vec<ReplicaConfig> {
    (0..n)
        .map(|_| {
            ReplicaConfig::warm(spr())
                .with_queue_cap(32)
                .with_max_batch(1)
        })
        .collect()
}

fn trace(n: usize, gap_s: f64) -> Vec<ClusterRequest> {
    (0..n)
        .map(|i| ClusterRequest {
            id: i,
            arrival_s: i as f64 * gap_s,
            prompt_len: 128 + 17 * (i as u64 % 5),
            gen_len: 16 + 3 * (i as u64 % 3),
            ..ClusterRequest::default()
        })
        .collect()
}

/// A depth-1 "chain" is a plain replica: outcomes, replica stats, and the
/// rendered report must match the pipeline-free run byte for byte — the
/// issue's 1e-9 bound is the loose form of what we actually guarantee.
#[test]
fn single_stage_group_is_byte_identical_to_standalone_replica() {
    let plain = ClusterConfig::new(fleet(1), vec![families::opt_13b()]);
    let piped = ClusterConfig::new(fleet(1), vec![families::opt_13b()]).with_pipeline(
        PipelineConfig::new(vec![PipelineGroup::new(vec![0], upi_link())]),
    );
    let reqs = trace(12, 0.05);
    let a = simulate_fleet(&plain, &mut RoundRobin::new(), &reqs);
    let b = simulate_fleet(&piped, &mut RoundRobin::new(), &reqs);
    assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
    assert_eq!(format!("{:?}", a.replicas), format!("{:?}", b.replicas));
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        if let (Some(ex), Some(ey)) = (x.e2e_s, y.e2e_s) {
            assert!((ex - ey).abs() < 1e-9);
        }
    }
    // The only permitted report difference is the gated pipeline line.
    assert!(!a.render().contains("pipeline_groups="));
    assert!(b.render().contains("pipeline_groups=1 pipeline_handoffs=0"));
}

/// A two-stage chain of identical sockets overlaps stage work across
/// requests: the makespan beats one replica serving the same closed trace,
/// every completed request crosses exactly one hop, and downstream idle
/// time lands in the bubble counter without going negative.
#[test]
fn two_stage_chain_pipelines_and_accounts_handoffs_and_bubbles() {
    let single = ClusterConfig::new(fleet(1), vec![families::opt_13b()]);
    let chain = ClusterConfig::new(fleet(2), vec![families::opt_13b()]).with_pipeline(
        PipelineConfig::new(vec![PipelineGroup::new(vec![0, 1], upi_link())]),
    );
    let reqs = trace(8, 0.0);
    let a = simulate_fleet(&single, &mut RoundRobin::new(), &reqs);
    let b = simulate_fleet(&chain, &mut RoundRobin::new(), &reqs);
    assert_eq!(a.completed(), reqs.len());
    assert_eq!(b.completed(), reqs.len());
    assert!(
        b.makespan_s < a.makespan_s,
        "two-stage chain should finish the closed trace faster: \
         chain {} s vs single {} s",
        b.makespan_s,
        a.makespan_s
    );
    assert_eq!(b.pipeline_handoffs, reqs.len() as u64);
    assert!(b.pipeline_bubble_s() >= 0.0);
    let line = b.render();
    assert!(line.contains("pipeline_groups=1"));
    assert!(line.contains(&format!("pipeline_handoffs={}", reqs.len())));
}

/// Routing never targets a downstream stage: the views advertise zero
/// capacity for non-heads, and even a hostile policy that insists on the
/// downstream index gets filtered — its requests are rejected instead of
/// injected mid-chain.
#[test]
fn router_only_sees_stage_heads() {
    struct InsistOnDownstream {
        saw_downstream_cap: usize,
    }
    impl RouterPolicy for InsistOnDownstream {
        fn name(&self) -> String {
            "insist-on-downstream".into()
        }
        fn route(
            &mut self,
            _req: &ClusterRequest,
            views: &[llmsim_cluster::ReplicaView],
        ) -> Option<usize> {
            // Replica 1 is the downstream stage of group 0.
            self.saw_downstream_cap += views[1].queue_cap;
            Some(1)
        }
    }
    let config = ClusterConfig::new(fleet(3), vec![families::opt_13b()]).with_pipeline(
        PipelineConfig::new(vec![PipelineGroup::new(vec![0, 1], upi_link())]),
    );
    let reqs = trace(10, 0.01);
    let mut hostile = InsistOnDownstream {
        saw_downstream_cap: 0,
    };
    let report = simulate_fleet(&config, &mut hostile, &reqs);
    assert_eq!(
        hostile.saw_downstream_cap, 0,
        "non-head advertised capacity"
    );
    assert_eq!(report.completed(), 0);
    assert_eq!(report.pipeline_handoffs, 0);

    // Sane policies keep working: every completed request finishes on the
    // chain's tail (1) or the spare plain replica (2), never the head.
    for mut router in [
        Box::new(RoundRobin::new()) as Box<dyn RouterPolicy>,
        Box::new(JoinShortestQueue),
        Box::new(HeteroAware),
    ] {
        let report = simulate_fleet(&config, &mut *router, &reqs);
        for o in &report.outcomes {
            if let Some(r) = o.replica {
                assert_ne!(r, 0, "request {} reported finishing on a head stage", o.id);
            }
        }
    }
}

/// The config layer rejects every composition the engine does not model:
/// chaos, paged KV, and autoscaling against a pipeline, plus malformed
/// groups (empty, out-of-range, overlapping).
#[test]
fn pipeline_rejects_unmodeled_compositions() {
    let base = || {
        ClusterConfig::new(fleet(2), vec![families::opt_13b()]).with_pipeline(PipelineConfig::new(
            vec![PipelineGroup::new(vec![0, 1], upi_link())],
        ))
    };
    let expect_reject = |config: ClusterConfig, needle: &str| {
        let err = config.validate().expect_err(needle).to_string();
        assert!(err.contains(needle), "expected {needle:?} in {err:?}");
    };
    // Even the passthrough chaos config is rejected: the engine takes a
    // chaos-free fast path that the pipeline code relies on.
    expect_reject(base().with_chaos(ChaosConfig::none(1)), "chaos");
    expect_reject(base().with_kv(KvConfig::new()), "paged KV");
    expect_reject(
        base().with_autoscale(AutoscaleConfig::default()),
        "autoscaling",
    );

    let malformed = [
        (
            PipelineConfig::new(vec![PipelineGroup::new(vec![], upi_link())]),
            "no stages",
        ),
        (
            PipelineConfig::new(vec![PipelineGroup::new(vec![0, 7], upi_link())]),
            "references replica",
        ),
        (
            PipelineConfig::new(vec![
                PipelineGroup::new(vec![0], upi_link()),
                PipelineGroup::new(vec![0, 1], upi_link()),
            ]),
            "disjoint",
        ),
    ];
    for (pipeline, needle) in malformed {
        expect_reject(
            ClusterConfig::new(fleet(2), vec![families::opt_13b()]).with_pipeline(pipeline),
            needle,
        );
    }
}

fn arb_trace() -> impl Strategy<Value = Vec<ClusterRequest>> {
    (1usize..16, 1u64..256, 1u64..24, 0u64..400).prop_map(|(n, p0, g0, gap_ms)| {
        (0..n)
            .map(|i| ClusterRequest {
                id: i,
                arrival_s: i as f64 * gap_ms as f64 / 1000.0,
                prompt_len: p0 + 11 * (i as u64 % 6),
                gen_len: g0 + 7 * (i as u64 % 3),
                ..ClusterRequest::default()
            })
            .collect()
    })
}

fn render_all(report: &FleetReport) -> String {
    format!(
        "{:?}\n{:?}\n{}",
        report.outcomes, report.replicas, report.makespan_s
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wrapping *every* replica of a fleet in its own depth-1 group is a
    /// no-op: byte-identical outcomes, replica stats, and makespan against
    /// the pipeline-free config, across random traces and fleet sizes.
    #[test]
    fn depth_one_groups_everywhere_are_a_noop(
        reqs in arb_trace(),
        n in 1usize..4,
        router_ix in 0usize..2,
    ) {
        let plain = ClusterConfig::new(fleet(n), vec![families::opt_13b()]);
        let groups = (0..n)
            .map(|i| PipelineGroup::new(vec![i], upi_link()))
            .collect();
        let piped = ClusterConfig::new(fleet(n), vec![families::opt_13b()])
            .with_pipeline(PipelineConfig::new(groups));
        let mut routers: [Box<dyn RouterPolicy>; 2] =
            [Box::new(RoundRobin::new()), Box::new(JoinShortestQueue)];
        let a = simulate_fleet(&plain, &mut *routers[router_ix], &reqs);
        let mut routers2: [Box<dyn RouterPolicy>; 2] =
            [Box::new(RoundRobin::new()), Box::new(JoinShortestQueue)];
        let b = simulate_fleet(&piped, &mut *routers2[router_ix], &reqs);
        prop_assert_eq!(render_all(&a), render_all(&b));
    }
}
