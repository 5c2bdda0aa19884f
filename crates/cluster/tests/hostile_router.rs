//! A policy that ignores its views cannot place work the views hide.
//!
//! [`Fixed`] always names one index. Each test aims it at one way a
//! replica is hidden from routing: at its `queue_cap`, inside a partition
//! window, on standby, with a KV pool smaller than the request, past the
//! end of the fleet, and, for a hedge, already holding the primary. The
//! hidden choice must end as a rejection (or an unhedged request), never
//! as an admission; where a later request finds the same replica visible,
//! it is admitted, so the rejection is the hiding and not the policy.

use llmsim_cluster::{
    simulate_fleet, ChaosConfig, ClusterConfig, ClusterRequest, FaultEvent, FaultKind, FleetReport,
    KvConfig, OutcomeState, ReplicaConfig, ReplicaView, RouterPolicy,
};
use llmsim_core::{CostModel, CpuBackend};
use llmsim_model::families;
use std::sync::Arc;

/// Routes every request to replica `index`, whatever the views say, and
/// counts the calls.
struct Fixed {
    index: usize,
    calls: usize,
}

fn fixed(index: usize) -> Fixed {
    Fixed { index, calls: 0 }
}

impl RouterPolicy for Fixed {
    fn name(&self) -> String {
        format!("fixed({})", self.index)
    }

    fn route(&mut self, _request: &ClusterRequest, _replicas: &[ReplicaView]) -> Option<usize> {
        self.calls += 1;
        Some(self.index)
    }
}

fn spr() -> Arc<dyn CostModel + Send + Sync> {
    Arc::new(CpuBackend::paper_spr())
}

fn config(replicas: Vec<ReplicaConfig>) -> ClusterConfig {
    ClusterConfig::new(replicas, vec![families::opt_1_3b()])
}

fn req(id: usize, arrival_s: f64, prompt_len: u64) -> ClusterRequest {
    ClusterRequest {
        id,
        arrival_s,
        prompt_len,
        gen_len: 4,
        ..ClusterRequest::default()
    }
}

/// Request `id` was turned away at routing and never reached a replica.
fn assert_rejected(report: &FleetReport, id: usize) {
    let o = &report.outcomes[id];
    assert_eq!(o.state, OutcomeState::Rejected, "request {id}: {o:?}");
    assert_eq!(o.replica, None, "request {id}: {o:?}");
}

/// Request `id` completed on replica `replica`.
fn assert_served(report: &FleetReport, id: usize, replica: usize) {
    let o = &report.outcomes[id];
    assert_eq!(o.state, OutcomeState::Completed, "request {id}: {o:?}");
    assert_eq!(o.replica, Some(replica), "request {id}: {o:?}");
}

#[test]
fn a_full_replica_rejects_the_choice() {
    let fleet = config(vec![ReplicaConfig::warm(spr())
        .with_queue_cap(1)
        .with_max_batch(1)]);
    // Request 0 fills the only slot; request 1 arrives while it serves.
    let reqs = [req(0, 0.0, 64), req(1, 0.0, 64)];
    let report = simulate_fleet(&fleet, &mut fixed(0), &reqs);
    assert_served(&report, 0, 0);
    assert_rejected(&report, 1);
    assert_eq!(report.replicas[0].served, 1);
}

#[test]
fn a_partitioned_replica_rejects_the_choice() {
    let partition = FaultEvent {
        replica: 0,
        at_s: 0.0,
        kind: FaultKind::Partition { duration_s: 10.0 },
    };
    let fleet = config(vec![ReplicaConfig::warm(spr()), ReplicaConfig::warm(spr())])
        .with_chaos(ChaosConfig::none(1).with_schedule(vec![partition]));
    let reqs = [req(0, 0.5, 64), req(1, 9.5, 64), req(2, 20.0, 64)];
    let report = simulate_fleet(&fleet, &mut fixed(0), &reqs);
    assert_rejected(&report, 0);
    assert_rejected(&report, 1);
    // The window has closed: the same choice is admitted.
    assert_served(&report, 2, 0);
    assert_eq!(report.replicas[1].served, 0);
}

#[test]
fn a_standby_rejects_the_choice() {
    let fleet = config(vec![
        ReplicaConfig::standby(spr()),
        ReplicaConfig::warm(spr()),
    ]);
    let reqs = [req(0, 0.0, 64), req(1, 1.0, 64)];
    let report = simulate_fleet(&fleet, &mut fixed(0), &reqs);
    assert_rejected(&report, 0);
    assert_rejected(&report, 1);
    assert_eq!(report.replicas[0].served + report.replicas[1].served, 0);
}

#[test]
fn a_pool_smaller_than_the_request_rejects_the_choice() {
    let fleet =
        config(vec![ReplicaConfig::warm(spr())]).with_kv(KvConfig::new().with_capacity_blocks(1));
    // 128 prompt tokens need 9 blocks of 16; 8 + 4 tokens fit in one.
    let reqs = [req(0, 0.0, 128), req(1, 1.0, 8)];
    let report = simulate_fleet(&fleet, &mut fixed(0), &reqs);
    assert_rejected(&report, 0);
    assert_served(&report, 1, 0);
}

#[test]
fn an_index_past_the_fleet_rejects_the_choice() {
    let fleet = config(vec![ReplicaConfig::warm(spr()), ReplicaConfig::warm(spr())]);
    for index in [2, usize::MAX] {
        let report = simulate_fleet(&fleet, &mut fixed(index), &[req(0, 0.0, 64)]);
        assert_rejected(&report, 0);
    }
}

#[test]
fn a_hedge_aimed_at_its_primary_is_not_sent() {
    let fleet = config(vec![ReplicaConfig::warm(spr()), ReplicaConfig::warm(spr())])
        .with_chaos(ChaosConfig::none(1).with_hedge(0.25));
    let mut router = fixed(0);
    let report = simulate_fleet(&fleet, &mut router, &[req(0, 0.0, 64)]);
    assert_eq!(router.calls, 2, "the hedge fired and asked the router");
    assert_served(&report, 0, 0);
    assert!(!report.outcomes[0].hedged);
    assert_eq!(report.hedges, 0);
    assert_eq!(report.replicas[0].served, 1);
}
