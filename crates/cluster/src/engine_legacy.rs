//! The seed fleet engine, kept as the fast path's reference
//! implementation.
//!
//! This is the pre-rewrite `simulate_fleet` preserved byte-for-byte in
//! behavior: O(n) request-id scans on every event, a fresh router
//! snapshot (names and all) allocated per routing decision, in-flight
//! records moved inline through each replica's queue, un-memoized
//! cost-model pricing on every arrival, and epoch-checked completion
//! events scanned linearly out of `active`. The fast path's correctness
//! bar is byte-identical reports and spans against this module
//! (proptested in `tests/fastpath.rs`, plus one seeded `service_day`
//! case on a shared prediction group).
//!
//! Pricing goes through the same [`predict_service_s`] as the fast
//! engine, so any divergence is a scheduling bug, never a pricing drift.

use crate::autoscale::{FleetGauge, ScaleDecision};
use crate::engine::{
    partial_tokens, predict_service_s, ClusterConfig, ClusterRequest, RETRY_JITTER_STREAM,
};
use crate::event::{EventKind, EventQueue};
use crate::faults::{ChaosConfig, FaultKind};
use crate::metrics::{ClusterOutcome, FleetReport, OutcomeState, ReplicaStats};
use crate::replica::{InFlight, ReplicaConfig, ReplicaStart, ReplicaState};
use crate::router::{HealthSignal, ReplicaView, RouterPolicy};
use llmsim_core::resilience::SimRng;
use llmsim_core::trace::{NullSink, SpanOutcome, SpanRecord, SpanSink};
use llmsim_model::ModelConfig;
use std::collections::VecDeque;

/// Runtime state of one replica, seed layout: in-flight records live
/// inline in the queue and active collections (the fast engine moved them
/// into a slab and keys the collections instead).
#[derive(Debug)]
struct LegacyReplica {
    cfg: ReplicaConfig,
    state: ReplicaState,
    queue: VecDeque<InFlight>,
    active: Vec<InFlight>,
    outstanding_tokens: u64,
    queued_backlog_s: f64,
    busy_slot_s: f64,
    dispatched: u64,
    warmups: u64,
    idle_ticks: u32,
    epoch: u64,
    crashes: u64,
    slow_until_s: f64,
    slow_factor: f64,
    partitioned_until_s: f64,
}

impl LegacyReplica {
    fn new(cfg: ReplicaConfig) -> Self {
        let state = match cfg.start {
            ReplicaStart::Warm | ReplicaStart::Cold => ReplicaState::Warm,
            ReplicaStart::Standby => ReplicaState::Standby,
        };
        LegacyReplica {
            cfg,
            state,
            queue: VecDeque::new(),
            active: Vec::new(),
            outstanding_tokens: 0,
            queued_backlog_s: 0.0,
            busy_slot_s: 0.0,
            dispatched: 0,
            warmups: 0,
            idle_ticks: 0,
            epoch: 0,
            crashes: 0,
            slow_until_s: f64::NEG_INFINITY,
            slow_factor: 1.0,
            partitioned_until_s: f64::NEG_INFINITY,
        }
    }

    fn in_flight(&self) -> usize {
        self.queue.len() + self.active.len()
    }

    fn can_accept(&self, now_s: f64) -> bool {
        self.routable(now_s) && self.in_flight() < self.cfg.queue_cap
    }

    fn routable(&self, now_s: f64) -> bool {
        matches!(
            self.state,
            ReplicaState::Warm | ReplicaState::Warming { .. }
        ) && now_s >= self.partitioned_until_s
    }

    fn can_dispatch(&self) -> bool {
        matches!(self.state, ReplicaState::Warm | ReplicaState::Draining)
    }

    fn slowdown_at(&self, now_s: f64) -> f64 {
        if now_s < self.slow_until_s {
            self.slow_factor
        } else {
            1.0
        }
    }

    fn warmup_remaining_s(&self, now_s: f64) -> f64 {
        match self.state {
            ReplicaState::Warming { ready_at_s } | ReplicaState::Failed { ready_at_s } => {
                (ready_at_s - now_s).max(0.0)
            }
            _ => 0.0,
        }
    }

    fn est_start_delay_s(&self, now_s: f64) -> f64 {
        let slot_free_s = if (self.active.len() as u64) < self.cfg.max_batch {
            0.0
        } else {
            self.active
                .iter()
                .map(|a| a.completion_s - now_s)
                .fold(f64::INFINITY, f64::min)
                .max(0.0)
        };
        let drain_s = self.queued_backlog_s / self.cfg.max_batch as f64;
        (slot_free_s + drain_s).max(self.warmup_remaining_s(now_s))
    }
}

/// Engine-side per-request bookkeeping across crash retries and hedges.
#[derive(Debug, Clone, Default)]
struct ReqRuntime {
    resolved: bool,
    retries: u32,
    hedged: bool,
    /// At most two entries: the primary and one hedge.
    attempts: Vec<usize>,
}

/// The seed implementation of [`crate::simulate_fleet`], kept as the
/// performance baseline. Byte-identical output (proptested); see the
/// module docs for what the fast path changed.
///
/// # Panics
///
/// Panics under the same conditions as [`crate::simulate_fleet`].
pub fn simulate_fleet_legacy(
    config: &ClusterConfig,
    router: &mut dyn RouterPolicy,
    requests: &[ClusterRequest],
) -> FleetReport {
    simulate_fleet_traced_legacy(config, router, requests, &mut NullSink)
}

/// [`simulate_fleet_legacy`] with per-request span tracing.
///
/// # Panics
///
/// Panics under the same conditions as [`crate::simulate_fleet`].
pub fn simulate_fleet_traced_legacy(
    config: &ClusterConfig,
    router: &mut dyn RouterPolicy,
    requests: &[ClusterRequest],
    sink: &mut dyn SpanSink,
) -> FleetReport {
    assert!(!config.replicas.is_empty(), "fleet must have replicas");
    assert!(!config.models.is_empty(), "fleet must serve models");
    let validated = config.validate();
    assert!(
        validated.is_ok(),
        "invalid cluster config: {}",
        validated.unwrap_err()
    );
    assert!(
        config.kv.is_none(),
        "paged KV is a fast-engine feature; the legacy engine exists to pin \
         the pre-KV seed semantics — run simulate_fleet instead"
    );
    assert!(
        config.pipeline.is_none(),
        "pipeline parallelism is a fast-engine feature; the legacy engine \
         exists to pin the pre-pipeline seed semantics — run simulate_fleet \
         instead"
    );
    for r in requests {
        assert!(
            r.model < config.models.len(),
            "request {} references model {} but the fleet serves {}",
            r.id,
            r.model,
            config.models.len()
        );
    }

    let chaos = config.chaos.clone().unwrap_or_else(|| ChaosConfig::none(0));
    let fault_schedule = chaos.schedule_for(config.replicas.len());
    let mut retry_rng = SimRng::derive(chaos.seed, RETRY_JITTER_STREAM);
    let mut retry_budget_left: Option<u64> = chaos.retry.retry_budget;

    let mut replicas: Vec<LegacyReplica> = config
        .replicas
        .iter()
        .map(|cfg| LegacyReplica::new(cfg.clone()))
        .collect();
    let mut queue = EventQueue::new();

    // Cold starters begin paging weights at t = 0.
    for (i, replica) in replicas.iter_mut().enumerate() {
        if replica.cfg.start == ReplicaStart::Cold {
            let ready = replica.cfg.warmup_time(&config.models).as_f64();
            replica.state = ReplicaState::Warming { ready_at_s: ready };
            replica.warmups += 1;
            queue.push(ready, EventKind::WarmupDone { replica: i });
        }
    }
    for (i, f) in fault_schedule.iter().enumerate() {
        queue.push(f.at_s, EventKind::Fault { fault: i });
    }
    for req in requests {
        queue.push(req.arrival_s, EventKind::Arrival { request: req.id });
    }
    if let Some(auto) = &config.autoscale {
        queue.push(auto.interval_s, EventKind::ScaleTick);
    }

    // The seed engine's O(n) lookup, kept on purpose: replacing it with
    // an index is one of the fast path's headline wins, and the baseline
    // has to keep paying for it to be an honest baseline.
    let by_id = |id: usize| -> &ClusterRequest {
        let pos = requests.iter().position(|r| r.id == id);
        assert!(pos.is_some(), "request ids must be unique and present");
        &requests[pos.unwrap_or(0)]
    };

    let mut outcomes: Vec<Option<ClusterOutcome>> = vec![None; requests.len()];
    let mut runtime: Vec<ReqRuntime> = vec![ReqRuntime::default(); requests.len()];
    let mut resolved = 0usize;
    let mut makespan_s = 0.0f64;
    let mut scale_ups = 0u64;
    let mut scale_downs = 0u64;
    let mut wasted_tokens = 0u64;
    let mut retries_total = 0u64;
    let mut hedges_total = 0u64;
    let mut events_processed = 0u64;
    let mut peak_in_flight = 0u64;

    sink.hint_len(requests.len());

    while let Some(event) = queue.pop() {
        events_processed += 1;
        let now = event.time_s;
        match event.kind {
            EventKind::KvGrow { .. } => {
                unreachable!("legacy engine rejects paged-KV configs at entry")
            }
            EventKind::StageArrive { .. } => {
                unreachable!("legacy engine rejects pipeline configs at entry")
            }
            EventKind::Arrival { request } => {
                let req = *by_id(request);
                match route_once(&req, now, &[], &replicas, config, router) {
                    Some(i) => {
                        admit(
                            i,
                            &req,
                            now,
                            &mut replicas,
                            config,
                            requests,
                            &mut queue,
                            sink,
                        );
                        runtime[request].attempts.push(i);
                        if let Some(h) = &chaos.hedge {
                            let deadline_s = match &config.slo {
                                Some(slo) => slo.e2e_s,
                                None => predict_service_s(
                                    replicas[i].cfg.backend.as_ref(),
                                    &config.models[req.model],
                                    1,
                                    req.prompt_len,
                                    req.gen_len,
                                ),
                            };
                            queue.push(
                                req.arrival_s + h.after_frac * deadline_s,
                                EventKind::HedgeFire { request },
                            );
                        }
                    }
                    None => {
                        outcomes[request] = Some(ClusterOutcome {
                            id: request,
                            model: req.model,
                            replica: None,
                            state: OutcomeState::Rejected,
                            queue_delay_s: None,
                            ttft_s: None,
                            e2e_s: None,
                            tokens: 0,
                            retries: 0,
                            hedged: false,
                        });
                        runtime[request].resolved = true;
                        resolved += 1;
                        if sink.enabled() {
                            sink.record(SpanRecord::rejected(
                                request as u64,
                                req.model,
                                req.arrival_s,
                            ));
                        }
                    }
                }
            }
            EventKind::Retry { request } => {
                if runtime[request].resolved {
                    continue;
                }
                let req = *by_id(request);
                match route_once(&req, now, &[], &replicas, config, router) {
                    Some(i) => {
                        admit(
                            i,
                            &req,
                            now,
                            &mut replicas,
                            config,
                            requests,
                            &mut queue,
                            sink,
                        );
                        runtime[request].attempts.push(i);
                    }
                    None => retry_or_fail(
                        request,
                        now,
                        &req,
                        &chaos,
                        &mut runtime,
                        &mut retry_budget_left,
                        &mut retry_rng,
                        &mut retries_total,
                        &mut queue,
                        &mut outcomes,
                        &mut resolved,
                        &mut makespan_s,
                        sink,
                    ),
                }
            }
            EventKind::HedgeFire { request } => {
                let rt = &runtime[request];
                if rt.resolved || rt.hedged || rt.attempts.is_empty() {
                    continue;
                }
                let exclude = rt.attempts.clone();
                let req = *by_id(request);
                if let Some(i) = route_once(&req, now, &exclude, &replicas, config, router) {
                    runtime[request].hedged = true;
                    hedges_total += 1;
                    admit(
                        i,
                        &req,
                        now,
                        &mut replicas,
                        config,
                        requests,
                        &mut queue,
                        sink,
                    );
                    runtime[request].attempts.push(i);
                }
            }
            EventKind::WarmupDone { replica } => {
                if let ReplicaState::Warming { ready_at_s } = replicas[replica].state {
                    if ready_at_s <= now {
                        replicas[replica].state = ReplicaState::Warm;
                        try_dispatch(
                            replica,
                            now,
                            &mut replicas,
                            config,
                            requests,
                            &mut queue,
                            sink,
                        );
                    }
                }
            }
            EventKind::Completion {
                replica,
                request,
                epoch,
            } => {
                if replicas[replica].epoch != epoch {
                    // Scheduled before a crash destroyed the attempt.
                    continue;
                }
                let Some(slot) = replicas[replica]
                    .active
                    .iter()
                    .position(|a| a.request == request)
                else {
                    // Hedge loser: cancelled when its twin won.
                    continue;
                };
                let inflight = replicas[replica].active.swap_remove(slot);
                let req = *by_id(request);
                replicas[replica].outstanding_tokens = replicas[replica]
                    .outstanding_tokens
                    .saturating_sub(req.total_tokens());
                makespan_s = makespan_s.max(now);
                resolved += 1;
                let rt = &mut runtime[request];
                rt.resolved = true;
                let losers: Vec<usize> = rt
                    .attempts
                    .iter()
                    .copied()
                    .filter(|&r| r != replica)
                    .collect();
                rt.attempts.clear();
                if let Some(mut out) = inflight.pending {
                    out.retries = rt.retries;
                    out.hedged = rt.hedged;
                    outcomes[request] = Some(out);
                }
                if let Some(span) = inflight.span {
                    sink.record(span);
                }
                router.observe(&HealthSignal::Success {
                    replica,
                    now_s: now,
                });
                for loser in losers {
                    wasted_tokens += cancel_attempt(loser, &req, now, &mut replicas);
                    try_dispatch(
                        loser,
                        now,
                        &mut replicas,
                        config,
                        requests,
                        &mut queue,
                        sink,
                    );
                }
                try_dispatch(
                    replica,
                    now,
                    &mut replicas,
                    config,
                    requests,
                    &mut queue,
                    sink,
                );
            }
            EventKind::SlotDone { .. } => {
                debug_assert!(
                    false,
                    "the legacy engine schedules Completion, never SlotDone"
                );
            }
            EventKind::Fault { fault } => {
                let f = fault_schedule[fault];
                match f.kind {
                    FaultKind::Crash => {
                        let r = &mut replicas[f.replica];
                        if matches!(r.state, ReplicaState::Standby | ReplicaState::Failed { .. }) {
                            // Parked or already down: nothing to kill.
                            continue;
                        }
                        r.epoch += 1;
                        r.crashes += 1;
                        r.warmups += 1;
                        let queued: Vec<InFlight> = r.queue.drain(..).collect();
                        let active: Vec<InFlight> = std::mem::take(&mut r.active);
                        r.outstanding_tokens = 0;
                        r.queued_backlog_s = 0.0;
                        // Refund unrun service; the partial run is waste.
                        for inf in &active {
                            r.busy_slot_s -= (inf.completion_s - now).max(0.0);
                            wasted_tokens += partial_tokens(inf, by_id(inf.request).gen_len, now);
                        }
                        let ready = now + r.cfg.warmup_time(&config.models).as_f64();
                        let epoch = r.epoch;
                        r.state = ReplicaState::Failed { ready_at_s: ready };
                        queue.push(
                            ready,
                            EventKind::RecoveryDone {
                                replica: f.replica,
                                epoch,
                            },
                        );
                        router.observe(&HealthSignal::Failure {
                            replica: f.replica,
                            now_s: now,
                        });
                        for inf in queued.iter().chain(active.iter()) {
                            let victim = inf.request;
                            let rt = &mut runtime[victim];
                            rt.attempts.retain(|&x| x != f.replica);
                            if rt.resolved || !rt.attempts.is_empty() {
                                // A hedge twin is still alive elsewhere.
                                continue;
                            }
                            let req = *by_id(victim);
                            retry_or_fail(
                                victim,
                                now,
                                &req,
                                &chaos,
                                &mut runtime,
                                &mut retry_budget_left,
                                &mut retry_rng,
                                &mut retries_total,
                                &mut queue,
                                &mut outcomes,
                                &mut resolved,
                                &mut makespan_s,
                                sink,
                            );
                        }
                    }
                    FaultKind::Slowdown { factor, duration_s } => {
                        let r = &mut replicas[f.replica];
                        r.slow_factor = factor;
                        r.slow_until_s = r.slow_until_s.max(now + duration_s);
                    }
                    FaultKind::Partition { duration_s } => {
                        let r = &mut replicas[f.replica];
                        r.partitioned_until_s = r.partitioned_until_s.max(now + duration_s);
                    }
                    FaultKind::Drain { duration_s } => {
                        let r = &mut replicas[f.replica];
                        if r.state == ReplicaState::Warm {
                            r.state = ReplicaState::Draining;
                            queue.push(
                                now + duration_s,
                                EventKind::DrainEnd {
                                    replica: f.replica,
                                    epoch: r.epoch,
                                },
                            );
                        }
                    }
                }
            }
            EventKind::RecoveryDone { replica, epoch } => {
                let r = &mut replicas[replica];
                if r.epoch != epoch {
                    // A second crash struck mid-recovery; its own
                    // RecoveryDone supersedes this one.
                    continue;
                }
                if matches!(r.state, ReplicaState::Failed { .. }) {
                    r.state = ReplicaState::Warm;
                    try_dispatch(
                        replica,
                        now,
                        &mut replicas,
                        config,
                        requests,
                        &mut queue,
                        sink,
                    );
                }
            }
            EventKind::DrainEnd { replica, epoch } => {
                let r = &mut replicas[replica];
                if r.epoch == epoch && r.state == ReplicaState::Draining {
                    r.state = ReplicaState::Warm;
                    try_dispatch(
                        replica,
                        now,
                        &mut replicas,
                        config,
                        requests,
                        &mut queue,
                        sink,
                    );
                }
            }
            EventKind::ScaleTick => {
                let Some(auto) = &config.autoscale else {
                    continue;
                };
                for r in replicas.iter_mut() {
                    if r.state == ReplicaState::Warm && r.in_flight() == 0 {
                        r.idle_ticks += 1;
                    } else {
                        r.idle_ticks = 0;
                    }
                }
                let gauge = FleetGauge {
                    active_replicas: replicas.iter().filter(|r| r.routable(now)).count(),
                    standby_replicas: replicas
                        .iter()
                        .filter(|r| r.state == ReplicaState::Standby)
                        .count(),
                    in_flight: replicas
                        .iter()
                        .filter(|r| r.routable(now))
                        .map(LegacyReplica::in_flight)
                        .sum(),
                    idle_eligible: replicas
                        .iter()
                        .filter(|r| {
                            r.state == ReplicaState::Warm
                                && r.in_flight() == 0
                                && r.idle_ticks >= auto.scale_down_idle_ticks
                        })
                        .count(),
                    failed_replicas: replicas
                        .iter()
                        .filter(|r| matches!(r.state, ReplicaState::Failed { .. }))
                        .count(),
                };
                match auto.decide(gauge) {
                    ScaleDecision::Up => {
                        if let Some(i) = replicas
                            .iter()
                            .position(|r| r.state == ReplicaState::Standby)
                        {
                            let ready = now + replicas[i].cfg.warmup_time(&config.models).as_f64();
                            replicas[i].state = ReplicaState::Warming { ready_at_s: ready };
                            replicas[i].warmups += 1;
                            scale_ups += 1;
                            queue.push(ready, EventKind::WarmupDone { replica: i });
                        }
                    }
                    ScaleDecision::Down => {
                        if let Some(i) = replicas.iter().position(|r| {
                            r.state == ReplicaState::Warm
                                && r.in_flight() == 0
                                && r.idle_ticks >= auto.scale_down_idle_ticks
                        }) {
                            replicas[i].state = ReplicaState::Standby;
                            replicas[i].idle_ticks = 0;
                            scale_downs += 1;
                        }
                    }
                    ScaleDecision::Hold => {}
                }
                // Keep ticking only while work remains unresolved.
                if resolved < requests.len() {
                    queue.push(now + auto.interval_s, EventKind::ScaleTick);
                }
            }
        }
        let in_flight_now: usize = replicas.iter().map(LegacyReplica::in_flight).sum();
        peak_in_flight = peak_in_flight.max(in_flight_now as u64);
    }
    sink.finish();

    debug_assert_eq!(resolved, requests.len(), "every request must terminate");
    let outcomes: Vec<ClusterOutcome> = outcomes.into_iter().flatten().collect();
    assert_eq!(
        outcomes.len(),
        requests.len(),
        "every request must have a terminal outcome"
    );

    let generated_tokens: u64 = outcomes.iter().map(|o| o.tokens).sum();
    let goodput_tokens: u64 = outcomes
        .iter()
        .filter(|o| match &config.slo {
            Some(slo) => o.meets_slo(slo),
            None => o.state == OutcomeState::Completed,
        })
        .map(|o| o.tokens)
        .sum();

    let crashes: u64 = replicas.iter().map(|r| r.crashes).sum();
    let replica_stats = replicas
        .iter()
        .map(|r| ReplicaStats {
            name: r.cfg.backend.name(),
            served: r.dispatched,
            busy_slot_s: r.busy_slot_s,
            utilization: if makespan_s > 0.0 {
                r.busy_slot_s / (makespan_s * r.cfg.max_batch as f64)
            } else {
                0.0
            },
            warmups: r.warmups,
            crashes: r.crashes,
            kv_peak_occupancy: 0.0,
            kv_mean_occupancy: 0.0,
            pipeline_bubble_s: 0.0,
        })
        .collect();

    FleetReport {
        router: router.name(),
        outcomes,
        makespan_s,
        generated_tokens,
        goodput_tokens,
        wasted_tokens,
        retries: retries_total,
        hedges: hedges_total,
        crashes,
        slo: config.slo,
        replicas: replica_stats,
        scale_ups,
        scale_downs,
        events_processed,
        peak_in_flight,
        prefix_hit_tokens: 0,
        preemptions: 0,
        pipeline_groups: 0,
        pipeline_handoffs: 0,
    }
}

/// Routes one attempt of `req` at `now_s`, allocating a fresh snapshot of
/// the whole fleet per call (the seed behavior the fast path's persistent
/// views replaced).
fn route_once(
    req: &ClusterRequest,
    now_s: f64,
    exclude: &[usize],
    replicas: &[LegacyReplica],
    config: &ClusterConfig,
    router: &mut dyn RouterPolicy,
) -> Option<usize> {
    let views: Vec<ReplicaView> = replicas
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut v = view_of(i, r, &config.models[req.model], req, now_s);
            if exclude.contains(&i) {
                v.queue_cap = 0;
            }
            v
        })
        .collect();
    router
        .route(req, &views)
        .filter(|&i| i < replicas.len() && replicas[i].can_accept(now_s) && !exclude.contains(&i))
}

/// Enqueues one attempt of `req` on replica `i` and dispatches if a slot
/// is free.
#[allow(clippy::too_many_arguments)]
fn admit(
    i: usize,
    req: &ClusterRequest,
    now_s: f64,
    replicas: &mut [LegacyReplica],
    config: &ClusterConfig,
    requests: &[ClusterRequest],
    queue: &mut EventQueue,
    sink: &mut dyn SpanSink,
) {
    let est = predict_service_s(
        replicas[i].cfg.backend.as_ref(),
        &config.models[req.model],
        1,
        req.prompt_len,
        req.gen_len,
    );
    replicas[i].queue.push_back(InFlight::queued(req.id, est));
    replicas[i].outstanding_tokens += req.total_tokens();
    replicas[i].queued_backlog_s += est;
    try_dispatch(i, now_s, replicas, config, requests, queue, sink);
}

/// Schedules another crash-recovery attempt for `request`, or terminates
/// it as failed when its per-request retries or the fleet-wide budget are
/// exhausted. Backoff is exponential with deterministic seeded jitter.
#[allow(clippy::too_many_arguments)]
fn retry_or_fail(
    request: usize,
    now_s: f64,
    req: &ClusterRequest,
    chaos: &ChaosConfig,
    runtime: &mut [ReqRuntime],
    retry_budget_left: &mut Option<u64>,
    retry_rng: &mut SimRng,
    retries_total: &mut u64,
    queue: &mut EventQueue,
    outcomes: &mut [Option<ClusterOutcome>],
    resolved: &mut usize,
    makespan_s: &mut f64,
    sink: &mut dyn SpanSink,
) {
    let rt = &mut runtime[request];
    let budget_ok = !matches!(*retry_budget_left, Some(0));
    if rt.retries < chaos.retry.max_retries && budget_ok {
        if let Some(b) = *retry_budget_left {
            *retry_budget_left = Some(b - 1);
        }
        rt.retries += 1;
        *retries_total += 1;
        let backoff_s = chaos.retry.base_backoff_s
            * chaos.retry.multiplier.powi(rt.retries as i32 - 1)
            * (1.0 + chaos.retry.jitter_frac * retry_rng.next_f64());
        queue.push(now_s + backoff_s, EventKind::Retry { request });
    } else {
        rt.resolved = true;
        *resolved += 1;
        *makespan_s = makespan_s.max(now_s);
        outcomes[request] = Some(ClusterOutcome {
            id: request,
            model: req.model,
            replica: None,
            state: OutcomeState::Failed,
            queue_delay_s: None,
            ttft_s: None,
            e2e_s: None,
            tokens: 0,
            retries: rt.retries,
            hedged: rt.hedged,
        });
        if sink.enabled() {
            sink.record(SpanRecord::failed(
                request as u64,
                req.model,
                req.arrival_s,
                now_s,
            ));
        }
    }
}

/// Removes a live attempt of `req` from replica `idx` (the hedge loser
/// after its twin won). Returns the attempt's partial generation as
/// wasted tokens — zero if it was still queued.
fn cancel_attempt(
    idx: usize,
    req: &ClusterRequest,
    now_s: f64,
    replicas: &mut [LegacyReplica],
) -> u64 {
    let r = &mut replicas[idx];
    if let Some(pos) = r.queue.iter().position(|q| q.request == req.id) {
        if let Some(inf) = r.queue.remove(pos) {
            r.queued_backlog_s = (r.queued_backlog_s - inf.est_service_s).max(0.0);
            r.outstanding_tokens = r.outstanding_tokens.saturating_sub(req.total_tokens());
        }
        0
    } else if let Some(pos) = r.active.iter().position(|a| a.request == req.id) {
        let inf = r.active.swap_remove(pos);
        r.outstanding_tokens = r.outstanding_tokens.saturating_sub(req.total_tokens());
        // Refund the unrun tail of the slot; the run-so-far is waste.
        r.busy_slot_s -= (inf.completion_s - now_s).max(0.0);
        partial_tokens(&inf, req.gen_len, now_s)
    } else {
        0
    }
}

/// Snapshot one replica for the router, pricing `req` on its backend.
fn view_of(
    idx: usize,
    replica: &LegacyReplica,
    model: &ModelConfig,
    req: &ClusterRequest,
    now_s: f64,
) -> ReplicaView {
    let routable = replica.routable(now_s);
    ReplicaView {
        idx,
        now_s,
        queue_len: replica.queue.len(),
        active: replica.active.len(),
        // Standbys (and failed, draining or partitioned replicas) are
        // invisible to routers: report zero capacity.
        queue_cap: if routable { replica.cfg.queue_cap } else { 0 },
        outstanding_tokens: replica.outstanding_tokens,
        est_start_delay_s: replica.est_start_delay_s(now_s),
        est_service_s: predict_service_s(
            replica.cfg.backend.as_ref(),
            model,
            1,
            req.prompt_len,
            req.gen_len,
        ),
        // The legacy engine predates paged KV (rejected at entry), so no
        // prefix-cache hit ever saves prefill.
        est_prefix_saved_s: 0.0,
    }
}

/// Moves queued requests into free batch slots on a warm (or draining)
/// replica, scheduling their completions. Service time is priced at the
/// batch width *after* admission, then scaled by any open slowdown
/// window. The outcome and span this attempt will report are computed
/// here — at dispatch — but emitted only when the completion event
/// survives to fire.
fn try_dispatch(
    idx: usize,
    now_s: f64,
    replicas: &mut [LegacyReplica],
    config: &ClusterConfig,
    requests: &[ClusterRequest],
    queue: &mut EventQueue,
    sink: &mut dyn SpanSink,
) {
    loop {
        let r = &mut replicas[idx];
        if !r.can_dispatch() || (r.active.len() as u64) >= r.cfg.max_batch || r.queue.is_empty() {
            return;
        }
        let Some(mut inflight) = r.queue.pop_front() else {
            return;
        };
        r.queued_backlog_s = (r.queued_backlog_s - inflight.est_service_s).max(0.0);

        // Another O(n) scan kept by design (see `by_id` above).
        let pos = requests.iter().position(|q| q.id == inflight.request);
        assert!(pos.is_some(), "dispatched request must exist");
        let req = &requests[pos.unwrap_or(0)];
        let model = &config.models[req.model];
        let batch = r.active.len() as u64 + 1;
        // Multiplying by the slowdown factor is exact: the factor is 1.0
        // outside any window, and x × 1.0 is bitwise x.
        let slow = r.slowdown_at(now_s);
        let prefill = r
            .cfg
            .backend
            .prefill_time(model, batch, req.prompt_len)
            .as_f64()
            * slow;
        let service = predict_service_s(
            r.cfg.backend.as_ref(),
            model,
            batch,
            req.prompt_len,
            req.gen_len,
        ) * slow;
        let queue_delay = now_s - req.arrival_s;
        let completion = now_s + service;

        r.busy_slot_s += service;
        r.dispatched += 1;
        inflight.completion_s = completion;
        inflight.dispatch_s = now_s;
        inflight.service_s = service;
        inflight.pending = Some(ClusterOutcome {
            id: req.id,
            model: req.model,
            replica: Some(idx),
            state: OutcomeState::Completed,
            queue_delay_s: Some(queue_delay),
            ttft_s: Some(queue_delay + prefill),
            e2e_s: Some(queue_delay + service),
            tokens: req.gen_len,
            retries: 0,
            hedged: false,
        });
        if sink.enabled() {
            inflight.span = Some(SpanRecord {
                id: req.id as u64,
                model: req.model,
                replica: Some(idx),
                outcome: SpanOutcome::Completed,
                arrival_s: req.arrival_s,
                queue_delay_s: queue_delay,
                dispatch_s: now_s,
                prefill_end_s: now_s + prefill,
                decode_s: service - prefill,
                decode_steps: req.gen_len.saturating_sub(1),
                completion_s: completion,
                batch_at_dispatch: batch,
                prefix_hit_tokens: 0,
                preemptions: 0,
            });
        }
        queue.push(
            completion,
            EventKind::Completion {
                replica: idx,
                request: req.id,
                epoch: r.epoch,
            },
        );
        r.active.push(inflight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_fleet;
    use crate::router::{JoinShortestQueue, RoundRobin};
    use llmsim_core::{CostModel, CpuBackend};
    use llmsim_model::families;
    use std::sync::Arc;

    fn cpu_fleet(n: usize) -> ClusterConfig {
        let replicas = (0..n)
            .map(|_| {
                ReplicaConfig::warm(
                    Arc::new(CpuBackend::paper_spr()) as Arc<dyn CostModel + Send + Sync>
                )
            })
            .collect();
        ClusterConfig::new(replicas, vec![families::opt_13b()])
    }

    fn trace(n: usize, gap_s: f64) -> Vec<ClusterRequest> {
        (0..n)
            .map(|i| ClusterRequest {
                id: i,
                arrival_s: i as f64 * gap_s,
                prompt_len: 128 + (i as u64 % 7) * 16,
                gen_len: 16 + (i as u64 % 5) * 8,
                ..ClusterRequest::default()
            })
            .collect()
    }

    #[test]
    fn legacy_matches_fast_engine_byte_for_byte() {
        let config = cpu_fleet(3);
        let reqs = trace(48, 0.02);
        for mk in [true, false] {
            let (legacy, fast) = if mk {
                (
                    simulate_fleet_legacy(&config, &mut RoundRobin::new(), &reqs),
                    simulate_fleet(&config, &mut RoundRobin::new(), &reqs),
                )
            } else {
                (
                    simulate_fleet_legacy(&config, &mut JoinShortestQueue, &reqs),
                    simulate_fleet(&config, &mut JoinShortestQueue, &reqs),
                )
            };
            assert_eq!(legacy.render(), fast.render());
            assert_eq!(
                format!("{:?}", legacy.outcomes),
                format!("{:?}", fast.outcomes)
            );
            assert_eq!(legacy.events_processed, fast.events_processed);
            assert_eq!(legacy.peak_in_flight, fast.peak_in_flight);
        }
    }
}
