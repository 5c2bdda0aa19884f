//! A serving replica: any [`CostModel`] backend wrapped with a bounded
//! queue, batch slots, and warm/cold state.
//!
//! Cold starts are first-class: a replica that is not warm must page its
//! weight state in before serving, and the warmup time is *derived from
//! the hardware model* — total fleet weight bytes ÷ the backend's
//! weight-load bandwidth (DRAM for CPUs, the host link for GPUs) — rather
//! than being a free parameter. That makes scale-up latency a property of
//! the machines, exactly like every other latency in the simulator.

use crate::slab::SlotKey;
use llmsim_core::CostModel;
use llmsim_hw::Seconds;
use llmsim_model::ModelConfig;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// How a replica enters the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaStart {
    /// Weights resident at t = 0; serves immediately.
    Warm,
    /// Begins paging weights at t = 0; queued requests wait for warmup.
    Cold,
    /// Parked. Not routable until the autoscaler activates it (paying the
    /// cold-start penalty at activation time).
    Standby,
}

/// Configuration of one replica in the fleet.
#[derive(Clone)]
pub struct ReplicaConfig {
    /// The single-server cost model this replica schedules with.
    pub backend: Arc<dyn CostModel + Send + Sync>,
    /// Bounded in-flight capacity (waiting + in service). Arrivals routed
    /// to a replica at capacity are rejected by the engine. Must be at
    /// least `max_batch` (validated by [`crate::ClusterConfig::validate`])
    /// so the batch can actually fill.
    pub queue_cap: usize,
    /// Ceiling on concurrently-served *sequences*. With paged KV enabled
    /// ([`crate::ClusterConfig::with_kv`]) this is a secondary bound: the
    /// effective batch at any instant is `min(max_batch, sequences whose
    /// blocks fit)`, so block capacity — not this knob — usually limits
    /// long-context batches.
    pub max_batch: u64,
    /// Initial warm/cold/standby state.
    pub start: ReplicaStart,
}

impl fmt::Debug for ReplicaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicaConfig")
            .field("backend", &self.backend.name())
            .field("queue_cap", &self.queue_cap)
            .field("max_batch", &self.max_batch)
            .field("start", &self.start)
            .finish()
    }
}

impl ReplicaConfig {
    /// A warm replica with a 4-deep batch and a 16-deep queue.
    #[must_use]
    pub fn warm(backend: Arc<dyn CostModel + Send + Sync>) -> Self {
        ReplicaConfig {
            backend,
            queue_cap: 16,
            max_batch: 4,
            start: ReplicaStart::Warm,
        }
    }

    /// Same, parked until the autoscaler wants it.
    #[must_use]
    pub fn standby(backend: Arc<dyn CostModel + Send + Sync>) -> Self {
        ReplicaConfig {
            start: ReplicaStart::Standby,
            ..ReplicaConfig::warm(backend)
        }
    }

    /// Overrides the in-flight capacity.
    #[must_use]
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Overrides the batch width.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: u64) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Cold-start time: paging every fleet model's weights into place at
    /// the backend's weight-load bandwidth (a multi-model replica must
    /// hold them all before it can serve any of them).
    #[must_use]
    pub fn warmup_time(&self, models: &[ModelConfig]) -> Seconds {
        let bw = self.backend.weight_load_bandwidth();
        models
            .iter()
            .map(|m| bw.transfer_time(self.backend.weight_bytes(m)))
            .fold(Seconds::ZERO, |acc, t| acc + t)
    }
}

/// Warm/cold/fault lifecycle state at runtime.
///
/// The fault layer adds three states to the original warm/warming/standby
/// trio. The full machine (documented in DESIGN.md §11):
///
/// ```text
/// Standby ──activate──▶ Warming ──ready──▶ Warm ◀──ready── Failed
///    ▲                                     │  ▲               ▲
///    └────────park (autoscaler)────────────┤  └─window closes─┤
///                                          │     Draining     │
///                                          ├──drain fault──▶──┘
///                                          └──crash fault──▶ Failed
/// ```
///
/// `Failed` replicas have lost all in-flight work and pay the
/// hardware-derived cold start again before returning to `Warm`.
/// `Draining` replicas stop admission but keep dispatching and finishing
/// accepted work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ReplicaState {
    Warm,
    Warming {
        ready_at_s: f64,
    },
    Standby,
    /// Crashed; recovering until `ready_at_s` (a re-cold-start).
    Failed {
        ready_at_s: f64,
    },
    /// Admission stopped; accepted work still runs. Returns to `Warm`
    /// when the drain window closes.
    Draining,
}

/// A request waiting or in service on a replica. The dispatch-time fields
/// (`completion_s`, `pending`, `span`) are populated when the entry moves
/// from the queue into a batch slot; outcomes are *finalized* only at the
/// terminal event, because a crash or a hedge race can still destroy or
/// cancel a dispatched attempt.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    /// Index into the workload.
    pub request: usize,
    /// Routing-time service estimate (kept so the queued-backlog gauge
    /// can be decremented exactly at dispatch).
    pub est_service_s: f64,
    /// Exact completion time, known once dispatched.
    pub completion_s: f64,
    /// Dispatch instant (service start), known once dispatched.
    pub dispatch_s: f64,
    /// Charged service time of this attempt, known once dispatched.
    pub service_s: f64,
    /// The outcome this attempt will report if it wins, built at
    /// dispatch so chaos-free runs reproduce the historical numbers
    /// bit for bit.
    pub pending: Option<crate::metrics::ClusterOutcome>,
    /// The span this attempt will emit if it wins (assembled only when a
    /// sink is enabled).
    pub span: Option<llmsim_core::trace::SpanRecord>,
    /// Block accounting for this attempt when paged KV is on; `None` on
    /// the fixed-slot path and while queued.
    pub kv: Option<crate::kv::KvSeq>,
}

impl InFlight {
    /// A freshly-queued, not-yet-dispatched entry.
    pub(crate) fn queued(request: usize, est_service_s: f64) -> Self {
        InFlight {
            request,
            est_service_s,
            completion_s: f64::INFINITY,
            dispatch_s: f64::INFINITY,
            service_s: 0.0,
            pending: None,
            span: None,
            kv: None,
        }
    }
}

/// A waiting request's slim handle: the [`InFlight`] record itself lives
/// in the engine's slab; the queue holds only what routing and dispatch
/// scan for (16 bytes + key vs ~200 bytes inline).
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEntry {
    /// Slab handle of the full record.
    pub key: SlotKey,
    /// Index into the workload (what cancellation scans match on).
    pub request: usize,
    /// Routing-time service estimate, mirrored out of the record so the
    /// queued-backlog gauge updates without a slab lookup.
    pub est_service_s: f64,
}

/// An in-service request's slim handle; `completion_s` is mirrored so
/// slot-availability estimates ([`Replica::est_start_delay_s`]) never
/// touch the slab.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveEntry {
    /// Slab handle of the full record.
    pub key: SlotKey,
    /// Index into the workload.
    pub request: usize,
    /// Exact completion time of this attempt.
    pub completion_s: f64,
}

/// Runtime state of one replica.
#[derive(Debug)]
pub(crate) struct Replica {
    pub cfg: ReplicaConfig,
    pub state: ReplicaState,
    pub queue: VecDeque<QueuedEntry>,
    pub active: Vec<ActiveEntry>,
    /// Prompt + generation tokens across queue and active slots.
    pub outstanding_tokens: u64,
    /// Sum of routing-time service estimates over *queued* requests.
    pub queued_backlog_s: f64,
    /// Accumulated slot-seconds of service.
    pub busy_slot_s: f64,
    /// Requests dispatched into service.
    pub dispatched: u64,
    /// Cold starts paid (initial cold boot, autoscaler activations, and
    /// post-crash restarts).
    pub warmups: u64,
    /// Consecutive autoscaler ticks this replica spent idle.
    pub idle_ticks: u32,
    /// Crash epoch: bumped on every crash so completion/recovery events
    /// scheduled before the crash are recognizably stale.
    pub epoch: u64,
    /// Crashes suffered.
    pub crashes: u64,
    /// End of the current slowdown window (`-inf` when none ever opened).
    pub slow_until_s: f64,
    /// Service multiplier while the slowdown window is open.
    pub slow_factor: f64,
    /// End of the current router-partition window (`-inf` when none).
    pub partitioned_until_s: f64,
    /// Paged KV pool; `Some` only when the fleet enables
    /// [`crate::KvConfig`] (installed by the engine, which knows the model
    /// set and thus the block capacity).
    pub kv: Option<crate::kv::KvState>,
    /// Accumulated pipeline-bubble seconds: idle gaps on a downstream
    /// (stage > 0) pipeline replica between draining its batch and the
    /// next stage handoff arriving. Stays 0.0 outside pipeline groups.
    pub pipeline_bubble_s: f64,
    /// Instant this downstream stage replica last drained to idle
    /// (`None` while busy, before first service, or outside a group).
    pub pp_idle_since_s: Option<f64>,
}

impl Replica {
    pub(crate) fn new(cfg: ReplicaConfig) -> Self {
        let state = match cfg.start {
            // `Warming{..}` for cold starters is installed by the engine,
            // which knows the fleet's model set (and thus the warmup time).
            ReplicaStart::Warm | ReplicaStart::Cold => ReplicaState::Warm,
            ReplicaStart::Standby => ReplicaState::Standby,
        };
        Replica {
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
            kv: None,
            pipeline_bubble_s: 0.0,
            pp_idle_since_s: None,
        }
    }

    /// Waiting + in-service count.
    pub(crate) fn in_flight(&self) -> usize {
        self.queue.len() + self.active.len()
    }

    /// Whether the replica is visible to the router at `now_s`: standbys,
    /// crashed replicas, draining replicas, and partitioned replicas are
    /// all invisible (a partition hides an otherwise-healthy replica for
    /// its window only).
    pub(crate) fn routable(&self, now_s: f64) -> bool {
        matches!(
            self.state,
            ReplicaState::Warm | ReplicaState::Warming { .. }
        ) && now_s >= self.partitioned_until_s
    }

    /// Whether queued work may be moved into batch slots (draining
    /// replicas keep serving what they accepted).
    pub(crate) fn can_dispatch(&self) -> bool {
        matches!(self.state, ReplicaState::Warm | ReplicaState::Draining)
    }

    /// The service-time multiplier for work dispatched at `now_s`.
    pub(crate) fn slowdown_at(&self, now_s: f64) -> f64 {
        if now_s < self.slow_until_s {
            self.slow_factor
        } else {
            1.0
        }
    }

    /// Time until this replica can serve (0 when warm).
    pub(crate) fn warmup_remaining_s(&self, now_s: f64) -> f64 {
        match self.state {
            ReplicaState::Warming { ready_at_s } | ReplicaState::Failed { ready_at_s } => {
                (ready_at_s - now_s).max(0.0)
            }
            _ => 0.0,
        }
    }

    /// Estimated delay from `now` until a newly-routed request would start
    /// service: wait for a slot (exact — active completion times are
    /// known), then for the queued backlog to drain across the batch
    /// slots, then for any remaining warmup.
    pub(crate) fn est_start_delay_s(&self, now_s: f64) -> f64 {
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
