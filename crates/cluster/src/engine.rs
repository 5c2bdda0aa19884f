//! The fleet simulation loop (fast path).
//!
//! `simulate_fleet` replays a request trace against a heterogeneous fleet
//! of replicas under a pluggable routing policy, with optional SLO
//! accounting, autoscaling, and fault injection. Everything is analytic
//! and seeded: the only sources of time are the backends' cost models and
//! the only randomness is the chaos configuration's [`SimRng`] streams,
//! so two runs of the same configuration produce byte-identical reports.
//!
//! # The fast path
//!
//! This module is the profile-guided rewrite of the seed engine (kept
//! verbatim as [`crate::simulate_fleet_legacy`] and proven byte-identical
//! by proptest). The seed engine spent almost all of its wall-clock on
//! four hot-path sins, each fixed here:
//!
//! - **O(n) id lookups per event** — `requests.iter().find(..)` on every
//!   arrival, dispatch and completion made the whole replay O(n²). Ids
//!   are validated once into a flat position table; lookups are O(1).
//! - **Cost-model re-pricing per routing decision** — pricing a request
//!   walks the model's phase graph per decode step (O(`gen_len`) graph
//!   builds), and the router priced every replica on every arrival. A
//!   [`PredictCache`] memoizes service and prefill predictions per
//!   (backend, model, batch, shape), and prices each decode step once
//!   per (backend, model, batch, context length) in a [`StepTable`]; the
//!   memoized value is the *same fold* the legacy engine computes, so
//!   reuse is bit-exact.
//! - **Per-event allocation and lookups** — router snapshots
//!   (`Vec<ReplicaView>` with a name `String` per replica) rebuilt on
//!   every arrival, in-flight records moved through queues by value, and
//!   one heap holding every pending arrival. Views are now built once and
//!   refreshed in place: an arrival makes one memo lookup per backend
//!   group rather than per replica, reads residency from a (replica,
//!   model) table built at setup, and admission reuses the routed view's
//!   estimate; a dispatch without prefix hits reads prefill and service
//!   from one memo entry. In-flight records live in a generation-stamped
//!   [`Slab`] with replicas holding 8-byte keys (see `slab.rs`), and the
//!   [`EventQueue`] keeps every event pushed at setup (arrivals, faults,
//!   warmups) in a sorted run beside a heap of in-flight work (see
//!   `event.rs`).
//! - **Linear stale-event filtering** — completions scanned `active` and
//!   compared crash epochs. A [`SlotKey`]'s generation now proves
//!   liveness in one lookup; crashes and hedge cancellations invalidate
//!   by removal alone.
//!
//! # Fault semantics
//!
//! With a [`ChaosConfig`] installed, replica-scoped faults become engine
//! events. A **crash** destroys every queued and in-service request on
//! the victim (each becomes a backend fault, re-routed under the
//! fleet-wide retry budget with exponential backoff) and the replica pays
//! its hardware-derived cold start again before serving. A **slowdown**
//! multiplies the service time of work *dispatched* during its window. A
//! **partition** hides the replica from the router for its window while
//! accepted work keeps running. A **drain** stops admission, lets
//! accepted work finish, and restores the replica when the window closes.
//!
//! Outcomes and spans are computed at dispatch but *emitted* at the
//! terminal event: a crash or a lost hedge race can still invalidate a
//! dispatched attempt.

use crate::autoscale::{AutoscaleConfig, FleetGauge, ScaleDecision};
use crate::event::{EventKind, EventQueue};
use crate::faults::{ChaosConfig, FaultKind};
use crate::metrics::{ClusterOutcome, FleetReport, OutcomeState, ReplicaStats, SloTargets};
use crate::replica::{
    ActiveEntry, InFlight, QueuedEntry, Replica, ReplicaConfig, ReplicaStart, ReplicaState,
};
use crate::router::{HealthSignal, ReplicaView, RouterPolicy};
use crate::slab::Slab;
use llmsim_core::resilience::SimRng;
use llmsim_core::trace::{NullSink, SpanOutcome, SpanRecord, SpanSink};
use llmsim_core::{CostModel, StepTable};
use llmsim_model::ModelConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Substream tag for retry-backoff jitter, distinct from the per-replica
/// fault streams (which use the replica index as the tag).
pub(crate) const RETRY_JITTER_STREAM: u64 = 0x5245_5452_594A_4954;

/// One request in the cluster workload.
#[derive(Debug, Clone, Copy)]
pub struct ClusterRequest {
    /// Workload index (also the outcome index in the report).
    pub id: usize,
    /// Arrival time at the router.
    pub arrival_s: f64,
    /// Prompt tokens.
    pub prompt_len: u64,
    /// Tokens to generate.
    pub gen_len: u64,
    /// Index into [`ClusterConfig::models`].
    pub model: usize,
    /// Shared-prefix identity (e.g. a tenant's system prompt): requests
    /// with equal non-zero `prefix_id` begin with the same
    /// [`prefix_len`](Self::prefix_len) prompt tokens, which the paged KV
    /// cache can serve from one shared allocation. `0` = no shared prefix.
    pub prefix_id: u64,
    /// Leading prompt tokens covered by `prefix_id` (ignored when
    /// `prefix_id` is 0; must not exceed `prompt_len`).
    pub prefix_len: u64,
    /// Multi-turn session identity: non-zero means this request continues
    /// a conversation whose earlier turns' full context is a prefix of
    /// this prompt, so the replica that served them may still hold its KV.
    /// `0` = sessionless.
    pub session: u64,
}

impl ClusterRequest {
    /// Prompt + generation token footprint.
    #[must_use]
    pub fn total_tokens(&self) -> u64 {
        self.prompt_len + self.gen_len
    }
}

impl Default for ClusterRequest {
    /// A zero request: id 0, arriving at t = 0, with empty lengths and no
    /// prefix or session identity. Exists so workload builders can spell
    /// only the fields they care about (`..ClusterRequest::default()`).
    fn default() -> Self {
        ClusterRequest {
            id: 0,
            arrival_s: 0.0,
            prompt_len: 0,
            gen_len: 0,
            model: 0,
            prefix_id: 0,
            prefix_len: 0,
            session: 0,
        }
    }
}

/// A fleet: replicas, the models they serve, and optional SLO, autoscaler
/// and chaos configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The fleet, in routing order.
    pub replicas: Vec<ReplicaConfig>,
    /// Models served by the fleet; requests index into this list.
    pub models: Vec<ModelConfig>,
    /// Goodput target, if any.
    pub slo: Option<SloTargets>,
    /// Autoscaler, if any.
    pub autoscale: Option<AutoscaleConfig>,
    /// Fault injection and recovery machinery, if any. `None` and
    /// [`ChaosConfig::none`] are byte-identical (proptested).
    pub chaos: Option<ChaosConfig>,
    /// Paged KV-cache modeling, if any. `None` (the default) keeps the
    /// fixed-slot dispatch path, byte-identical to the seed engine
    /// (proptested).
    pub kv: Option<crate::kv::KvConfig>,
    /// Pipeline-parallel stage chains, if any. `None` (the default)
    /// leaves every replica standalone, byte-identical to a fleet that
    /// predates pipeline groups (proptested).
    pub pipeline: Option<crate::pipeline::PipelineConfig>,
}

impl ClusterConfig {
    /// A warm fleet with no SLO, no autoscaler, and no chaos.
    #[must_use]
    pub fn new(replicas: Vec<ReplicaConfig>, models: Vec<ModelConfig>) -> Self {
        ClusterConfig {
            replicas,
            models,
            slo: None,
            autoscale: None,
            chaos: None,
            kv: None,
            pipeline: None,
        }
    }

    /// Sets the goodput SLO.
    #[must_use]
    pub fn with_slo(mut self, slo: SloTargets) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Enables the autoscaler.
    #[must_use]
    pub fn with_autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    /// Installs fault injection and recovery machinery.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Enables paged KV-cache modeling (block allocation, prefix caching,
    /// continuous batching with preemption).
    #[must_use]
    pub fn with_kv(mut self, kv: crate::kv::KvConfig) -> Self {
        self.kv = Some(kv);
        self
    }

    /// Installs pipeline-parallel stage chains (see [`crate::pipeline`]).
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: crate::pipeline::PipelineConfig) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Structural validation, run by both engines before replay.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedConfig`] when a replica's `queue_cap`
    /// is zero or smaller than its `max_batch` (the batch could never fill
    /// — historically this truncated silently), when `max_batch` is zero,
    /// or when paged KV is enabled with a zero block size or a replica
    /// whose memory budget holds zero blocks.
    pub fn validate(&self) -> Result<(), llmsim_core::SimError> {
        use llmsim_core::SimError::UnsupportedConfig;
        for (i, r) in self.replicas.iter().enumerate() {
            if r.max_batch == 0 {
                return Err(UnsupportedConfig(format!(
                    "replica {i} ({}): max_batch must be at least 1",
                    r.backend.name()
                )));
            }
            if (r.queue_cap as u64) < r.max_batch {
                return Err(UnsupportedConfig(format!(
                    "replica {i} ({}): queue_cap {} < max_batch {} — queue_cap bounds total \
                     in-flight work (queued + active), so the batch could never fill; raise \
                     queue_cap to at least max_batch",
                    r.backend.name(),
                    r.queue_cap,
                    r.max_batch
                )));
            }
        }
        if let Some(kv) = &self.kv {
            if kv.block_tokens == 0 {
                return Err(UnsupportedConfig(
                    "kv.block_tokens must be at least 1".into(),
                ));
            }
            for (i, r) in self.replicas.iter().enumerate() {
                let blocks = kv.capacity_blocks(r.backend.as_ref(), &self.models);
                if blocks == 0 {
                    return Err(UnsupportedConfig(format!(
                        "replica {i} ({}): weights leave no memory for KV blocks \
                         (capacity_blocks = 0)",
                        r.backend.name()
                    )));
                }
            }
        }
        if let Some(pipeline) = &self.pipeline {
            pipeline
                .validate(self.replicas.len())
                .map_err(UnsupportedConfig)?;
            // A stage chain is one logical server, not a set of
            // independent failure/capacity domains — the layers below
            // all assume the latter.
            if self.chaos.is_some() {
                return Err(UnsupportedConfig(
                    "pipeline groups do not compose with chaos injection: a stage \
                     crash would need chain-wide recovery semantics"
                        .into(),
                ));
            }
            if self.kv.is_some() {
                return Err(UnsupportedConfig(
                    "pipeline groups do not compose with paged KV: per-stage block \
                     pools would need sharded sequence ownership"
                        .into(),
                ));
            }
            if self.autoscale.is_some() {
                return Err(UnsupportedConfig(
                    "pipeline groups do not compose with autoscaling: parking one \
                     stage would stall its whole chain"
                        .into(),
                ));
            }
        }
        Ok(())
    }
}

/// Service time of a request at batch width `batch`: one prefill pass at
/// the full prompt, then the exact sum of per-step decode costs over the
/// growing KV length. The first generated token comes out of the prefill
/// pass, so decode step `s` (0-based, `gen_len - 1` steps total) attends
/// over `prompt_len + 1 + s` context tokens — identical to what the
/// single-server iteration-level simulator charges a lone request.
///
/// The router's predictions and the replica's actual charging both call
/// this (through [`PredictCache`] on the fast path), so prediction error
/// can only come from batch-width changes after routing, never from the
/// pricing itself. The fold order is load-bearing: the memoized fast path
/// computes this exact fold, reading each step from a [`StepTable`], and
/// caches its *result*, never a re-associated prefix sum, because float
/// addition order is part of the byte-identity contract with the legacy
/// engine.
pub(crate) fn predict_service_s(
    backend: &dyn CostModel,
    model: &ModelConfig,
    batch: u64,
    prompt_len: u64,
    gen_len: u64,
) -> f64 {
    let prefill = backend.prefill_time(model, batch, prompt_len).as_f64();
    (0..gen_len.saturating_sub(1)).fold(prefill, |acc, step| {
        acc + backend
            .decode_step_time(model, batch, prompt_len + 1 + step)
            .as_f64()
    })
}

/// A [`PredictCache`] service key: (backend group, model index, batch,
/// prompt, gen).
type ServiceKey = (u32, u32, u64, u64, u64);

/// Memo of cost-model predictions, keyed by (backend group, model index,
/// batch, prompt, gen). Replicas sharing one `Arc`'d backend share one
/// group, so an 8-replica homogeneous fleet prices each distinct request
/// shape once instead of 8× per arrival. A service miss folds its decode
/// steps from a [`StepTable`] per group × model, so each `(batch,
/// kv_len)` step is priced once per run however many request shapes walk
/// it; the fold itself is the one [`predict_service_s`] computes, with
/// only the source of each addend changed, so hits and misses alike are
/// bit-exact. A service entry holds its prefill too, read from the
/// prefill memo when the entry was made, so a dispatch without prefix
/// hits prices both phases in one lookup. `BTreeMap` rather than a hash
/// map: iteration order never matters here (the memo is only probed),
/// but the workspace determinism lint (D001) bans randomized-layout
/// containers from sim-state crates outright.
struct PredictCache<'a> {
    /// `(prefill, service)` seconds per request shape.
    service: BTreeMap<ServiceKey, (f64, f64)>,
    prefill: BTreeMap<(u32, u32, u64, u64), f64>,
    /// Decode-step prices: `steps[group * models.len() + model]`.
    steps: Vec<StepTable>,
    models: &'a [ModelConfig],
    /// The backend of each group: its first replica's.
    backends: Vec<&'a (dyn CostModel + Send + Sync)>,
    /// Backend-identity group of each replica (`Arc::ptr_eq` classes).
    groups: Vec<u32>,
}

impl<'a> PredictCache<'a> {
    fn new(replicas: &'a [ReplicaConfig], models: &'a [ModelConfig]) -> Self {
        let mut reps: Vec<&Arc<dyn CostModel + Send + Sync>> = Vec::new();
        let groups = replicas
            .iter()
            .map(|r| {
                if let Some(g) = reps.iter().position(|b| Arc::ptr_eq(b, &r.backend)) {
                    g as u32
                } else {
                    reps.push(&r.backend);
                    (reps.len() - 1) as u32
                }
            })
            .collect();
        PredictCache {
            service: BTreeMap::new(),
            prefill: BTreeMap::new(),
            steps: vec![StepTable::new(); reps.len() * models.len()],
            models,
            backends: reps.into_iter().map(|b| b.as_ref()).collect(),
            groups,
        }
    }

    /// Number of backend groups.
    fn group_count(&self) -> usize {
        self.backends.len()
    }

    /// Backend group of replica `replica`.
    fn group_of(&self, replica: usize) -> usize {
        self.groups[replica] as usize
    }

    /// Memoized `(prefill, service)` of `req` at batch width `batch` on
    /// `group`'s backend: the prefill and [`predict_service_s`].
    fn service(&mut self, group: usize, req: &ClusterRequest, batch: u64) -> (f64, f64) {
        let key = (
            group as u32,
            req.model as u32,
            batch,
            req.prompt_len,
            req.gen_len,
        );
        if let Some(&entry) = self.service.get(&key) {
            return entry;
        }
        let prefill = self.prefill(group, req.model, batch, req.prompt_len);
        let service = self.steps[group * self.models.len() + req.model].fold_steps(
            self.backends[group],
            &self.models[req.model],
            batch,
            req.prompt_len + 1,
            req.gen_len.saturating_sub(1),
            prefill,
        );
        self.service.insert(key, (prefill, service));
        (prefill, service)
    }

    /// Memoized prefill time on `group`'s backend.
    fn prefill(&mut self, group: usize, model: usize, batch: u64, prompt_len: u64) -> f64 {
        let (backend, config) = (self.backends[group], &self.models[model]);
        *self
            .prefill
            .entry((group as u32, model as u32, batch, prompt_len))
            .or_insert_with(|| backend.prefill_time(config, batch, prompt_len).as_f64())
    }
}

/// Live attempts of one request: at most the primary and one hedge, so
/// the set is two inline slots — no heap Vec per request.
#[derive(Debug, Clone, Copy, Default)]
struct Attempts {
    slots: [usize; 2],
    len: u8,
}

impl Attempts {
    fn push(&mut self, replica: usize) {
        assert!(
            (self.len as usize) < 2,
            "a request holds at most two live attempts (primary + hedge)"
        );
        self.slots[self.len as usize] = replica;
        self.len += 1;
    }

    fn remove(&mut self, replica: usize) {
        let mut kept = 0u8;
        for i in 0..self.len as usize {
            if self.slots[i] != replica {
                self.slots[kept as usize] = self.slots[i];
                kept += 1;
            }
        }
        self.len = kept;
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn as_slice(&self) -> &[usize] {
        &self.slots[..self.len as usize]
    }
}

/// Engine-side per-request bookkeeping across crash retries and hedges.
#[derive(Debug, Clone, Copy, Default)]
struct ReqRuntime {
    /// Terminal outcome written (exactly once per request).
    resolved: bool,
    /// Crash-recovery re-routes consumed so far.
    retries: u32,
    /// Hedged duplicate dispatched.
    hedged: bool,
    /// Times this request was preempted off a batch for KV blocks.
    preemptions: u32,
    /// Arrival-to-dispatch wait at pipeline stage 0 (the router-visible
    /// queue delay a chained request reports; 0.0 outside pipelines).
    pp_queue_delay_s: f64,
    /// Replicas currently holding a live attempt (queued or in service).
    attempts: Attempts,
}

/// A replica's position in its pipeline chain, precomputed at startup so
/// the hot path pays one `Vec` index instead of a group scan.
#[derive(Debug, Clone, Copy)]
struct StagePos {
    /// Index into [`crate::pipeline::PipelineConfig::groups`].
    group: usize,
    /// Stage index in the chain (0 = head).
    stage: usize,
    /// Chain length.
    depth: usize,
}

/// Everything the per-event handlers share. Bundling it keeps the helper
/// signatures sane and makes the borrow structure explicit: `replicas`,
/// `slab` and the event queue are the mutable hot state; `requests` and
/// `config` are read-only.
struct Engine<'a> {
    config: &'a ClusterConfig,
    requests: &'a [ClusterRequest],
    /// `pos_of_id[id]` = index into `requests` (ids are a permutation of
    /// `0..n`, validated at startup).
    pos_of_id: Vec<u32>,
    replicas: Vec<Replica>,
    slab: Slab,
    queue: EventQueue,
    cache: PredictCache<'a>,
    /// Persistent router snapshot, refreshed in place per routing call
    /// (the legacy engine allocated a fresh `Vec` per arrival here).
    views: Vec<ReplicaView>,
    /// Per-routing-call scratch: the batch-1 `(prefill, service)` estimate
    /// of the request being routed on each backend group.
    group_est: Vec<(f64, f64)>,
    /// Per-routing-call scratch: `(group, hit tokens, est_prefix_saved_s)`
    /// for each prefix-hit length already priced on a backend group, so
    /// replicas of one group with equal hits share one prefill lookup.
    saved_est: Vec<(usize, u64, f64)>,
    /// `resident[replica * models + model]`: whether the replica's backend
    /// holds the model resident (`CostModel::holds_resident` is pure, so
    /// it is asked once per pair at setup).
    resident: Vec<bool>,
    runtime: Vec<ReqRuntime>,
    outcomes: Vec<Option<ClusterOutcome>>,
    resolved: usize,
    makespan_s: f64,
    wasted_tokens: u64,
    retries_total: u64,
    hedges_total: u64,
    /// Prompt tokens served from the prefix cache (counted at completion,
    /// so preempted-and-retried attempts are never double-counted).
    prefix_hit_tokens: u64,
    preemptions_total: u64,
    /// `stage_of[i]` = replica `i`'s pipeline position (`None` outside
    /// every group; all-`None` when the fleet has no pipeline config).
    stage_of: Vec<Option<StagePos>>,
    /// Inter-stage activation handoffs performed.
    pipeline_handoffs: u64,
}

impl<'a> Engine<'a> {
    fn request(&self, id: usize) -> ClusterRequest {
        self.requests[self.pos_of_id[id] as usize]
    }

    /// Routes one attempt of `req` at `now_s`: refreshes the fleet
    /// snapshot (hiding `exclude`d replicas — those already hosting an
    /// attempt of this request), asks the policy, and re-validates the
    /// choice. Returns the chosen replica and its view's batch-1 service
    /// estimate, which admission reuses.
    fn route_once(
        &mut self,
        req: &ClusterRequest,
        now_s: f64,
        exclude: &[usize],
        router: &mut dyn RouterPolicy,
    ) -> Option<(usize, f64)> {
        // Replicas sharing a backend share its prediction: one memo
        // lookup per group, not per replica.
        for (g, est) in self.group_est.iter_mut().enumerate() {
            *est = self.cache.service(g, req, 1);
        }
        self.saved_est.clear();
        let models = self.config.models.len();
        for (i, r) in self.replicas.iter().enumerate() {
            let routable = r.routable(now_s);
            let v = &mut self.views[i];
            v.now_s = now_s;
            v.queue_len = r.queue.len();
            v.active = r.active.len();
            // A replica whose whole pool cannot hold this request's final
            // context can never dispatch it: hide it like a partition.
            let kv_fits =
                r.kv.as_ref()
                    .is_none_or(|kv| kv.final_blocks(req) <= kv.total_blocks);
            // A downstream pipeline stage only ever receives work from
            // its upstream stage, never from the router.
            let is_head = self.stage_of[i].is_none_or(|p| p.stage == 0);
            // Standbys (and failed, draining, partitioned, excluded or
            // non-head replicas) are invisible to routers: report zero
            // capacity.
            v.queue_cap = if routable && kv_fits && is_head && !exclude.contains(&i) {
                r.cfg.queue_cap
            } else {
                0
            };
            v.outstanding_tokens = r.outstanding_tokens;
            v.warm = r.state == ReplicaState::Warm;
            v.warmup_remaining_s = r.warmup_remaining_s(now_s);
            v.est_start_delay_s = r.est_start_delay_s(now_s);
            let group = self.cache.group_of(i);
            v.est_service_s = self.group_est[group].1;
            v.resident = self.resident[i * models + req.model];
            // Prefix-cache signals (zeros / false on the fixed-slot path,
            // so cache-aware policies degrade gracefully without KV).
            if let Some(kv) = &r.kv {
                let probe = kv.probe(req);
                let hit_tokens = probe.hit_blocks * kv.block_tokens;
                v.predicted_hit_tokens = hit_tokens;
                // The prefill the hits skip: the full prompt's (the
                // group's batch-1 estimate) minus the uncovered suffix's.
                v.est_prefix_saved_s = if hit_tokens == 0 {
                    0.0
                } else if let Some(&(.., saved)) = self
                    .saved_est
                    .iter()
                    .find(|&&(g, hits, _)| g == group && hits == hit_tokens)
                {
                    saved
                } else {
                    let suffix = req.prompt_len.saturating_sub(hit_tokens).max(1);
                    let suffix_s = self.cache.prefill(group, req.model, 1, suffix);
                    let saved = (self.group_est[group].0 - suffix_s).max(0.0);
                    self.saved_est.push((group, hit_tokens, saved));
                    saved
                };
                v.session_resident = probe.session_resident;
                v.kv_free_blocks = kv.free_blocks + kv.cached_blocks;
                v.kv_total_blocks = kv.total_blocks;
            } else {
                v.predicted_hit_tokens = 0;
                v.est_prefix_saved_s = 0.0;
                v.session_resident = false;
                v.kv_free_blocks = 0;
                v.kv_total_blocks = 0;
            }
        }
        router
            .route(req, &self.views)
            .filter(|&i| {
                i < self.replicas.len()
                    && self.replicas[i].can_accept(now_s)
                    && !exclude.contains(&i)
                    && self.stage_of[i].is_none_or(|p| p.stage == 0)
                    && self.replicas[i]
                        .kv
                        .as_ref()
                        .is_none_or(|kv| kv.final_blocks(req) <= kv.total_blocks)
            })
            .map(|i| (i, self.views[i].est_service_s))
    }

    /// Enqueues one attempt of `req` on replica `i` and dispatches if a
    /// slot is free. `est` is the request's batch-1 service estimate on
    /// `i`; on a pipeline member (head via routing, downstream via
    /// [`EventKind::StageArrive`]) the backlog estimate is the replica's
    /// own stage share — `1/depth` of it.
    fn admit(
        &mut self,
        i: usize,
        req: &ClusterRequest,
        mut est: f64,
        now_s: f64,
        sink: &mut dyn SpanSink,
    ) {
        // Gated on depth > 1 so a single-stage chain stays bitwise
        // identical to a standalone replica.
        if let Some(p) = self.stage_of[i] {
            if p.depth > 1 {
                est /= p.depth as f64;
            }
        }
        let key = self.slab.insert(InFlight::queued(req.id, est));
        let r = &mut self.replicas[i];
        r.queue.push_back(QueuedEntry {
            key,
            request: req.id,
            est_service_s: est,
        });
        r.outstanding_tokens += req.total_tokens();
        r.queued_backlog_s += est;
        self.try_dispatch(i, now_s, sink);
    }

    /// Moves queued requests into free batch slots on a warm (or
    /// draining) replica, scheduling their completions. Service time is
    /// priced at the batch width *after* admission, so later co-runners
    /// slow a dispatch down exactly as batching does on the single-server
    /// simulator, then scaled by any open slowdown window. The outcome
    /// and span this attempt will report are computed here — at dispatch,
    /// from dispatch-time values — but emitted only when the completion
    /// event survives to fire.
    fn try_dispatch(&mut self, idx: usize, now_s: f64, sink: &mut dyn SpanSink) {
        loop {
            let r = &self.replicas[idx];
            if !r.can_dispatch() || (r.active.len() as u64) >= r.cfg.max_batch || r.queue.is_empty()
            {
                return;
            }
            // Paged-KV admission gate (iteration-level): the queue head
            // must secure its prompt blocks now or wait for decode
            // completions to free some — FCFS, so a big head holds the
            // line rather than being starved by small latecomers.
            let kv_plan = if let Some(kv) = &r.kv {
                let Some(front) = r.queue.front() else {
                    unreachable!("checked non-empty")
                };
                let head = self.request(front.request);
                let dispatch_blocks = kv.blocks_for(head.prompt_len + 1);
                let final_blocks = kv.final_blocks(&head);
                let hits = kv.probe(&head).hit_blocks;
                // Budget the hit blocks too, not just the private suffix:
                // pinning converts up to `hits` blocks from cached (where
                // `can_allocate` counts them evictable) to pinned (where
                // they are not), so clearing only `dispatch - hits` here
                // could send `allocate_private` into a dry eviction loop.
                if !kv.can_allocate(dispatch_blocks) {
                    return;
                }
                Some((dispatch_blocks, final_blocks, hits))
            } else {
                None
            };
            let Some(entry) = self.replicas[idx].queue.pop_front() else {
                return;
            };
            let req = self.request(entry.request);
            let batch = self.replicas[idx].active.len() as u64 + 1;
            // Multiplying by the slowdown factor is exact: the factor is
            // 1.0 outside any window, and x × 1.0 is bitwise x.
            let slow = self.replicas[idx].slowdown_at(now_s);
            let hit_tokens = match (&kv_plan, &self.replicas[idx].kv) {
                (Some((_, _, hits)), Some(kv)) => hits * kv.block_tokens,
                _ => 0,
            };
            // With prefix hits, the replica prefills only the uncovered
            // suffix; decode still walks the full (prompt + step) context
            // because the cached KV participates in every attention step.
            // The hit-free arm runs the exact historical float ops, so a
            // KV-less fleet reproduces the seed engine bit for bit.
            let group = self.cache.group_of(idx);
            let (p_full, s_full) = self.cache.service(group, &req, batch);
            let (prefill, service) = if hit_tokens > 0 {
                let suffix = req.prompt_len.saturating_sub(hit_tokens).max(1);
                let p_suffix = self.cache.prefill(group, req.model, batch, suffix) * slow;
                (p_suffix, s_full * slow - p_full * slow + p_suffix)
            } else {
                (p_full * slow, s_full * slow)
            };
            // Pipeline stage share: each stage of a chain runs 1/depth of
            // the layer stack, so it charges 1/depth of the full
            // prediction. Gated on depth > 1 so a single-stage chain
            // stays bitwise identical to a standalone replica.
            let stage = self.stage_of[idx];
            let (prefill, service) = match stage {
                Some(p) if p.depth > 1 => (prefill / p.depth as f64, service / p.depth as f64),
                _ => (prefill, service),
            };
            let queue_delay = now_s - req.arrival_s;
            let completion = now_s + service;

            if let Some(p) = stage {
                if p.stage == 0 {
                    // The router-visible queue delay the chained request
                    // will report from its final stage.
                    self.runtime[entry.request].pp_queue_delay_s = queue_delay;
                } else if let Some(idle) = self.replicas[idx].pp_idle_since_s.take() {
                    // This downstream stage sat idle waiting for the
                    // handoff that just dispatched: a pipeline bubble.
                    self.replicas[idx].pipeline_bubble_s += now_s - idle;
                }
            }

            let r = &mut self.replicas[idx];
            r.queued_backlog_s = (r.queued_backlog_s - entry.est_service_s).max(0.0);
            r.busy_slot_s += service;
            r.dispatched += 1;
            let Some(inflight) = self.slab.get_mut(entry.key) else {
                debug_assert!(false, "queued entry must have a live slab record");
                continue;
            };
            inflight.completion_s = completion;
            inflight.dispatch_s = now_s;
            inflight.service_s = service;
            // A non-final pipeline stage resolves nothing: its SlotDone
            // hands the request to the next stage, and the outcome/span
            // belong to the final stage alone.
            let is_final = stage.is_none_or(|p| p.stage + 1 == p.depth);
            if is_final {
                inflight.pending = Some(ClusterOutcome {
                    id: req.id,
                    model: req.model,
                    replica: Some(idx),
                    state: OutcomeState::Completed,
                    // A chained request reports the wait it saw at the
                    // router (stage 0); `queue_delay` here is its total
                    // arrival-to-final-dispatch wall clock.
                    queue_delay_s: Some(match stage {
                        Some(_) => self.runtime[entry.request].pp_queue_delay_s,
                        None => queue_delay,
                    }),
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
                        prefix_hit_tokens: hit_tokens,
                        preemptions: u64::from(self.runtime[entry.request].preemptions),
                    });
                }
            }
            if let Some((dispatch_blocks, final_blocks, hits)) = kv_plan {
                inflight.kv = Some(crate::kv::KvSeq {
                    hit_blocks: hits,
                    private_blocks: dispatch_blocks - hits,
                    final_blocks,
                });
                let Some(kv) = self.replicas[idx].kv.as_mut() else {
                    unreachable!("kv plan requires kv")
                };
                kv.pin_hits(&req, hits, now_s);
                kv.allocate_private(dispatch_blocks - hits, now_s);
                let bt = kv.block_tokens;
                // One growth event per future block: block b fills when
                // token (b-1)·bt + 1 is generated, pro-rated over the
                // decode span. Pushed before SlotDone so a growth tied
                // with its own completion fires (and claims) first.
                for b in dispatch_blocks + 1..=final_blocks {
                    let tokens_b = (b - 1) * bt + 1;
                    let frac = if req.gen_len > 1 {
                        ((tokens_b - req.prompt_len - 1) as f64 / (req.gen_len - 1) as f64)
                            .clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    self.queue.push(
                        now_s + service * frac,
                        EventKind::KvGrow {
                            replica: idx,
                            slot: entry.key,
                        },
                    );
                }
            }
            self.queue.push(
                completion,
                EventKind::SlotDone {
                    replica: idx,
                    slot: entry.key,
                },
            );
            self.replicas[idx].active.push(ActiveEntry {
                key: entry.key,
                request: entry.request,
                completion_s: completion,
            });
        }
    }

    /// Marks a downstream pipeline stage idle-from-`now_s` when its batch
    /// just drained: the bubble it opens closes at the stage's next
    /// dispatch. Heads are exempt — waiting for arrivals is not a bubble
    /// — and the call is a no-op outside pipeline groups.
    fn note_stage_idle(&mut self, idx: usize, now_s: f64) {
        if let Some(p) = self.stage_of[idx] {
            let r = &mut self.replicas[idx];
            if p.stage > 0 && r.active.is_empty() && r.pp_idle_since_s.is_none() {
                r.pp_idle_since_s = Some(now_s);
            }
        }
    }

    /// Removes a live attempt of `req` from replica `idx` (the hedge
    /// loser after its twin won). Returns the attempt's partial
    /// generation as wasted tokens — zero if it was still queued. The
    /// loser's scheduled completion event goes stale automatically: its
    /// slot key's generation is bumped by the slab removal.
    fn cancel_attempt(&mut self, idx: usize, req: &ClusterRequest, now_s: f64) -> u64 {
        let r = &mut self.replicas[idx];
        if let Some(pos) = r.queue.iter().position(|q| q.request == req.id) {
            if let Some(entry) = r.queue.remove(pos) {
                r.queued_backlog_s = (r.queued_backlog_s - entry.est_service_s).max(0.0);
                r.outstanding_tokens = r.outstanding_tokens.saturating_sub(req.total_tokens());
                self.slab.remove(entry.key);
            }
            0
        } else if let Some(pos) = r.active.iter().position(|a| a.request == req.id) {
            let entry = r.active.swap_remove(pos);
            r.outstanding_tokens = r.outstanding_tokens.saturating_sub(req.total_tokens());
            let Some(inf) = self.slab.remove(entry.key) else {
                debug_assert!(false, "active entry must have a live slab record");
                return 0;
            };
            // Refund the unrun tail of the slot; the run-so-far is waste.
            r.busy_slot_s -= (inf.completion_s - now_s).max(0.0);
            if let (Some(seq), Some(kv)) = (inf.kv, r.kv.as_mut()) {
                kv.release_hits(req, seq.hit_blocks, now_s);
                kv.free_private(seq.private_blocks, now_s);
            }
            partial_tokens(&inf, req.gen_len, now_s)
        } else {
            0
        }
    }

    /// Claims one more KV block for a decode step of the sequence at
    /// `slot`, preempting the youngest co-resident sequence (recompute
    /// policy) when neither the free list nor LRU eviction can supply one.
    fn grow_one_block(&mut self, idx: usize, slot: crate::slab::SlotKey, now_s: f64) {
        loop {
            let Some(kv) = self.replicas[idx].kv.as_mut() else {
                unreachable!("KvGrow requires kv state")
            };
            if kv.can_allocate(1) {
                kv.allocate_private(1, now_s);
                break;
            }
            // Victim: the latest-dispatched other sequence (ties broken by
            // higher request id) — it has the least sunk work to waste.
            let mut victim: Option<(f64, usize, ActiveEntry)> = None;
            for a in &self.replicas[idx].active {
                if a.key == slot {
                    continue;
                }
                let d = self
                    .slab
                    .get(a.key)
                    .map_or(f64::NEG_INFINITY, |i| i.dispatch_s);
                if victim
                    .as_ref()
                    .is_none_or(|&(vd, vr, _)| (d, a.request) > (vd, vr))
                {
                    victim = Some((d, a.request, *a));
                }
            }
            // Progress is guaranteed: routing rejects requests whose final
            // context exceeds the pool, so a lone sequence can never
            // exhaust it.
            let Some((_, _, victim)) = victim else {
                unreachable!("a growing sequence cannot exhaust the KV pool alone")
            };
            self.preempt(idx, victim, now_s);
        }
        let Some(seq) = self.slab.get_mut(slot).and_then(|inf| inf.kv.as_mut()) else {
            unreachable!("caller checked liveness and the slot dispatched under kv")
        };
        seq.private_blocks += 1;
        debug_assert!(
            seq.hit_blocks + seq.private_blocks <= seq.final_blocks,
            "a sequence never grows past its final context"
        );
    }

    /// Preempts a dispatched sequence for its KV blocks: frees them,
    /// voids its scheduled events (the slab removal stales them), counts
    /// the partial generation as waste — mirroring the crash path — and
    /// requeues it at the *front* of the same replica's queue to re-run
    /// prefill over its full context once blocks free up (often cheap:
    /// its own chain blocks may still be cached).
    fn preempt(&mut self, idx: usize, victim: ActiveEntry, now_s: f64) {
        let r = &mut self.replicas[idx];
        let Some(pos) = r.active.iter().position(|a| a.key == victim.key) else {
            unreachable!("victim is active")
        };
        r.active.swap_remove(pos);
        let Some(inf) = self.slab.remove(victim.key) else {
            unreachable!("victim has a live record")
        };
        let req = self.request(inf.request);
        let Some(seq) = inf.kv else {
            unreachable!("preemption only happens under kv")
        };
        let r = &mut self.replicas[idx];
        r.busy_slot_s -= (inf.completion_s - now_s).max(0.0);
        let Some(kv) = r.kv.as_mut() else {
            unreachable!("kv state installed")
        };
        kv.release_hits(&req, seq.hit_blocks, now_s);
        kv.free_private(seq.private_blocks, now_s);
        self.wasted_tokens += partial_tokens(&inf, req.gen_len, now_s);
        self.preemptions_total += 1;
        self.runtime[inf.request].preemptions += 1;
        // `outstanding_tokens` stays: the request is still in flight here.
        let key = self
            .slab
            .insert(InFlight::queued(inf.request, inf.est_service_s));
        let r = &mut self.replicas[idx];
        r.queue.push_front(QueuedEntry {
            key,
            request: inf.request,
            est_service_s: inf.est_service_s,
        });
        r.queued_backlog_s += inf.est_service_s;
    }

    /// Schedules another crash-recovery attempt for `request`, or
    /// terminates it as failed when its per-request retries or the
    /// fleet-wide budget are exhausted. Backoff is exponential with
    /// deterministic seeded jitter.
    #[allow(clippy::too_many_arguments)]
    fn retry_or_fail(
        &mut self,
        request: usize,
        now_s: f64,
        req: &ClusterRequest,
        chaos: &ChaosConfig,
        retry_budget_left: &mut Option<u64>,
        retry_rng: &mut SimRng,
        sink: &mut dyn SpanSink,
    ) {
        let rt = &mut self.runtime[request];
        if chaos.retry.allows(rt.retries, *retry_budget_left) {
            if let Some(b) = *retry_budget_left {
                *retry_budget_left = Some(b - 1);
            }
            rt.retries += 1;
            self.retries_total += 1;
            let backoff_s = chaos.retry.backoff_s(rt.retries, retry_rng.next_f64());
            self.queue
                .push(now_s + backoff_s, EventKind::Retry { request });
        } else {
            rt.resolved = true;
            self.resolved += 1;
            self.makespan_s = self.makespan_s.max(now_s);
            self.outcomes[request] = Some(ClusterOutcome {
                id: request,
                model: req.model,
                replica: None,
                state: OutcomeState::Failed,
                queue_delay_s: None,
                ttft_s: None,
                e2e_s: None,
                tokens: 0,
                retries: self.runtime[request].retries,
                hedged: self.runtime[request].hedged,
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
}

/// Tokens a dispatched attempt had generated by `now_s`, pro-rated over
/// its charged service time.
pub(crate) fn partial_tokens(inf: &InFlight, gen_len: u64, now_s: f64) -> u64 {
    if inf.service_s > 0.0 {
        let frac = ((now_s - inf.dispatch_s) / inf.service_s).clamp(0.0, 1.0);
        (gen_len as f64 * frac).floor() as u64
    } else {
        0
    }
}

/// Runs the fleet simulation to completion and reports.
///
/// Requests may be in any order; they are replayed by arrival time (ties
/// in input order). A request is *rejected* when the policy returns
/// `None`, or returns a replica that cannot accept it — the engine never
/// silently over-fills a bounded queue on a policy's behalf. Under chaos,
/// a request lost to crashes whose retries are exhausted terminates as
/// *failed* instead.
///
/// This is the fast engine; [`crate::simulate_fleet_legacy`] is the seed
/// implementation it is benchmarked against and proven byte-identical to.
///
/// # Panics
///
/// Panics if the fleet or model list is empty, if [`ClusterConfig::validate`]
/// rejects the configuration, if request ids are not a permutation of
/// `0..requests.len()`, if a request's model index is out of range, or if
/// the chaos configuration is invalid.
pub fn simulate_fleet(
    config: &ClusterConfig,
    router: &mut dyn RouterPolicy,
    requests: &[ClusterRequest],
) -> FleetReport {
    simulate_fleet_traced(config, router, requests, &mut NullSink)
}

/// [`simulate_fleet`] with per-request span tracing.
///
/// Every request's full phase timeline — arrival, queue delay, dispatch,
/// prefill end, aggregated decode time, completion (or rejection or
/// failure), the replica that served it and the batch width at dispatch —
/// is emitted to `sink` as a [`SpanRecord`] at its terminal event.
/// Tracing is observational only: the returned report is bit-identical to
/// [`simulate_fleet`]'s regardless of the sink (a proptest holds the
/// engine to this). The engine calls [`SpanSink::hint_len`] with the
/// request count before the first record and [`SpanSink::finish`] after
/// the last, so buffering sinks can reserve and flush without guesswork.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate_fleet`].
pub fn simulate_fleet_traced(
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
    let mut pos_of_id: Vec<u32> = vec![u32::MAX; requests.len()];
    for (pos, r) in requests.iter().enumerate() {
        assert!(
            r.model < config.models.len(),
            "request {} references model {} but the fleet serves {}",
            r.id,
            r.model,
            config.models.len()
        );
        assert!(
            r.id < requests.len() && pos_of_id[r.id] == u32::MAX,
            "request ids must be unique and present (0..len)"
        );
        pos_of_id[r.id] = pos as u32;
    }

    let chaos = config.chaos.clone().unwrap_or_else(|| ChaosConfig::none(0));
    let fault_schedule = chaos.schedule_for(config.replicas.len());
    let mut retry_rng = SimRng::derive(chaos.seed, RETRY_JITTER_STREAM);
    let mut retry_budget_left: Option<u64> = chaos.retry.retry_budget;

    let replicas: Vec<Replica> = config
        .replicas
        .iter()
        .map(|cfg| {
            let mut r = Replica::new(cfg.clone());
            if let Some(kvc) = &config.kv {
                let blocks = kvc.capacity_blocks(r.cfg.backend.as_ref(), &config.models);
                r.kv = Some(crate::kv::KvState::new(
                    blocks,
                    kvc.block_tokens,
                    kvc.prefix_caching,
                ));
            }
            r
        })
        .collect();
    // Every setup push (each arrival, scheduled fault and cold start, and
    // the autoscaler tick) fits on the queue's sorted run without
    // regrowing; the events the replay schedules as it goes sit in the
    // queue's heap, which holds only in-flight work.
    let mut queue = EventQueue::with_capacity(
        requests.len() + fault_schedule.len() + config.replicas.len() + 1,
    );

    // Cold starters begin paging weights at t = 0.
    let mut warmups_at_start: Vec<usize> = Vec::new();
    for (i, cfg) in config.replicas.iter().enumerate() {
        if cfg.start == ReplicaStart::Cold {
            warmups_at_start.push(i);
        }
    }
    let mut stage_of: Vec<Option<StagePos>> = vec![None; config.replicas.len()];
    if let Some(pipeline) = &config.pipeline {
        for (g, group) in pipeline.groups.iter().enumerate() {
            for (s, &r) in group.replicas.iter().enumerate() {
                stage_of[r] = Some(StagePos {
                    group: g,
                    stage: s,
                    depth: group.replicas.len(),
                });
            }
        }
    }
    let cache = PredictCache::new(&config.replicas, &config.models);
    let groups = cache.group_count();
    let mut engine = Engine {
        config,
        requests,
        pos_of_id,
        slab: Slab::with_capacity(
            config
                .replicas
                .iter()
                .map(|r| r.queue_cap)
                .sum::<usize>()
                .min(requests.len().max(1)),
        ),
        cache,
        group_est: vec![(0.0, 0.0); groups],
        saved_est: Vec::new(),
        resident: config
            .replicas
            .iter()
            .flat_map(|r| config.models.iter().map(|m| r.backend.holds_resident(m)))
            .collect(),
        views: replicas
            .iter()
            .enumerate()
            .map(|(i, r)| ReplicaView {
                idx: i,
                now_s: 0.0,
                queue_len: 0,
                active: 0,
                queue_cap: 0,
                max_batch: r.cfg.max_batch,
                outstanding_tokens: 0,
                warm: false,
                warmup_remaining_s: 0.0,
                est_start_delay_s: 0.0,
                est_service_s: 0.0,
                resident: false,
                predicted_hit_tokens: 0,
                est_prefix_saved_s: 0.0,
                session_resident: false,
                kv_free_blocks: 0,
                kv_total_blocks: 0,
                pipeline_group: stage_of[i].map(|p| p.group),
                pipeline_stage: stage_of[i].map_or(0, |p| p.stage),
                pipeline_depth: stage_of[i].map_or(1, |p| p.depth),
            })
            .collect(),
        stage_of,
        pipeline_handoffs: 0,
        replicas,
        queue: EventQueue::new(),
        runtime: vec![ReqRuntime::default(); requests.len()],
        outcomes: vec![None; requests.len()],
        resolved: 0,
        makespan_s: 0.0,
        wasted_tokens: 0,
        retries_total: 0,
        hedges_total: 0,
        prefix_hit_tokens: 0,
        preemptions_total: 0,
    };
    for &i in &warmups_at_start {
        let ready = engine.replicas[i].cfg.warmup_time(&config.models).as_f64();
        engine.replicas[i].state = ReplicaState::Warming { ready_at_s: ready };
        engine.replicas[i].warmups += 1;
        queue.push(ready, EventKind::WarmupDone { replica: i });
    }
    // The entire fault schedule goes in at setup, before any arrival or
    // completion: a fault tied with another event on the timestamp fires
    // first (see the event-queue docs for why that order is load-bearing).
    for (i, f) in fault_schedule.iter().enumerate() {
        queue.push(f.at_s, EventKind::Fault { fault: i });
    }
    for req in requests {
        queue.push(req.arrival_s, EventKind::Arrival { request: req.id });
    }
    if let Some(auto) = &config.autoscale {
        queue.push(auto.interval_s, EventKind::ScaleTick);
    }
    engine.queue = queue;

    let mut scale_ups = 0u64;
    let mut scale_downs = 0u64;
    let mut events_processed = 0u64;
    let mut peak_in_flight = 0u64;

    sink.hint_len(requests.len());

    while let Some(event) = engine.queue.pop() {
        events_processed += 1;
        let now = event.time_s;
        match event.kind {
            EventKind::Arrival { request } => {
                let req = engine.request(request);
                match engine.route_once(&req, now, &[], router) {
                    Some((i, est)) => {
                        engine.admit(i, &req, est, now, sink);
                        engine.runtime[request].attempts.push(i);
                        if let Some(h) = &chaos.hedge {
                            // Hedge deadline: a fraction of the e2e SLO,
                            // or of the routed replica's own service
                            // estimate when the fleet has no SLO.
                            let deadline_s = config.slo.map_or(est, |slo| slo.e2e_s);
                            engine.queue.push(
                                req.arrival_s + h.after_frac * deadline_s,
                                EventKind::HedgeFire { request },
                            );
                        }
                    }
                    None => {
                        engine.outcomes[request] = Some(ClusterOutcome {
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
                        engine.runtime[request].resolved = true;
                        engine.resolved += 1;
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
                if engine.runtime[request].resolved {
                    continue;
                }
                let req = engine.request(request);
                match engine.route_once(&req, now, &[], router) {
                    Some((i, est)) => {
                        engine.admit(i, &req, est, now, sink);
                        engine.runtime[request].attempts.push(i);
                    }
                    // Nowhere to go right now: burns another retry (or
                    // terminates) rather than waiting forever.
                    None => engine.retry_or_fail(
                        request,
                        now,
                        &req,
                        &chaos,
                        &mut retry_budget_left,
                        &mut retry_rng,
                        sink,
                    ),
                }
            }
            EventKind::HedgeFire { request } => {
                let rt = &engine.runtime[request];
                if rt.resolved || rt.hedged || rt.attempts.is_empty() {
                    continue;
                }
                let mut exclude = [0usize; 2];
                let n_exclude = rt.attempts.as_slice().len();
                exclude[..n_exclude].copy_from_slice(rt.attempts.as_slice());
                let req = engine.request(request);
                if let Some((i, est)) = engine.route_once(&req, now, &exclude[..n_exclude], router)
                {
                    engine.runtime[request].hedged = true;
                    engine.hedges_total += 1;
                    engine.admit(i, &req, est, now, sink);
                    engine.runtime[request].attempts.push(i);
                }
            }
            EventKind::WarmupDone { replica } => {
                if let ReplicaState::Warming { ready_at_s } = engine.replicas[replica].state {
                    if ready_at_s <= now {
                        engine.replicas[replica].state = ReplicaState::Warm;
                        engine.try_dispatch(replica, now, sink);
                    }
                }
            }
            EventKind::SlotDone { replica, slot } => {
                // A stale key (crash destroyed the attempt, or a hedge
                // twin won and cancelled it) simply fails to resolve —
                // the slab removal that invalidated it already bumped the
                // slot's generation.
                let Some(inflight) = engine.slab.remove(slot) else {
                    continue;
                };
                let request = inflight.request;
                let r = &mut engine.replicas[replica];
                let Some(pos) = r.active.iter().position(|a| a.key == slot) else {
                    debug_assert!(false, "a live dispatched slot must be in `active`");
                    continue;
                };
                r.active.swap_remove(pos);
                let req = engine.request(request);
                let r = &mut engine.replicas[replica];
                r.outstanding_tokens = r.outstanding_tokens.saturating_sub(req.total_tokens());
                // Pipeline handoff: a non-final stage forwards the
                // request's activations to the next stage over the group
                // link instead of resolving it — outcome, span, makespan
                // and router feedback all belong to the final stage.
                if let Some(p) = engine.stage_of[replica] {
                    if p.stage + 1 < p.depth {
                        let Some(pipeline) = &engine.config.pipeline else {
                            unreachable!("stage positions require a pipeline config")
                        };
                        let group = &pipeline.groups[p.group];
                        let next = group.replicas[p.stage + 1];
                        let model = &engine.config.models[req.model];
                        // One hop of the prompt's bf16 activation rows;
                        // per-token decode handoffs ride along (they are
                        // orders of magnitude smaller).
                        let hop = group
                            .link
                            .transfer_time(llmsim_hw::Bytes::new(
                                req.prompt_len * model.d_model * 2,
                            ))
                            .as_f64();
                        engine.pipeline_handoffs += 1;
                        engine.queue.push(
                            now + hop,
                            EventKind::StageArrive {
                                request,
                                replica: next,
                            },
                        );
                        engine.try_dispatch(replica, now, sink);
                        engine.note_stage_idle(replica, now);
                        continue;
                    }
                }
                let r = &mut engine.replicas[replica];
                if let (Some(seq), Some(kv)) = (inflight.kv, r.kv.as_mut()) {
                    engine.prefix_hit_tokens += seq.hit_blocks * kv.block_tokens;
                    kv.release_hits(&req, seq.hit_blocks, now);
                    // Donate the finished context to the prefix pool: the
                    // next turn of this session (or the next request with
                    // this prefix) hits these blocks and skips prefill.
                    kv.commit_chain(&req, seq.hit_blocks, seq.private_blocks, now);
                }
                engine.makespan_s = engine.makespan_s.max(now);
                engine.resolved += 1;
                let rt = &mut engine.runtime[request];
                rt.resolved = true;
                let losers = rt.attempts;
                rt.attempts.clear();
                if let Some(mut out) = inflight.pending {
                    out.retries = engine.runtime[request].retries;
                    out.hedged = engine.runtime[request].hedged;
                    engine.outcomes[request] = Some(out);
                }
                if let Some(span) = inflight.span {
                    sink.record(span);
                }
                router.observe(&HealthSignal::Success {
                    replica,
                    now_s: now,
                });
                for &loser in losers.as_slice() {
                    if loser == replica {
                        continue;
                    }
                    engine.wasted_tokens += engine.cancel_attempt(loser, &req, now);
                    engine.try_dispatch(loser, now, sink);
                }
                engine.try_dispatch(replica, now, sink);
                engine.note_stage_idle(replica, now);
            }
            EventKind::StageArrive { request, replica } => {
                // The upstream stage's handoff lands: admit directly —
                // stage admission bypasses `queue_cap` (stage-0 admission
                // already bounded the chain's in-flight work) and never
                // consults the router.
                let req = engine.request(request);
                let group = engine.cache.group_of(replica);
                let est = engine.cache.service(group, &req, 1).1;
                engine.admit(replica, &req, est, now, sink);
            }
            EventKind::KvGrow { replica, slot } => {
                // Stale key (the sequence completed, crashed, was hedge-
                // cancelled, or was itself preempted): nothing to grow.
                if engine.slab.get(slot).is_none() {
                    continue;
                }
                engine.grow_one_block(replica, slot, now);
            }
            EventKind::Completion { .. } => {
                debug_assert!(
                    false,
                    "the fast engine schedules SlotDone, never Completion"
                );
            }
            EventKind::Fault { fault } => {
                let f = fault_schedule[fault];
                match f.kind {
                    FaultKind::Crash => {
                        let r = &mut engine.replicas[f.replica];
                        if matches!(r.state, ReplicaState::Standby | ReplicaState::Failed { .. }) {
                            // Parked or already down: nothing to kill.
                            continue;
                        }
                        r.epoch += 1;
                        r.crashes += 1;
                        r.warmups += 1;
                        let queued: Vec<QueuedEntry> = r.queue.drain(..).collect();
                        let active: Vec<ActiveEntry> = std::mem::take(&mut r.active);
                        r.outstanding_tokens = 0;
                        r.queued_backlog_s = 0.0;
                        // Host memory is gone: prefix cache and all.
                        if let Some(kv) = r.kv.as_mut() {
                            kv.reset(now);
                        }
                        for q in &queued {
                            engine.slab.remove(q.key);
                        }
                        // Refund unrun service; the partial run is waste.
                        for a in &active {
                            let Some(inf) = engine.slab.remove(a.key) else {
                                debug_assert!(false, "active entry must have a live slab record");
                                continue;
                            };
                            let gen_len = engine.request(inf.request).gen_len;
                            let r = &mut engine.replicas[f.replica];
                            r.busy_slot_s -= (inf.completion_s - now).max(0.0);
                            engine.wasted_tokens += partial_tokens(&inf, gen_len, now);
                        }
                        let r = &mut engine.replicas[f.replica];
                        let ready = now + r.cfg.warmup_time(&config.models).as_f64();
                        let epoch = r.epoch;
                        r.state = ReplicaState::Failed { ready_at_s: ready };
                        engine.queue.push(
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
                        for victim in queued
                            .iter()
                            .map(|q| q.request)
                            .chain(active.iter().map(|a| a.request))
                        {
                            let rt = &mut engine.runtime[victim];
                            rt.attempts.remove(f.replica);
                            if rt.resolved || !rt.attempts.is_empty() {
                                // A hedge twin is still alive elsewhere.
                                continue;
                            }
                            let req = engine.request(victim);
                            engine.retry_or_fail(
                                victim,
                                now,
                                &req,
                                &chaos,
                                &mut retry_budget_left,
                                &mut retry_rng,
                                sink,
                            );
                        }
                    }
                    FaultKind::Slowdown { factor, duration_s } => {
                        let r = &mut engine.replicas[f.replica];
                        r.slow_factor = factor;
                        r.slow_until_s = r.slow_until_s.max(now + duration_s);
                    }
                    FaultKind::Partition { duration_s } => {
                        let r = &mut engine.replicas[f.replica];
                        r.partitioned_until_s = r.partitioned_until_s.max(now + duration_s);
                    }
                    FaultKind::Drain { duration_s } => {
                        let r = &mut engine.replicas[f.replica];
                        if r.state == ReplicaState::Warm {
                            r.state = ReplicaState::Draining;
                            engine.queue.push(
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
                let r = &mut engine.replicas[replica];
                if r.epoch != epoch {
                    // A second crash struck mid-recovery; its own
                    // RecoveryDone supersedes this one.
                    continue;
                }
                if matches!(r.state, ReplicaState::Failed { .. }) {
                    r.state = ReplicaState::Warm;
                    engine.try_dispatch(replica, now, sink);
                }
            }
            EventKind::DrainEnd { replica, epoch } => {
                let r = &mut engine.replicas[replica];
                if r.epoch == epoch && r.state == ReplicaState::Draining {
                    r.state = ReplicaState::Warm;
                    engine.try_dispatch(replica, now, sink);
                }
            }
            EventKind::ScaleTick => {
                let Some(auto) = &config.autoscale else {
                    continue;
                };
                for r in engine.replicas.iter_mut() {
                    if r.state == ReplicaState::Warm && r.in_flight() == 0 {
                        r.idle_ticks += 1;
                    } else {
                        r.idle_ticks = 0;
                    }
                }
                let gauge = FleetGauge {
                    active_replicas: engine.replicas.iter().filter(|r| r.routable(now)).count(),
                    standby_replicas: engine
                        .replicas
                        .iter()
                        .filter(|r| r.state == ReplicaState::Standby)
                        .count(),
                    in_flight: engine
                        .replicas
                        .iter()
                        .filter(|r| r.routable(now))
                        .map(Replica::in_flight)
                        .sum(),
                    idle_eligible: engine
                        .replicas
                        .iter()
                        .filter(|r| {
                            r.state == ReplicaState::Warm
                                && r.in_flight() == 0
                                && r.idle_ticks >= auto.scale_down_idle_ticks
                        })
                        .count(),
                    failed_replicas: engine
                        .replicas
                        .iter()
                        .filter(|r| matches!(r.state, ReplicaState::Failed { .. }))
                        .count(),
                };
                match auto.decide(gauge) {
                    ScaleDecision::Up => {
                        if let Some(i) = engine
                            .replicas
                            .iter()
                            .position(|r| r.state == ReplicaState::Standby)
                        {
                            let ready =
                                now + engine.replicas[i].cfg.warmup_time(&config.models).as_f64();
                            engine.replicas[i].state = ReplicaState::Warming { ready_at_s: ready };
                            engine.replicas[i].warmups += 1;
                            scale_ups += 1;
                            engine
                                .queue
                                .push(ready, EventKind::WarmupDone { replica: i });
                        }
                    }
                    ScaleDecision::Down => {
                        if let Some(i) = engine.replicas.iter().position(|r| {
                            r.state == ReplicaState::Warm
                                && r.in_flight() == 0
                                && r.idle_ticks >= auto.scale_down_idle_ticks
                        }) {
                            engine.replicas[i].state = ReplicaState::Standby;
                            engine.replicas[i].idle_ticks = 0;
                            scale_downs += 1;
                        }
                    }
                    ScaleDecision::Hold => {}
                }
                // Keep ticking only while work remains unresolved.
                if engine.resolved < requests.len() {
                    engine
                        .queue
                        .push(now + auto.interval_s, EventKind::ScaleTick);
                }
            }
        }
        let in_flight_now: usize = engine.replicas.iter().map(Replica::in_flight).sum();
        peak_in_flight = peak_in_flight.max(in_flight_now as u64);
        // Block conservation holds after *every* event, not just at the
        // end: a leak or double-free surfaces at the exact event that
        // caused it (the ISSUE's acceptance invariant; O(replicas) and
        // only on KV-enabled runs, so the fixed-slot path pays nothing).
        if config.kv.is_some() {
            for kv in engine.replicas.iter().filter_map(|r| r.kv.as_ref()) {
                kv.assert_conserved();
            }
        }
    }
    sink.finish();
    // Close the occupancy integrals at the makespan so mean occupancy
    // reflects the whole run.
    let final_note_s = engine.makespan_s;
    for r in engine.replicas.iter_mut() {
        if let Some(kv) = r.kv.as_mut() {
            kv.note(final_note_s);
        }
    }

    debug_assert_eq!(
        engine.resolved,
        requests.len(),
        "every request must terminate"
    );
    let outcomes: Vec<ClusterOutcome> = engine.outcomes.into_iter().flatten().collect();
    assert_eq!(
        outcomes.len(),
        requests.len(),
        "every request must have a terminal outcome"
    );

    let generated_tokens: u64 = outcomes.iter().map(|o| o.tokens).sum();
    let goodput_tokens: u64 = outcomes
        .iter()
        .filter(|o| match &config.slo {
            // Rejected/unserved outcomes have no latencies and always
            // count as SLO misses — `meets_slo` handles them without
            // unwrapping.
            Some(slo) => o.meets_slo(slo),
            None => o.state == OutcomeState::Completed,
        })
        .map(|o| o.tokens)
        .sum();

    let crashes: u64 = engine.replicas.iter().map(|r| r.crashes).sum();
    let makespan_s = engine.makespan_s;
    let replica_stats = engine
        .replicas
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
            kv_peak_occupancy: r
                .kv
                .as_ref()
                .map_or(0.0, crate::kv::KvState::peak_occupancy),
            kv_mean_occupancy: r
                .kv
                .as_ref()
                .map_or(0.0, |kv| kv.mean_occupancy(makespan_s)),
            pipeline_bubble_s: r.pipeline_bubble_s,
        })
        .collect();

    FleetReport {
        router: router.name(),
        outcomes,
        makespan_s,
        generated_tokens,
        goodput_tokens,
        wasted_tokens: engine.wasted_tokens,
        retries: engine.retries_total,
        hedges: engine.hedges_total,
        crashes,
        prefix_hit_tokens: engine.prefix_hit_tokens,
        preemptions: engine.preemptions_total,
        slo: config.slo,
        replicas: replica_stats,
        scale_ups,
        scale_downs,
        events_processed,
        peak_in_flight,
        pipeline_groups: config
            .pipeline
            .as_ref()
            .map_or(0, |p| p.groups.len() as u64),
        pipeline_handoffs: engine.pipeline_handoffs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{HeteroAware, JoinShortestQueue, RoundRobin};
    use llmsim_core::{CostModel, CpuBackend};
    use llmsim_hw::{presets, NumaConfig};
    use llmsim_model::{families, DType};
    use std::sync::Arc;

    fn cpu_fleet(n: usize) -> ClusterConfig {
        let replicas = (0..n)
            .map(|_| {
                let backend = CpuBackend::new(
                    presets::spr_max_9468(),
                    NumaConfig::QUAD_FLAT,
                    48,
                    DType::Bf16,
                )
                .expect("valid backend");
                ReplicaConfig::warm(Arc::new(backend) as Arc<dyn CostModel + Send + Sync>)
            })
            .collect();
        ClusterConfig::new(replicas, vec![families::opt_13b()])
    }

    fn trace(n: usize, gap_s: f64) -> Vec<ClusterRequest> {
        (0..n)
            .map(|i| ClusterRequest {
                id: i,
                arrival_s: i as f64 * gap_s,
                prompt_len: 128,
                gen_len: 32,
                ..ClusterRequest::default()
            })
            .collect()
    }

    #[test]
    fn every_request_terminates() {
        let config = cpu_fleet(2);
        let reqs = trace(20, 0.05);
        let report = simulate_fleet(&config, &mut RoundRobin::new(), &reqs);
        assert_eq!(report.outcomes.len(), 20);
        assert_eq!(report.completed() + report.rejected(), 20);
        assert!(report.completed() > 0);
        assert!(report.makespan_s > 0.0);
    }

    #[test]
    fn same_seed_same_report() {
        let config = cpu_fleet(3);
        let reqs = trace(30, 0.02);
        let a = simulate_fleet(&config, &mut JoinShortestQueue, &reqs);
        let b = simulate_fleet(&config, &mut JoinShortestQueue, &reqs);
        assert_eq!(a.render(), b.render());
        assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
    }

    #[test]
    fn engine_counters_are_populated() {
        let config = cpu_fleet(2);
        let reqs = trace(20, 0.05);
        let report = simulate_fleet(&config, &mut RoundRobin::new(), &reqs);
        // At minimum one arrival event per request was processed.
        assert!(report.events_processed >= reqs.len() as u64);
        assert!(report.peak_in_flight >= 1);
        assert!(report.peak_in_flight <= reqs.len() as u64);
        assert!(report.render().contains("events="));
        assert!(report.render().contains("peak_in_flight="));
    }

    #[test]
    fn cold_replica_pays_warmup_before_serving() {
        let mut config = cpu_fleet(1);
        config.replicas[0].start = ReplicaStart::Cold;
        let reqs = trace(1, 0.0);
        let report = simulate_fleet(&config, &mut RoundRobin::new(), &reqs);
        let warmup = config.replicas[0].warmup_time(&config.models).as_f64();
        assert!(warmup > 0.0);
        let delay = report.outcomes[0].queue_delay_s.unwrap();
        assert!(
            delay >= warmup * 0.999,
            "queue delay {delay} should cover warmup {warmup}"
        );
        assert_eq!(report.replicas[0].warmups, 1);
    }

    #[test]
    fn router_prediction_matches_single_server_simulation() {
        // Cross-check: for a single request on an otherwise idle replica
        // (batch width 1 throughout), the router's predicted service time
        // — and therefore the fleet's reported e2e — must agree with the
        // single-server iteration-level simulator pricing the same
        // request on the same backend. Both now charge prefill plus the
        // exact per-step decode sum over the growing KV length.
        use llmsim_core::serving::{simulate, SchedulingPolicy, ServingConfig, ServingRequest};
        use llmsim_core::CpuBackend;

        let model = families::opt_13b();
        let backend = CpuBackend::paper_spr();
        for (prompt_len, gen_len) in [(128, 32), (64, 1), (512, 100), (1, 2)] {
            let fleet = ClusterConfig::new(
                vec![ReplicaConfig::warm(
                    Arc::new(CpuBackend::paper_spr()) as Arc<dyn CostModel + Send + Sync>
                )],
                vec![model.clone()],
            );
            let req = ClusterRequest {
                id: 0,
                arrival_s: 0.0,
                prompt_len,
                gen_len,
                ..ClusterRequest::default()
            };
            let fleet_e2e = simulate_fleet(&fleet, &mut RoundRobin::new(), &[req]).outcomes[0]
                .e2e_s
                .unwrap();
            let serving_e2e = simulate(
                &backend,
                &model,
                &ServingConfig {
                    max_batch: 1,
                    policy: SchedulingPolicy::IterationLevel,
                },
                &[ServingRequest {
                    id: 0,
                    arrival_s: 0.0,
                    prompt_len,
                    gen_len,
                }],
            )
            .outcomes[0]
                .e2e_s;
            let rel = (fleet_e2e - serving_e2e).abs() / serving_e2e;
            assert!(
                rel < 1e-9,
                "prompt {prompt_len} gen {gen_len}: fleet {fleet_e2e} vs serving {serving_e2e} \
                 (rel err {rel})"
            );
        }
    }

    #[test]
    fn spans_reconcile_with_fleet_outcomes() {
        use llmsim_core::trace::{SpanOutcome, VecSink};

        let mut config = cpu_fleet(2);
        // Force some rejections: tiny queue on both replicas.
        for r in &mut config.replicas {
            r.queue_cap = 3;
            r.max_batch = 2;
        }
        let reqs = trace(12, 0.01);
        let mut sink = VecSink::new();
        let traced = simulate_fleet_traced(&config, &mut RoundRobin::new(), &reqs, &mut sink);

        // Tracing is observational: identical report with and without.
        let plain = simulate_fleet(&config, &mut RoundRobin::new(), &reqs);
        assert_eq!(traced.render(), plain.render());
        assert_eq!(
            format!("{:?}", traced.outcomes),
            format!("{:?}", plain.outcomes)
        );

        // One span per request, reconciling with the outcome's latencies.
        assert_eq!(sink.spans.len(), reqs.len());
        for o in &traced.outcomes {
            let s = sink
                .spans
                .iter()
                .find(|s| s.id == o.id as u64)
                .expect("span per request");
            match o.state {
                OutcomeState::Completed => {
                    assert_eq!(s.outcome, SpanOutcome::Completed);
                    assert_eq!(s.replica, o.replica);
                    assert!((s.queue_delay_s - o.queue_delay_s.unwrap()).abs() < 1e-9);
                    assert!((s.ttft_s() - o.ttft_s.unwrap()).abs() < 1e-9);
                    assert!((s.e2e_s() - o.e2e_s.unwrap()).abs() < 1e-9);
                    let phase_sum = s.queue_delay_s + s.prefill_s() + s.decode_s;
                    assert!(
                        (phase_sum - s.e2e_s()).abs() < 1e-9,
                        "phases must sum to e2e"
                    );
                    assert!(s.batch_at_dispatch >= 1 && s.batch_at_dispatch <= 2);
                }
                OutcomeState::Rejected => {
                    assert_eq!(s.outcome, SpanOutcome::Rejected);
                    assert!(s.e2e_s().is_nan());
                }
                OutcomeState::Failed => unreachable!("no chaos configured"),
            }
        }
        // Deterministic TSV: same run, same bytes.
        let mut sink2 = VecSink::new();
        let _ = simulate_fleet_traced(&config, &mut RoundRobin::new(), &reqs, &mut sink2);
        assert_eq!(sink.to_tsv(), sink2.to_tsv());
    }

    #[test]
    fn overload_rejects_instead_of_growing_unbounded() {
        let mut config = cpu_fleet(1);
        config.replicas[0] = config.replicas[0]
            .clone()
            .with_queue_cap(2)
            .with_max_batch(1);
        // All at t=0: only queue_cap can be admitted.
        let reqs = trace(10, 0.0);
        let report = simulate_fleet(&config, &mut HeteroAware, &reqs);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.rejected(), 8);
        assert!(report.reject_rate() > 0.7);
    }

    #[test]
    fn shared_backend_arc_shares_one_prediction_group() {
        // Pricing must be identical whether replicas share one backend
        // Arc (one memo group) or own four equal backends (four groups):
        // grouping is a lookup optimization, never a semantic input.
        let shared: Arc<dyn CostModel + Send + Sync> = Arc::new(CpuBackend::paper_spr());
        let config_shared = ClusterConfig::new(
            (0..4)
                .map(|_| ReplicaConfig::warm(shared.clone()))
                .collect(),
            vec![families::opt_13b()],
        );
        let config_owned = cpu_fleet(4);
        let reqs = trace(40, 0.02);
        let a = simulate_fleet(&config_shared, &mut RoundRobin::new(), &reqs);
        let b = simulate_fleet(&config_owned, &mut RoundRobin::new(), &reqs);
        assert_eq!(a.render(), b.render());
        assert_eq!(format!("{:?}", a.outcomes), format!("{:?}", b.outcomes));
    }
}
