//! The continuous-batching engine: the one implementation of
//! iteration-level (Orca-style) and chunked-prefill (Sarathi-style)
//! scheduling, with fault injection, deadlines, admission control, retry,
//! and preemption hooks.
//!
//! [`crate::serving`] runs both policies here under
//! [`super::ResilienceConfig::passthrough`], where every hook is inert: no
//! draw perturbs a cost, no deadline or queue bound cancels a job, and no
//! KV budget preempts one. [`simulate_resilient`] runs them with the hooks
//! its caller configures.

use super::metrics::ResilienceReport;
use super::{
    DegradationPolicy, FailureKind, FaultModel, ResilienceConfig, ResilientOutcome, SimRng,
    TerminalState, TimeoutPhase,
};
use crate::backend::CostModel;
use crate::cpu_backend::CpuBackend;
use crate::pricing::StepTable;
use crate::serving::{check_inputs, SchedulingPolicy, ServingRequest};
use crate::trace::{NullSink, SpanOutcome, SpanRecord, SpanSink};
use llmsim_model::ModelConfig;
use std::collections::VecDeque;

/// A request flowing through the resilient scheduler; survives retries and
/// preemptions.
#[derive(Debug, Clone, Copy)]
struct Job {
    id: u64,
    arrival_s: f64,
    prompt_len: u64,
    gen_len: u64,
    /// Tokens produced by the current attempt (kept across preemptions —
    /// recompute rebuilds their KV without re-emitting — reset by retries).
    produced: u64,
    /// The prefill that delivered the current attempt's first token (kept
    /// across preemptions, cleared by retries).
    first: Option<FirstToken>,
    retries: u32,
    preemptions: u32,
}

/// The prefill that delivered a job's first token.
#[derive(Debug, Clone, Copy)]
struct FirstToken {
    /// When that prefill began.
    dispatch_s: f64,
    /// When it ended, emitting the token.
    at_s: f64,
    /// The batch width the job's span reports, the job included.
    batch: u64,
}

impl Job {
    fn new(r: &ServingRequest) -> Self {
        Job {
            id: r.id,
            arrival_s: r.arrival_s,
            prompt_len: r.prompt_len,
            gen_len: r.gen_len,
            produced: 0,
            first: None,
            retries: 0,
            preemptions: 0,
        }
    }

    /// Tokens a (re)prefill must process: the prompt plus, after a
    /// preemption, every token already generated (recompute semantics).
    fn prefill_len(&self) -> u64 {
        self.prompt_len + self.produced
    }
}

/// A job in the running batch.
#[derive(Debug, Clone, Copy)]
struct ActiveJob {
    job: Job,
    context: u64,
    remaining: u64,
    /// When the job joined the current batch (chunked prefill's
    /// joined-this-iteration guard; distinct from its first token, which a
    /// preempted job keeps from its first attempt).
    joined_s: f64,
    /// Monotone admission counter; the degradation policy evicts the
    /// highest (most recently admitted = lowest priority).
    join_seq: u64,
}

/// A job waiting to (re)arrive: an original arrival or a scheduled retry.
#[derive(Debug, Clone, Copy)]
struct Pending {
    at_s: f64,
    seq: u64,
    job: Job,
}

/// `pending` is kept sorted descending by `(at_s, seq)` so the earliest
/// event pops from the back in O(1).
fn push_pending(pending: &mut Vec<Pending>, p: Pending) {
    let pos = pending.partition_point(|q| match q.at_s.total_cmp(&p.at_s) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => q.seq > p.seq,
    });
    pending.insert(pos, p);
}

/// What the fault draw decided for one scheduler iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultDraw {
    None,
    /// Socket loss: the whole iteration's work is gone, every participant
    /// is a victim.
    WholeBatch,
    /// Core loss: one victim, chosen by the `index`-th participant.
    Single(usize),
}

/// Deterministic per-iteration fault source.
#[derive(Debug)]
struct Injector {
    model: FaultModel,
    rng: SimRng,
    slowdowns: u64,
    faults: u64,
}

impl Injector {
    fn new(model: FaultModel) -> Self {
        let rng = SimRng::new(model.seed);
        Injector {
            model,
            rng,
            slowdowns: 0,
            faults: 0,
        }
    }

    /// Perturbs one iteration's cost and decides its fault, drawing the
    /// same stream positions regardless of probabilities so the pattern
    /// under one seed is comparable across fault-rate settings.
    fn perturb(&mut self, raw_cost: f64, participants: usize) -> (f64, FaultDraw) {
        let u_slow = self.rng.next_f64();
        let u_fault = self.rng.next_f64();
        let cost = if u_slow < self.model.slowdown_prob {
            self.slowdowns += 1;
            raw_cost * self.model.slowdown_factor
        } else {
            raw_cost
        };
        if participants > 0 && u_fault < self.model.fault_prob {
            self.faults += 1;
            let u_scope = self.rng.next_f64();
            if u_scope < self.model.whole_batch_fault_prob {
                (cost, FaultDraw::WholeBatch)
            } else {
                (
                    cost,
                    FaultDraw::Single((self.rng.next_u64() % participants as u64) as usize),
                )
            }
        } else {
            (cost, FaultDraw::None)
        }
    }
}

/// Everything the scheduler loops share: terminal bookkeeping, admission,
/// expiry, retry scheduling, and the memory model.
struct Engine<'a, B: CostModel + ?Sized> {
    backend: &'a B,
    model: &'a ModelConfig,
    /// Decode-step prices of `backend` for `model`, each priced once.
    steps: StepTable,
    cfg: ResilienceConfig,
    /// Receives the span of every completed job.
    sink: &'a mut dyn SpanSink,
    injector: Injector,
    pending: Vec<Pending>,
    queue: VecDeque<Job>,
    outcomes: Vec<ResilientOutcome>,
    generated: u64,
    goodput_tokens: u64,
    retries_total: u64,
    preemptions_total: u64,
    retry_budget_left: Option<u64>,
    retry_seq: u64,
    join_seq: u64,
    kv_bytes_per_token: u64,
}

impl<'a, B: CostModel + ?Sized> Engine<'a, B> {
    fn new(
        backend: &'a B,
        model: &'a ModelConfig,
        kv_bytes_per_token: u64,
        cfg: ResilienceConfig,
        requests: &[ServingRequest],
        sink: &'a mut dyn SpanSink,
    ) -> Self {
        let mut pending = Vec::with_capacity(requests.len());
        // Arrival order with ascending seq; stored descending so the
        // earliest arrival pops from the back.
        for (i, r) in requests.iter().enumerate().rev() {
            pending.push(Pending {
                at_s: r.arrival_s,
                seq: i as u64,
                job: Job::new(r),
            });
        }
        Engine {
            backend,
            model,
            steps: StepTable::new(),
            cfg,
            sink,
            injector: Injector::new(cfg.faults),
            pending,
            queue: VecDeque::new(),
            outcomes: Vec::with_capacity(requests.len()),
            generated: 0,
            goodput_tokens: 0,
            retries_total: 0,
            preemptions_total: 0,
            retry_budget_left: cfg.retry.retry_budget,
            retry_seq: requests.len() as u64,
            join_seq: 0,
            kv_bytes_per_token,
        }
    }

    /// One decode step of `batch` sequences over `kv_len` context tokens.
    fn step_s(&mut self, batch: u64, kv_len: u64) -> f64 {
        self.steps.step_s(self.backend, self.model, batch, kv_len)
    }

    /// Records the single terminal state of a job.
    fn finish(&mut self, job: &Job, state: TerminalState, at_s: f64) {
        let e2e_s = (at_s - job.arrival_s).max(0.0);
        if state.is_success() {
            self.goodput_tokens += job.gen_len;
        }
        self.outcomes.push(ResilientOutcome {
            id: job.id,
            state,
            queue_delay_s: job.first.map_or(e2e_s, |f| f.dispatch_s - job.arrival_s),
            ttft_s: job.first.map(|f| f.at_s - job.arrival_s),
            e2e_s,
            retries: job.retries,
            preemptions: job.preemptions,
        });
    }

    /// Records a job that delivered its last token at `now`, and its span.
    fn complete(&mut self, job: &Job, now: f64) {
        let state = if job.preemptions > 0 {
            TerminalState::PreemptedThenCompleted
        } else {
            TerminalState::Completed
        };
        self.finish(job, state, now);
        if let Some(first) = job.first.filter(|_| self.sink.enabled()) {
            self.sink.record(SpanRecord {
                id: job.id,
                model: 0,
                replica: None,
                outcome: SpanOutcome::Completed,
                arrival_s: job.arrival_s,
                queue_delay_s: first.dispatch_s - job.arrival_s,
                dispatch_s: first.dispatch_s,
                prefill_end_s: first.at_s,
                // Completion minus first token, so the phases sum to e2e.
                decode_s: now - first.at_s,
                decode_steps: job.gen_len - 1,
                completion_s: now,
                batch_at_dispatch: first.batch,
                prefix_hit_tokens: 0,
                preemptions: u64::from(job.preemptions),
            });
        }
    }

    /// Ends `job`'s (re)prefill at `first.at_s`: a fresh attempt emits its
    /// first token, a preempted job only rebuilt its KV. The job then joins
    /// `active`, unless the join SLO gate cancels it or it has nothing left
    /// to generate, in which case it retires here.
    fn join(&mut self, mut job: Job, first: FirstToken, active: &mut Vec<ActiveJob>) {
        let now = first.at_s;
        if job.produced == 0 {
            self.generated += 1;
            job.produced = 1;
            job.first = Some(first);
        }
        let a = ActiveJob {
            context: job.prefill_len(),
            remaining: job.gen_len - job.produced,
            joined_s: now,
            join_seq: self.join_seq,
            job,
        };
        self.join_seq += 1;
        if !self.passes_join_slo(&a.job, now) {
            return;
        }
        if a.remaining == 0 {
            self.complete(&a.job, now);
        } else {
            active.push(a);
        }
    }

    /// The instant a still-queued job becomes hopeless: its earliest
    /// applicable deadline (TTFT counts — a queued job has produced
    /// nothing).
    fn queue_deadline(&self, job: &Job) -> Option<f64> {
        let slo = &self.cfg.slo;
        let dl = match (slo.ttft_deadline_s, slo.e2e_deadline_s) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        // A preempted job already delivered its first token, so only the
        // end-to-end budget still binds while it waits again.
        if job.first.is_some() {
            return slo.e2e_deadline_s.map(|b| job.arrival_s + b);
        }
        Some(job.arrival_s + dl)
    }

    /// Moves every arrival/retry due by `now` into the bounded queue,
    /// shedding on saturation and cancelling already-expired entries.
    fn drain_arrivals(&mut self, now: f64) {
        while self.pending.last().is_some_and(|p| p.at_s <= now) {
            let Some(p) = self.pending.pop() else { break };
            if let Some(dl) = self.queue_deadline(&p.job) {
                if p.at_s > dl {
                    // A retry scheduled past its own deadline: cancel at
                    // the deadline instant, not the re-arrival.
                    self.finish(
                        &p.job.clone(),
                        TerminalState::TimedOut(TimeoutPhase::Queued),
                        dl,
                    );
                    continue;
                }
            }
            if let Some(cap) = self.cfg.admission.queue_capacity {
                if self.queue.len() >= cap {
                    self.finish(&p.job.clone(), TerminalState::Rejected, p.at_s);
                    continue;
                }
            }
            self.queue.push_back(p.job);
        }
    }

    /// Cancels queued jobs whose deadline passed while they waited.
    fn expire_queued(&mut self, now: f64) {
        if self.cfg.slo.ttft_deadline_s.is_none() && self.cfg.slo.e2e_deadline_s.is_none() {
            return;
        }
        let mut kept = VecDeque::with_capacity(self.queue.len());
        while let Some(job) = self.queue.pop_front() {
            match self.queue_deadline(&job) {
                Some(dl) if now > dl => {
                    self.finish(&job, TerminalState::TimedOut(TimeoutPhase::Queued), dl);
                }
                _ => kept.push_back(job),
            }
        }
        self.queue = kept;
    }

    /// Routes a faulted/OOM-failed job: schedule a backoff retry if policy
    /// and budget allow, otherwise record the terminal failure.
    fn fail_or_retry(&mut self, mut job: Job, now: f64, kind: FailureKind) {
        if !self.cfg.retry.allows(job.retries, self.retry_budget_left) {
            self.finish(&job, TerminalState::Failed(kind), now);
            return;
        }
        if let Some(b) = self.retry_budget_left.as_mut() {
            *b -= 1;
        }
        job.retries += 1;
        self.retries_total += 1;
        // The retry is a fresh attempt: progress and first-token credit are
        // gone (the client re-issues the stream).
        job.produced = 0;
        job.first = None;
        let backoff = self
            .cfg
            .retry
            .backoff_s(job.retries, self.injector.rng.next_f64());
        let seq = self.retry_seq;
        self.retry_seq += 1;
        push_pending(
            &mut self.pending,
            Pending {
                at_s: now + backoff,
                seq,
                job,
            },
        );
    }

    /// Requeues a preempted job at the head of the queue (it holds an
    /// admission slot already; capacity does not apply twice).
    fn requeue_preempted(&mut self, mut job: Job) {
        job.preemptions += 1;
        self.preemptions_total += 1;
        self.queue.push_front(job);
    }

    /// KV bytes the batch (plus `extra_tokens` of partially-built prefill
    /// state) holds right now.
    fn kv_demand(&self, active: &[ActiveJob], extra_tokens: u64) -> u64 {
        let tokens: u64 = active.iter().map(|a| a.context).sum::<u64>() + extra_tokens;
        tokens * self.kv_bytes_per_token
    }

    /// Whether admitting `job` next to the running batch (plus
    /// `extra_tokens` of other already-admitted prefill state) stays
    /// within the KV budget. Prevents admit→evict thrash: an evicted job
    /// waits in the queue until memory actually frees. Always true without
    /// a budget, keeping passthrough exact.
    fn admission_fits(&self, active: &[ActiveJob], extra_tokens: u64, job: &Job) -> bool {
        let Some(budget) = self.cfg.faults.kv_budget else {
            return true;
        };
        self.kv_demand(active, extra_tokens + job.prefill_len()) <= budget.get()
    }

    /// Applies the degradation policy until the batch fits the KV budget.
    /// Returns `true` while the batch still has members.
    fn enforce_memory(&mut self, active: &mut Vec<ActiveJob>, extra_tokens: u64, now: f64) {
        let Some(budget) = self.cfg.faults.kv_budget else {
            return;
        };
        while !active.is_empty() && self.kv_demand(active, extra_tokens) > budget.get() {
            let Some(victim_pos) = active
                .iter()
                .enumerate()
                .max_by_key(|(_, a)| a.join_seq)
                .map(|(i, _)| i)
            else {
                break; // unreachable: the loop guard keeps `active` non-empty
            };
            let victim = active.remove(victim_pos);
            if active.is_empty() && self.kv_demand(&[], extra_tokens) == 0 {
                // The victim alone exceeds the budget: no schedule can run
                // it, so retrying or requeueing would thrash forever.
                let lone_demand = victim.context * self.kv_bytes_per_token;
                if lone_demand > budget.get() {
                    self.finish(
                        &victim.job,
                        TerminalState::Failed(FailureKind::OutOfMemory),
                        now,
                    );
                    continue;
                }
            }
            match self.cfg.degradation {
                DegradationPolicy::PreemptAndRequeue => self.requeue_preempted(victim.job),
                DegradationPolicy::FailNewest => {
                    self.fail_or_retry(victim.job, now, FailureKind::OutOfMemory);
                }
            }
        }
    }

    /// Post-prefill SLO gate for a job that just (re)joined the batch.
    /// Returns `false` if the job was cancelled.
    fn passes_join_slo(&mut self, job: &Job, now: f64) -> bool {
        if let (Some(dl), Some(f)) = (self.cfg.slo.ttft_deadline_s, job.first) {
            if f.at_s - job.arrival_s > dl {
                self.finish(job, TerminalState::TimedOut(TimeoutPhase::Prefill), now);
                return false;
            }
        }
        if let Some(dl) = self.cfg.slo.e2e_deadline_s {
            if now - job.arrival_s > dl {
                self.finish(job, TerminalState::TimedOut(TimeoutPhase::Prefill), now);
                return false;
            }
        }
        true
    }

    /// Post-iteration end-to-end SLO gate for decoding jobs. Returns
    /// `false` if the job was cancelled.
    fn passes_decode_slo(&mut self, a: &ActiveJob, now: f64) -> bool {
        if let Some(dl) = self.cfg.slo.e2e_deadline_s {
            if now - a.job.arrival_s > dl {
                self.finish(&a.job, TerminalState::TimedOut(TimeoutPhase::Decode), now);
                return false;
            }
        }
        true
    }

    fn into_report(
        self,
        policy: SchedulingPolicy,
        makespan_s: f64,
        max_stall: f64,
    ) -> ResilienceReport {
        ResilienceReport {
            policy,
            outcomes: self.outcomes,
            makespan_s,
            generated_tokens: self.generated,
            goodput_tokens: self.goodput_tokens,
            max_decode_stall_s: max_stall,
            retries: self.retries_total,
            preemptions: self.preemptions_total,
            faults_injected: self.injector.faults,
            slowdowns_injected: self.injector.slowdowns,
        }
    }
}

/// Simulates serving `requests` (sorted by arrival) on `backend` under the
/// full resilience configuration.
///
/// With [`ResilienceConfig::passthrough`] this is the run behind
/// [`crate::serving::simulate`] for the same policy.
///
/// # Errors
///
/// Returns [`crate::SimError::UnsupportedConfig`] for
/// [`SchedulingPolicy::Static`]: whole-batch scheduling has no iteration
/// boundaries to inject faults or preempt at.
///
/// # Panics
///
/// Panics on the same malformed inputs as [`crate::serving::simulate`]
/// (empty/unsorted requests, zero lengths, zero batch or chunk) and on
/// out-of-range fault probabilities.
pub fn simulate_resilient(
    backend: &CpuBackend,
    model: &ModelConfig,
    cfg: &ResilienceConfig,
    requests: &[ServingRequest],
) -> Result<ResilienceReport, crate::SimError> {
    check_inputs(&cfg.serving, requests);
    cfg.faults.validate();
    if cfg.serving.policy == SchedulingPolicy::Static {
        return Err(crate::SimError::UnsupportedConfig(
            "resilient serving needs iteration-level scheduling (static batches have no \
             iteration boundaries to inject faults or preempt at)"
                .to_owned(),
        ));
    }
    let kv_bytes_per_token = model.kv_bytes_per_token(backend.kv_dtype());
    Ok(run_continuous(
        backend,
        model,
        kv_bytes_per_token,
        cfg,
        requests,
        &mut NullSink,
    ))
}

/// Runs already-checked `requests` through the continuous-batching loop
/// `cfg.serving.policy` names, recording each completed job's span to
/// `sink`. `kv_bytes_per_token` sizes contexts against the fault model's
/// KV budget and is read only when one is set.
pub(crate) fn run_continuous<B: CostModel + ?Sized>(
    backend: &B,
    model: &ModelConfig,
    kv_bytes_per_token: u64,
    cfg: &ResilienceConfig,
    requests: &[ServingRequest],
    sink: &mut dyn SpanSink,
) -> ResilienceReport {
    let eng = Engine::new(backend, model, kv_bytes_per_token, *cfg, requests, sink);
    match cfg.serving.policy {
        SchedulingPolicy::ChunkedPrefill { chunk_tokens } => run_chunked(eng, chunk_tokens),
        // Static batching never gets here: `serving` runs it itself and
        // `simulate_resilient` rejects it.
        SchedulingPolicy::IterationLevel | SchedulingPolicy::Static => run_iteration_level(eng),
    }
}

/// Iteration-level scheduling: arrived jobs join the running batch
/// through one full prefill pass, which stalls every running decode for
/// its whole duration (the problem chunked prefill solves); then the
/// batch takes one decode step.
fn run_iteration_level<B: CostModel + ?Sized>(mut eng: Engine<'_, B>) -> ResilienceReport {
    let max_batch = eng.cfg.serving.max_batch as usize;
    let mut active: Vec<ActiveJob> = Vec::new();
    let mut now = 0.0f64;
    let mut max_stall = 0.0f64;

    while !eng.pending.is_empty() || !eng.queue.is_empty() || !active.is_empty() {
        eng.drain_arrivals(now);
        eng.expire_queued(now);

        // Admission: queued (arrived) jobs fill the batch; when the server
        // is completely idle, exactly one future arrival is pulled forward.
        let mut admitted: Vec<Job> = Vec::new();
        let mut admitted_tokens = 0u64;
        while active.len() + admitted.len() < max_batch {
            if let Some(job) = eng.queue.front() {
                // When the server is busy, only admit what fits the KV
                // budget; an empty server must admit (a lone oversized job
                // is failed terminally by the memory check).
                let must_admit = active.is_empty() && admitted.is_empty();
                if !must_admit && !eng.admission_fits(&active, admitted_tokens, job) {
                    break;
                }
                let Some(job) = eng.queue.pop_front() else {
                    break;
                };
                admitted_tokens += job.prefill_len();
                admitted.push(job);
            } else if active.is_empty() && admitted.is_empty() {
                match eng.pending.pop() {
                    Some(p) => admitted.push(p.job),
                    None => break,
                }
            } else {
                break;
            }
        }

        if !admitted.is_empty() {
            let start = now.max(admitted.iter().map(|j| j.arrival_s).fold(0.0, f64::max));
            let max_prompt = admitted.iter().map(Job::prefill_len).max().unwrap_or(1);
            let raw = eng
                .backend
                .prefill_time(eng.model, admitted.len() as u64, max_prompt)
                .as_f64();
            let (cost, fault) = eng.injector.perturb(raw, admitted.len());
            if !active.is_empty() {
                max_stall = max_stall.max(cost);
            }
            now = start + cost;
            if fault == FaultDraw::None {
                let first = FirstToken {
                    dispatch_s: start,
                    at_s: now,
                    batch: (active.len() + admitted.len()) as u64,
                };
                for job in admitted {
                    eng.join(job, first, &mut active);
                }
            } else {
                // A fault during the prefill pass loses the whole pass
                // (socket blip); running decodes only lose time.
                for job in admitted {
                    eng.fail_or_retry(job, now, FailureKind::BackendFault);
                }
            }
        }
        if active.is_empty() {
            continue;
        }

        // Memory pressure is checked where it bites: before the decode
        // step grows every context by one token.
        eng.enforce_memory(&mut active, 0, now);
        if active.is_empty() {
            continue;
        }

        // One decode iteration for the whole running batch.
        let b = active.len() as u64;
        let kv = active.iter().map(|a| a.context).max().unwrap_or(1);
        let raw = eng.step_s(b, kv);
        let (step, fault) = eng.injector.perturb(raw, active.len());
        max_stall = max_stall.max(step);
        now += step;

        let mut still_running = Vec::with_capacity(active.len());
        match fault {
            FaultDraw::WholeBatch => {
                for a in active.drain(..) {
                    eng.fail_or_retry(a.job, now, FailureKind::BackendFault);
                }
            }
            FaultDraw::Single(victim) => {
                for (i, mut a) in active.drain(..).enumerate() {
                    if i == victim {
                        eng.fail_or_retry(a.job, now, FailureKind::BackendFault);
                        continue;
                    }
                    if advance_decode(&mut eng, &mut a, now) {
                        still_running.push(a);
                    }
                }
            }
            FaultDraw::None => {
                for mut a in active.drain(..) {
                    if advance_decode(&mut eng, &mut a, now) {
                        still_running.push(a);
                    }
                }
            }
        }
        active = still_running;
    }
    eng.into_report(SchedulingPolicy::IterationLevel, now, max_stall)
}

/// One job's decode step: token progress, completion, and the end-to-end
/// deadline gate. A running job always has a token left to generate
/// ([`Engine::join`] retires the rest). Returns `true` if the job keeps
/// running.
fn advance_decode<B: CostModel + ?Sized>(
    eng: &mut Engine<'_, B>,
    a: &mut ActiveJob,
    now: f64,
) -> bool {
    a.remaining -= 1;
    a.context += 1;
    a.job.produced += 1;
    eng.generated += 1;
    if a.remaining == 0 {
        eng.complete(&a.job, now);
        return false;
    }
    eng.passes_decode_slo(a, now)
}

/// A job whose prompt is mid-chunked-prefill.
#[derive(Debug, Clone, Copy)]
struct Prefilling {
    job: Job,
    remaining_prompt: u64,
    /// When the first chunk began.
    dispatch_s: f64,
}

/// Chunked prefill: one job at a time is prefilled `chunk_tokens` per
/// iteration, each chunk fused with one decode step of the running batch,
/// which bounds the decode stall a long prompt causes.
fn run_chunked<B: CostModel + ?Sized>(
    mut eng: Engine<'_, B>,
    chunk_tokens: u64,
) -> ResilienceReport {
    let max_batch = eng.cfg.serving.max_batch as usize;
    let mut active: Vec<ActiveJob> = Vec::new();
    let mut prefilling: Option<Prefilling> = None;
    let mut now = 0.0f64;
    let mut max_stall = 0.0f64;

    while !eng.pending.is_empty()
        || !eng.queue.is_empty()
        || !active.is_empty()
        || prefilling.is_some()
    {
        eng.drain_arrivals(now);
        eng.expire_queued(now);

        // Admit one job into the prefilling slot when there is room,
        // pulling a future arrival forward only when decode is idle. The
        // KV-aware gate is the iteration-level loop's: a busy server keeps
        // an oversized head-of-queue waiting.
        if prefilling.is_none() && active.len() < max_batch {
            let next = match eng.queue.front() {
                Some(job) if active.is_empty() || eng.admission_fits(&active, 0, job) => {
                    eng.queue.pop_front()
                }
                None if active.is_empty() => eng.pending.pop().map(|p| p.job),
                _ => None,
            };
            if let Some(job) = next {
                now = now.max(job.arrival_s);
                prefilling = Some(Prefilling {
                    remaining_prompt: job.prefill_len(),
                    dispatch_s: now,
                    job,
                });
            }
        }
        if prefilling.is_none() && active.is_empty() {
            continue; // next arrival is handled at admission
        }

        // Memory check counts the partially-built prefill KV too.
        let prefill_tokens = prefilling
            .as_ref()
            .map_or(0, |p| p.job.prefill_len() - p.remaining_prompt);
        eng.enforce_memory(&mut active, prefill_tokens, now);
        if prefilling.is_none() && active.is_empty() {
            continue;
        }

        // One fused iteration: a prompt chunk (if any) plus one decode step
        // for the running batch. Decode tokens piggyback on the chunk's
        // GEMMs, paying a modest interference surcharge.
        let decode_b = active.len() as u64;
        let (raw, chunk) = match (&prefilling, decode_b) {
            (Some(p), b) => {
                let chunk = p.remaining_prompt.min(chunk_tokens);
                let chunk_cost = eng.backend.prefill_time(eng.model, 1, chunk).as_f64();
                let piggyback = if b > 0 {
                    0.25 * eng.step_s(b, 1 + p.job.prefill_len())
                } else {
                    0.0
                };
                (chunk_cost + piggyback, chunk)
            }
            (None, b) => {
                let kv = active.iter().map(|a| a.context).max().unwrap_or(1);
                (eng.step_s(b.max(1), kv), 0)
            }
        };
        let participants = active.len() + usize::from(prefilling.is_some());
        let (iter_cost, fault) = eng.injector.perturb(raw, participants);
        if !active.is_empty() {
            max_stall = max_stall.max(iter_cost);
        }
        now += iter_cost;

        // Resolve the fault before any progress is applied: victims lose
        // the iteration (a faulted chunk is not retained).
        let mut chunk_lost = false;
        match fault {
            FaultDraw::WholeBatch => {
                if let Some(p) = prefilling.take() {
                    eng.fail_or_retry(p.job, now, FailureKind::BackendFault);
                }
                for a in active.drain(..) {
                    eng.fail_or_retry(a.job, now, FailureKind::BackendFault);
                }
                continue;
            }
            FaultDraw::Single(victim) => {
                // Participant order: the prefilling slot first, then the
                // batch in admission order.
                let prefill_victim = if victim == 0 { prefilling.take() } else { None };
                if let Some(p) = prefill_victim {
                    eng.fail_or_retry(p.job, now, FailureKind::BackendFault);
                    chunk_lost = true;
                } else {
                    let idx = victim - usize::from(prefilling.is_some());
                    let a = active.remove(idx);
                    eng.fail_or_retry(a.job, now, FailureKind::BackendFault);
                }
            }
            FaultDraw::None => {}
        }

        // Chunk progress and prefill completion → join the decode batch.
        if !chunk_lost {
            if let Some(p) = prefilling.as_mut() {
                p.remaining_prompt -= chunk;
            }
            if let Some(p) = prefilling.filter(|p| p.remaining_prompt == 0) {
                let first = FirstToken {
                    dispatch_s: p.dispatch_s,
                    at_s: now,
                    batch: active.len() as u64 + 1,
                };
                eng.join(p.job, first, &mut active);
                prefilling = None;
            }
        }

        // A still-prefilling job past its deadline is hopeless: cancel
        // before it wastes more chunks.
        if let Some(p) = prefilling {
            if let Some(dl) = eng.queue_deadline(&p.job) {
                if now > dl {
                    eng.finish(&p.job, TerminalState::TimedOut(TimeoutPhase::Prefill), now);
                    prefilling = None;
                }
            }
        }

        // Decode progress for everyone active before this iteration.
        let mut still = Vec::with_capacity(active.len());
        for mut a in active.drain(..) {
            if a.joined_s >= now {
                // Joined at the end of this iteration; decodes next time.
                still.push(a);
                continue;
            }
            if advance_decode(&mut eng, &mut a, now) {
                still.push(a);
            }
        }
        active = still;
    }
    eng.into_report(
        SchedulingPolicy::ChunkedPrefill { chunk_tokens },
        now,
        max_stall,
    )
}
