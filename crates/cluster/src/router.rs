//! Pluggable routing policies: where does the next request go?
//!
//! Routers see the fleet only through [`ReplicaView`] snapshots — queue
//! depths, outstanding tokens, start delays (warmup included), and
//! per-replica latency predictions computed from the backends' own
//! `prefill_time` / `decode_step_time` cost models. [`HeteroAware`]
//! turns the paper's Fig. 17/19 fits-vs-offloads crossover into a
//! routing rule: a large offloaded model predicts catastrophically slow
//! decode on a GPU replica and lands on a CPU replica instead, while
//! small resident models go the other way.

use crate::engine::ClusterRequest;
use llmsim_core::resilience::SimRng;

/// A router-visible snapshot of one replica at one routing instant.
///
/// Views carry only what the built-in policies read; a policy that needs
/// another signal adds the field together with its first reader.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaView {
    /// Fleet index (stable across the run).
    pub idx: usize,
    /// Simulation time the snapshot was taken at (the routing instant).
    pub now_s: f64,
    /// Requests waiting in the bounded queue.
    pub queue_len: usize,
    /// Requests in service.
    pub active: usize,
    /// In-flight capacity (waiting + serving); zero when the replica may
    /// not take this request (see [`ReplicaView::can_accept`]).
    pub queue_cap: usize,
    /// Prompt + generation tokens across waiting and in-service requests.
    pub outstanding_tokens: u64,
    /// Estimated delay until a newly-routed request starts service
    /// (including any remaining warmup).
    pub est_start_delay_s: f64,
    /// Predicted single-stream service time of *this* request on this
    /// replica (prefill + decode from the backend's cost model). An
    /// offloaded model predicts a slow decode here: the Fig. 17/19 signal.
    pub est_service_s: f64,
    /// Predicted prefill seconds this replica's resident prefix-cache
    /// blocks would save *this* request (0 without paged KV — so
    /// prefix-aware policies degrade to latency-aware ones).
    pub est_prefix_saved_s: f64,
}

impl ReplicaView {
    /// Whether the router may place this request here. The engine keeps
    /// a policy's choice only when this holds: standbys; failed,
    /// draining and partitioned replicas; a replica already holding
    /// this request's other attempt; downstream pipeline stages; and
    /// pools too small for the request all report zero `queue_cap`.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.queue_len + self.active < self.queue_cap
    }

    /// Waiting + in-service count (the JSQ gauge).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queue_len + self.active
    }

    /// Predicted arrival-to-completion latency on this replica.
    #[must_use]
    pub fn predicted_latency_s(&self) -> f64 {
        self.est_start_delay_s + self.est_service_s
    }
}

/// A replica health observation fed back to the router by the engine.
///
/// Signals arrive in event order (deterministically), so stateful
/// policies — [`HealthAware`] in particular — can track per-replica
/// health without ever touching the replicas directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HealthSignal {
    /// `replica` completed a request at `now_s`.
    Success {
        /// Fleet index.
        replica: usize,
        /// Completion instant.
        now_s: f64,
    },
    /// `replica` crashed at `now_s`, destroying its in-flight work.
    Failure {
        /// Fleet index.
        replica: usize,
        /// Crash instant.
        now_s: f64,
    },
}

/// A routing policy. `route` returns the chosen replica index, or `None`
/// to reject the request (every acceptable replica is at capacity).
///
/// Policies may keep internal state (e.g. the round-robin cursor); the
/// engine calls `route` once per arrival, again for each crash retry and
/// hedge, always in event order, so stateful policies stay deterministic.
pub trait RouterPolicy {
    /// Short policy name for reports.
    fn name(&self) -> String;

    /// Picks a replica for `request`, or `None` if none can accept.
    fn route(&mut self, request: &ClusterRequest, replicas: &[ReplicaView]) -> Option<usize>;

    /// Health feedback from the engine. The default implementation
    /// ignores it, so plain load-balancing policies need no changes.
    fn observe(&mut self, _signal: &HealthSignal) {}
}

/// Helper: the acceptable view minimizing `key`, ties to the lowest index.
fn argmin_by<F: Fn(&ReplicaView) -> f64>(replicas: &[ReplicaView], key: F) -> Option<usize> {
    replicas
        .iter()
        .filter(|v| v.can_accept())
        .min_by(|a, b| key(a).total_cmp(&key(b)).then(a.idx.cmp(&b.idx)))
        .map(|v| v.idx)
}

/// Cycles through replicas in fleet order, skipping those at capacity.
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Creates a round-robin router starting at replica 0.
    #[must_use]
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl RouterPolicy for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn route(&mut self, _request: &ClusterRequest, replicas: &[ReplicaView]) -> Option<usize> {
        let n = replicas.len();
        for off in 0..n {
            let view = &replicas[(self.cursor + off) % n];
            if view.can_accept() {
                self.cursor = (view.idx + 1) % n;
                return Some(view.idx);
            }
        }
        None
    }
}

/// Joins the replica with the fewest in-flight requests (waiting +
/// serving); ties go to the lowest index. Never routes to a replica at
/// capacity while another can accept.
#[derive(Debug, Default)]
pub struct JoinShortestQueue;

impl RouterPolicy for JoinShortestQueue {
    fn name(&self) -> String {
        "join-shortest-queue".into()
    }

    fn route(&mut self, _request: &ClusterRequest, replicas: &[ReplicaView]) -> Option<usize> {
        argmin_by(replicas, |v| v.in_flight() as f64)
    }
}

/// Joins the replica with the fewest outstanding tokens — a length-aware
/// refinement of JSQ (two queued chat turns ≠ two queued summarizations).
#[derive(Debug, Default)]
pub struct LeastOutstandingTokens;

impl RouterPolicy for LeastOutstandingTokens {
    fn name(&self) -> String {
        "least-outstanding-tokens".into()
    }

    fn route(&mut self, _request: &ClusterRequest, replicas: &[ReplicaView]) -> Option<usize> {
        argmin_by(replicas, |v| v.outstanding_tokens as f64)
    }
}

/// Cost-model-aware routing: picks the replica minimizing the *predicted*
/// arrival-to-completion latency (estimated start delay + this request's
/// predicted service time on that backend). Because the prediction comes
/// from the backends' own prefill/decode cost models, the Fig. 17/19
/// crossover falls out for free: an offloaded 66B request predicts a
/// minutes-long decode on a GPU replica and routes to a CPU replica, a
/// resident 13B request predicts the opposite.
#[derive(Debug, Default)]
pub struct HeteroAware;

impl RouterPolicy for HeteroAware {
    fn name(&self) -> String {
        "hetero-aware".into()
    }

    fn route(&mut self, _request: &ClusterRequest, replicas: &[ReplicaView]) -> Option<usize> {
        argmin_by(replicas, ReplicaView::predicted_latency_s)
    }
}

/// Prefix-cache-aware routing with emergent session affinity.
///
/// The choice minimizes `est_start_delay + est_service −
/// est_prefix_saved`: [`HeteroAware`]'s predicted latency with the
/// prefill seconds the replica's resident KV blocks would skip
/// subtracted. The savings signal comes from the engine probing each
/// replica's actual block pool for this request's prefix and session
/// chains, so session affinity is *emergent* rather than pinned: the
/// replica holding a session's chain predicts hits, scores lower, and
/// keeps the session — until queueing there costs more wall clock than
/// the saved prefill, at which point the session migrates, re-prefills
/// once on its new home, and is sticky there from the next turn on. A
/// hard affinity table would hotspot under load for exactly the turns
/// where migration is cheapest (short resident chains).
///
/// Without paged KV every savings signal is zero and the policy degrades
/// to latency-aware routing. No state, so no crash feedback needed: a
/// crashed replica's emptied pool stops predicting hits by itself.
#[derive(Debug, Default)]
pub struct PrefixAware;

impl PrefixAware {
    /// Creates a prefix-aware router.
    #[must_use]
    pub fn new() -> Self {
        PrefixAware
    }
}

impl RouterPolicy for PrefixAware {
    fn name(&self) -> String {
        "prefix-aware".into()
    }

    fn route(&mut self, _request: &ClusterRequest, replicas: &[ReplicaView]) -> Option<usize> {
        argmin_by(replicas, |v| v.predicted_latency_s() - v.est_prefix_saved_s)
    }
}

/// Circuit-breaking wrapper: any policy, made crash-aware.
///
/// `HealthAware` counts consecutive [`HealthSignal::Failure`]s per
/// replica. Once a replica crosses the failure threshold it is *ejected*
/// — hidden from the inner policy (presented with zero capacity) for an
/// ejection window with seeded jitter, so a herd of breakers does not
/// re-admit a flapping replica in lockstep. When the window expires the
/// breaker goes *half-open*: exactly one probe request is allowed
/// through; a success closes the breaker (failure count resets), another
/// failure re-ejects with a fresh jittered window.
///
/// The wrapper never changes which replicas *can* serve — it only changes
/// what the inner policy sees — so wrapping a policy preserves its
/// determinism: the jitter comes from a [`SimRng`] substream derived from
/// the wrapper's seed.
#[derive(Debug)]
pub struct HealthAware<P> {
    inner: P,
    /// Base ejection window.
    ejection_s: f64,
    /// Window jitter: actual window is `ejection_s × (1 + frac·U[0,1))`.
    jitter_frac: f64,
    rng: SimRng,
    fails: Vec<u32>,
    ejected_until_s: Vec<f64>,
    /// Half-open probe outstanding (allow no further traffic until it
    /// resolves).
    probing: Vec<bool>,
    /// The views the inner policy sees, rewritten in place on every route.
    views: Vec<ReplicaView>,
}

/// Consecutive failures that eject a replica.
const EJECT_AFTER_FAILURES: u32 = 2;

/// Substream tag for breaker jitter, distinct from the per-replica fault
/// streams (which use the replica index).
const HEALTH_JITTER_STREAM: u64 = 0x4845_414C_5448_4A54;

impl<P: RouterPolicy> HealthAware<P> {
    /// Wraps `inner` with default breaker tuning: eject after 2
    /// consecutive crashes for a 5 s (±50 % jitter) window.
    #[must_use]
    pub fn new(inner: P, seed: u64) -> Self {
        HealthAware {
            inner,
            ejection_s: 5.0,
            jitter_frac: 0.5,
            rng: SimRng::derive(seed, HEALTH_JITTER_STREAM),
            fails: Vec::new(),
            ejected_until_s: Vec::new(),
            probing: Vec::new(),
            views: Vec::new(),
        }
    }

    /// Overrides the base ejection window.
    #[must_use]
    pub fn with_ejection_s(mut self, ejection_s: f64) -> Self {
        self.ejection_s = ejection_s;
        self
    }

    fn ensure(&mut self, n: usize) {
        if self.fails.len() < n {
            self.fails.resize(n, 0);
            self.ejected_until_s.resize(n, f64::NEG_INFINITY);
            self.probing.resize(n, false);
        }
    }

    /// Whether replica `idx` must be hidden from the inner policy at
    /// `now_s`.
    fn masked(&self, idx: usize, now_s: f64) -> bool {
        if self.fails[idx] < EJECT_AFTER_FAILURES {
            return false;
        }
        // Ejected, or half-open with the single probe already in flight.
        now_s < self.ejected_until_s[idx] || self.probing[idx]
    }
}

impl<P: RouterPolicy> RouterPolicy for HealthAware<P> {
    fn name(&self) -> String {
        format!("health({})", self.inner.name())
    }

    fn route(&mut self, request: &ClusterRequest, replicas: &[ReplicaView]) -> Option<usize> {
        self.ensure(replicas.len());
        let now_s = replicas.first().map_or(0.0, |v| v.now_s);
        let mut views = std::mem::take(&mut self.views);
        views.clear();
        views.extend(replicas.iter().map(|v| {
            let mut v = *v;
            if v.idx < self.fails.len() && self.masked(v.idx, now_s) {
                v.queue_cap = 0;
            }
            v
        }));
        let choice = self.inner.route(request, &views);
        self.views = views;
        if let Some(i) = choice {
            if i < self.fails.len() && self.fails[i] >= EJECT_AFTER_FAILURES {
                // The breaker was half-open and this is its probe.
                self.probing[i] = true;
            }
        }
        choice
    }

    fn observe(&mut self, signal: &HealthSignal) {
        match *signal {
            HealthSignal::Success { replica, .. } => {
                self.ensure(replica + 1);
                self.fails[replica] = 0;
                self.probing[replica] = false;
            }
            HealthSignal::Failure { replica, now_s } => {
                self.ensure(replica + 1);
                self.probing[replica] = false;
                self.fails[replica] += 1;
                if self.fails[replica] >= EJECT_AFTER_FAILURES {
                    let window_s = self.ejection_s * (1.0 + self.jitter_frac * self.rng.next_f64());
                    self.ejected_until_s[replica] = now_s + window_s;
                }
            }
        }
        self.inner.observe(signal);
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact float assertions are deliberate: determinism is bit-level
mod tests {
    use super::*;

    fn view(idx: usize, in_flight: usize, cap: usize) -> ReplicaView {
        ReplicaView {
            idx,
            now_s: 0.0,
            queue_len: in_flight,
            active: 0,
            queue_cap: cap,
            outstanding_tokens: 100 * in_flight as u64,
            est_start_delay_s: in_flight as f64,
            est_service_s: 1.0,
            est_prefix_saved_s: 0.0,
        }
    }

    fn req() -> ClusterRequest {
        ClusterRequest {
            id: 0,
            arrival_s: 0.0,
            prompt_len: 64,
            gen_len: 16,
            ..ClusterRequest::default()
        }
    }

    #[test]
    fn round_robin_cycles_and_skips_full() {
        let mut rr = RoundRobin::new();
        let views = vec![view(0, 0, 4), view(1, 4, 4), view(2, 0, 4)];
        assert_eq!(rr.route(&req(), &views), Some(0));
        assert_eq!(rr.route(&req(), &views), Some(2));
        assert_eq!(rr.route(&req(), &views), Some(0));
    }

    #[test]
    fn jsq_picks_least_loaded_and_rejects_when_all_full() {
        let mut jsq = JoinShortestQueue;
        let views = vec![view(0, 3, 4), view(1, 1, 4), view(2, 2, 4)];
        assert_eq!(jsq.route(&req(), &views), Some(1));
        let full = vec![view(0, 4, 4), view(1, 4, 4)];
        assert_eq!(jsq.route(&req(), &full), None);
    }

    #[test]
    fn hetero_aware_minimizes_predicted_latency() {
        let mut h = HeteroAware;
        let mut slow = view(0, 0, 4);
        slow.est_service_s = 100.0; // offloaded decode
        let mut fast = view(1, 2, 4);
        fast.est_service_s = 3.0;
        assert_eq!(h.route(&req(), &[slow, fast]), Some(1));
    }

    #[test]
    fn prefix_aware_trades_predicted_savings_against_queueing() {
        let mut p = PrefixAware::new();
        // Equal load, but replica 1 holds this request's prefix: the
        // predicted savings win the tie (emergent affinity).
        let cold = view(0, 1, 4);
        let mut warm_cache = view(1, 1, 4);
        warm_cache.est_prefix_saved_s = 0.4;
        let mut r = req();
        r.session = 77;
        assert_eq!(p.route(&r, &[cold, warm_cache]), Some(1));
        // Savings hold the session home even when an idle replica offers
        // a shorter queue — as long as the saved prefill covers the wait.
        let mut idle = cold;
        idle.est_start_delay_s = 0.7;
        warm_cache.est_start_delay_s = 1.0;
        assert_eq!(p.route(&r, &[idle, warm_cache]), Some(1));
        // Once queueing at home exceeds the savings, the session migrates.
        warm_cache.est_start_delay_s = 1.2;
        assert_eq!(p.route(&r, &[idle, warm_cache]), Some(0));
        // A full home is simply not routable.
        let mut full_home = warm_cache;
        full_home.queue_len = 4;
        assert_eq!(p.route(&r, &[cold, full_home]), Some(0));
    }

    #[test]
    fn prefix_aware_without_kv_degrades_to_latency_aware() {
        // All prefix signals zero → same choice as HeteroAware.
        let mut p = PrefixAware::new();
        let mut h = HeteroAware;
        let mut slow = view(0, 0, 4);
        slow.est_service_s = 100.0;
        let fast = view(1, 2, 4);
        let views = [slow, fast];
        assert_eq!(p.route(&req(), &views), h.route(&req(), &views));
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let mut jsq = JoinShortestQueue;
        let views = vec![view(1, 2, 4), view(0, 2, 4)];
        assert_eq!(jsq.route(&req(), &views), Some(0));
    }

    fn views_at(now_s: f64) -> Vec<ReplicaView> {
        let mut views = vec![view(0, 0, 4), view(1, 0, 4)];
        for v in &mut views {
            v.now_s = now_s;
        }
        views
    }

    #[test]
    fn health_aware_ejects_after_consecutive_failures() {
        let mut h = HealthAware::new(JoinShortestQueue, 7);
        // Replica 0 wins ties while healthy.
        assert_eq!(h.route(&req(), &views_at(0.0)), Some(0));
        h.observe(&HealthSignal::Failure {
            replica: 0,
            now_s: 1.0,
        });
        // One failure is below the threshold of 2: still routable.
        assert_eq!(h.route(&req(), &views_at(1.0)), Some(0));
        h.observe(&HealthSignal::Failure {
            replica: 0,
            now_s: 2.0,
        });
        // Ejected: traffic shifts to replica 1 for the whole window.
        assert_eq!(h.route(&req(), &views_at(2.5)), Some(1));
        assert_eq!(h.route(&req(), &views_at(6.0)), Some(1));
    }

    #[test]
    fn health_aware_half_open_allows_one_probe_then_closes_on_success() {
        let mut h = HealthAware::new(JoinShortestQueue, 7).with_ejection_s(2.0);
        h.observe(&HealthSignal::Failure {
            replica: 0,
            now_s: 0.0,
        });
        h.observe(&HealthSignal::Failure {
            replica: 0,
            now_s: 0.0,
        });
        // Window is at most ejection_s × 1.5; past it the breaker is
        // half-open and admits exactly one probe.
        assert_eq!(h.route(&req(), &views_at(10.0)), Some(0), "probe");
        assert_eq!(
            h.route(&req(), &views_at(10.0)),
            Some(1),
            "no second request while the probe is outstanding"
        );
        h.observe(&HealthSignal::Success {
            replica: 0,
            now_s: 11.0,
        });
        assert_eq!(h.route(&req(), &views_at(11.0)), Some(0), "closed again");
    }

    #[test]
    fn health_aware_reejects_on_failed_probe_with_seeded_jitter() {
        let run = |seed: u64| {
            let mut h = HealthAware::new(JoinShortestQueue, seed).with_ejection_s(2.0);
            for _ in 0..2 {
                h.observe(&HealthSignal::Failure {
                    replica: 0,
                    now_s: 0.0,
                });
            }
            assert_eq!(h.route(&req(), &views_at(10.0)), Some(0), "probe");
            h.observe(&HealthSignal::Failure {
                replica: 0,
                now_s: 10.0,
            });
            // Re-ejected: the probe failed.
            assert_eq!(h.route(&req(), &views_at(10.5)), Some(1));
            h.ejected_until_s[0]
        };
        assert_eq!(run(7), run(7), "same seed, same jittered window");
        let w = run(7);
        assert!(
            (12.0..=13.0).contains(&w),
            "window in [base, base×1.5]: {w}"
        );
    }
}
