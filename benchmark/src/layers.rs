//! Outside-in tracing wrappers around the program's public traits.
//!
//! Each wrapper forwards every trait method, defaulted ones included, to
//! the wrapped value and records the hot calls: a count, busy nanoseconds
//! and a log2 latency histogram. Calls made once per replay (`name`) are
//! forwarded untimed. A traced replay must produce the same output bytes
//! as an untraced one; the tests check it.

use crate::stats::{hist_percentile, log2_bucket, LOG2_BUCKETS};
use llmsim_cluster::{ClusterRequest, HealthSignal, ReplicaView, RouterPolicy};
use llmsim_core::{Backend, CostModel, InferenceReport, Request, SimError, SpanRecord, SpanSink};
use llmsim_hw::{Bytes, GbPerSec, Seconds};
use llmsim_model::ModelConfig;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Count, busy time and latency histogram of one kind of call.
///
/// Atomics with `Relaxed` ordering: the values are statistics that publish
/// no other data, and they are read after the replay that wrote them has
/// returned.
pub struct CallStats {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    hist: [AtomicU64; LOG2_BUCKETS],
}

impl Default for CallStats {
    fn default() -> Self {
        CallStats {
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl CallStats {
    /// Runs `f`, recording its duration.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Relaxed);
        self.busy_ns.fetch_add(ns, Relaxed);
        self.hist[log2_bucket(ns)].fetch_add(1, Relaxed);
        out
    }

    pub fn snapshot(&self) -> CallSnapshot {
        CallSnapshot {
            calls: self.calls.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
            hist: std::array::from_fn(|k| self.hist[k].load(Relaxed)),
        }
    }
}

/// A point-in-time copy of [`CallStats`].
#[derive(Debug, Clone, Copy)]
pub struct CallSnapshot {
    pub calls: u64,
    pub busy_ns: u64,
    pub hist: [u64; LOG2_BUCKETS],
}

impl CallSnapshot {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    /// Approximate per-call latency percentile, in nanoseconds.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        hist_percentile(&self.hist, p)
    }
}

/// A cost model whose pricing calls are timed: `prefill_time`,
/// `decode_step_time`, and everything else but `name` under `other`.
pub struct TracedCost<B> {
    inner: B,
    pub prefill: CallStats,
    pub decode: CallStats,
    pub other: CallStats,
}

impl<B> TracedCost<B> {
    pub fn new(inner: B) -> Self {
        TracedCost {
            inner,
            prefill: CallStats::default(),
            decode: CallStats::default(),
            other: CallStats::default(),
        }
    }
}

impl<B: Backend> Backend for TracedCost<B> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run(&self, model: &ModelConfig, request: &Request) -> Result<InferenceReport, SimError> {
        self.other.time(|| self.inner.run(model, request))
    }
}

impl<B: CostModel> CostModel for TracedCost<B> {
    fn prefill_time(&self, model: &ModelConfig, batch: u64, prompt_len: u64) -> Seconds {
        self.prefill
            .time(|| self.inner.prefill_time(model, batch, prompt_len))
    }

    fn decode_step_time(&self, model: &ModelConfig, batch: u64, kv_len: u64) -> Seconds {
        self.decode
            .time(|| self.inner.decode_step_time(model, batch, kv_len))
    }

    fn weight_bytes(&self, model: &ModelConfig) -> Bytes {
        self.other.time(|| self.inner.weight_bytes(model))
    }

    fn weight_load_bandwidth(&self) -> GbPerSec {
        self.other.time(|| self.inner.weight_load_bandwidth())
    }

    fn holds_resident(&self, model: &ModelConfig) -> bool {
        self.other.time(|| self.inner.holds_resident(model))
    }

    fn kv_capacity_bytes(&self, models: &[ModelConfig]) -> Bytes {
        self.other.time(|| self.inner.kv_capacity_bytes(models))
    }
}

/// A routing policy whose `route` and `observe` calls are timed.
pub struct TracedRouter<'a> {
    inner: &'a mut dyn RouterPolicy,
    pub stats: CallStats,
}

impl<'a> TracedRouter<'a> {
    pub fn new(inner: &'a mut dyn RouterPolicy) -> Self {
        TracedRouter {
            inner,
            stats: CallStats::default(),
        }
    }
}

impl RouterPolicy for TracedRouter<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn route(&mut self, request: &ClusterRequest, replicas: &[ReplicaView]) -> Option<usize> {
        let inner = &mut *self.inner;
        self.stats.time(|| inner.route(request, replicas))
    }

    fn observe(&mut self, signal: &HealthSignal) {
        let inner = &mut *self.inner;
        self.stats.time(|| inner.observe(signal));
    }
}

/// A span sink whose `record` and `finish` calls are timed. `enabled` and
/// `hint_len` are forwarded untimed: they do no sink work.
pub struct TracedSink<'a> {
    inner: &'a mut dyn SpanSink,
    pub records: CallStats,
    pub finishes: CallStats,
}

impl<'a> TracedSink<'a> {
    pub fn new(inner: &'a mut dyn SpanSink) -> Self {
        TracedSink {
            inner,
            records: CallStats::default(),
            finishes: CallStats::default(),
        }
    }
}

impl SpanSink for TracedSink<'_> {
    fn record(&mut self, span: SpanRecord) {
        let inner = &mut *self.inner;
        self.records.time(|| inner.record(span));
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn hint_len(&mut self, expected: usize) {
        self.inner.hint_len(expected);
    }

    fn finish(&mut self) {
        let inner = &mut *self.inner;
        self.finishes.time(|| inner.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim_cluster::{JoinShortestQueue, RoundRobin};
    use llmsim_core::{CpuBackend, NullSink, VecSink};
    use llmsim_model::families;

    #[test]
    fn call_stats_count_and_bucket() {
        let s = CallStats::default();
        assert_eq!(s.time(|| 41 + 1), 42);
        s.time(|| ());
        let snap = s.snapshot();
        assert_eq!(snap.calls, 2);
        assert_eq!(snap.hist.iter().sum::<u64>(), 2);
        assert!(snap.percentile_ns(50.0) <= snap.percentile_ns(100.0));
    }

    #[test]
    fn cost_wrapper_forwards_every_method() {
        let plain = CpuBackend::paper_spr();
        let traced = TracedCost::new(CpuBackend::paper_spr());
        let m = families::opt_13b();
        let models = [m.clone()];
        assert_eq!(traced.name(), plain.name());
        assert_eq!(
            traced.run(&m, &Request::new(1, 128, 4)),
            plain.run(&m, &Request::new(1, 128, 4))
        );
        assert_eq!(
            traced.prefill_time(&m, 2, 256),
            plain.prefill_time(&m, 2, 256)
        );
        assert_eq!(
            traced.decode_step_time(&m, 2, 300),
            plain.decode_step_time(&m, 2, 300)
        );
        assert_eq!(traced.weight_bytes(&m), plain.weight_bytes(&m));
        assert_eq!(
            traced.weight_load_bandwidth(),
            plain.weight_load_bandwidth()
        );
        assert_eq!(traced.holds_resident(&m), plain.holds_resident(&m));
        assert_eq!(
            traced.kv_capacity_bytes(&models),
            plain.kv_capacity_bytes(&models)
        );
        assert_eq!(traced.prefill.snapshot().calls, 1);
        assert_eq!(traced.decode.snapshot().calls, 1);
        assert_eq!(traced.other.snapshot().calls, 5);
    }

    #[test]
    fn router_and_sink_wrappers_forward_defaulted_methods() {
        let mut rr = RoundRobin::new();
        let mut r = TracedRouter::new(&mut rr);
        assert_eq!(r.name(), "round-robin");
        r.observe(&HealthSignal::Success {
            replica: 0,
            now_s: 0.0,
        });
        assert_eq!(r.route(&ClusterRequest::default(), &[]), None);
        assert_eq!(r.stats.snapshot().calls, 2);
        let mut jsq = JoinShortestQueue;
        assert_eq!(TracedRouter::new(&mut jsq).name(), "join-shortest-queue");

        let mut null = NullSink;
        assert!(!TracedSink::new(&mut null).enabled());
        let mut vec = VecSink::new();
        let mut s = TracedSink::new(&mut vec);
        assert!(s.enabled());
        s.hint_len(10);
        s.record(SpanRecord::rejected(0, 0, 1.0));
        s.finish();
        assert_eq!(s.records.snapshot().calls, 1);
        assert_eq!(s.finishes.snapshot().calls, 1);
        assert_eq!(vec.spans.len(), 1);
        assert!(vec.spans.capacity() >= 10, "hint_len reached the sink");
    }
}
