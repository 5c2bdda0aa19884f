//! The four workloads: their seeded inputs, one measured run of each, the
//! output checks, and the metrics a run reports.
//!
//! Every rep builds its inputs afresh (that is the set-up time) and starts
//! with the process-global `isa::timing` cache cleared, so each rep is as
//! cold as a fresh process and no rep or workload warms another.

use crate::catalog::{self, Metric};
use crate::layers::{CallSnapshot, TracedCost, TracedRouter, TracedSink};
use crate::stats::{median, quartiles, Fnv, SplitMix64};
use llmsim_bench::experiments::render_all_with_workers;
use llmsim_cluster::{
    merge_reports, shard_fleet, simulate_fleet, simulate_fleet_traced, ChaosConfig, ClusterConfig,
    ClusterRequest, FleetReport, FleetShard, HealthAware, JoinShortestQueue, KvConfig, PrefixAware,
    ReplicaConfig, RouterPolicy, SloTargets,
};
use llmsim_core::{
    Backend, CostModel, CpuBackend, InferenceReport, NullSink, Request, SimError, SpanSink,
    StreamSink,
};
use llmsim_hw::{presets, NumaConfig};
use llmsim_isa::timing::global_cache;
use llmsim_model::{families, DType, ModelConfig};
use llmsim_workload::sweep::{PAPER_BATCHES, PAPER_CORE_COUNTS, PAPER_SEQ_LENS};
use llmsim_workload::synthetic::{synthesize, synthesize_sessions, SessionSpec, SyntheticSpec};
use llmsim_workload::ChaosScenario;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The seed the committed digests were made with.
pub const DEFAULT_SEED: u64 = 0x0E16_13E5;
/// Mean calm-phase arrival rate of the `service_day` traces (bursts run at
/// 4x): eight SPR replicas absorb the calm load and shed part of each
/// burst, so both the dispatch and the admission paths run.
const RATE_PER_S: f64 = 1.5;
/// Session starts per second of the `chat_paged` trace.
const SESSION_RATE_PER_S: f64 = 0.35;
const SESSION_SEED_TAG: u64 = 0x5E55;
const CHAOS_SEED_TAG: u64 = 0xC4A0_5F1A;
const REPLICAS: usize = 8;
const CELL_REPLICAS: usize = 4;
const SHARD_REPS: usize = 3;
/// Size divisor of `--quick` runs.
const QUICK_DIVISOR: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    ServiceDay,
    ChatPaged,
    ChaosFlaky,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Replay(Replay),
    PaperSweep,
}

impl Workload {
    /// In the order of [`catalog::WORKLOADS`].
    pub const ALL: [Workload; 4] = [
        Workload::Replay(Replay::ServiceDay),
        Workload::Replay(Replay::ChatPaged),
        Workload::Replay(Replay::ChaosFlaky),
        Workload::PaperSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Replay(Replay::ServiceDay) => "service_day",
            Workload::Replay(Replay::ChatPaged) => "chat_paged",
            Workload::Replay(Replay::ChaosFlaky) => "chaos_flaky",
            Workload::PaperSweep => "paper_sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Wall-clock budget of the measured reps.
    pub seconds: f64,
    /// Report per-layer metrics (from traced reps) instead of end-to-end ones.
    pub trace: bool,
    /// Every input at 1/50 size, for smoke tests.
    pub quick: bool,
}

impl Options {
    fn size(&self, full: usize) -> usize {
        if self.quick {
            (full / QUICK_DIVISOR).max(1)
        } else {
            full
        }
    }

    /// Whether outputs are checked against the committed digests (default
    /// seed, full size) or only against each other.
    fn committed(&self) -> bool {
        self.seed == DEFAULT_SEED && !self.quick
    }

    /// Fewest untraced reps: enough for a determinism check, and for a
    /// median over two inputs in a full untraced run.
    fn min_reps(&self) -> usize {
        if self.quick || self.trace {
            2
        } else {
            4
        }
    }

    /// Budget of each phase: traced runs split theirs between untraced and
    /// traced reps.
    fn phase_budget_s(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// The result of one run of one workload.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric, or with `trace` every per-layer one, in
    /// catalogue order.
    pub metrics: Vec<(&'static Metric, f64)>,
    pub spans: Vec<SpanRow>,
}

/// One span of the benchmark's own trace. Interval spans have `calls` 1;
/// per-call layers are aggregated per rep into one row whose interval is
/// its parent's and whose `busy_ns` is the summed call time.
#[derive(Debug, Clone)]
pub struct SpanRow {
    pub name: &'static str,
    pub rep: usize,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

struct Spans {
    origin: Instant,
    rows: Vec<SpanRow>,
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: Instant::now(),
            rows: Vec::new(),
        }
    }

    /// Records `[start, now)` and returns its length in seconds.
    fn close(
        &mut self,
        name: &'static str,
        rep: usize,
        parent: &'static str,
        start: Instant,
    ) -> f64 {
        let end = Instant::now();
        self.rows.push(SpanRow {
            name,
            rep,
            parent,
            start_ns: ns_between(self.origin, start),
            end_ns: ns_between(self.origin, end),
            busy_ns: ns_between(start, end),
            calls: 1,
        });
        (end - start).as_secs_f64()
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        rep: usize,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        (out, self.close(name, rep, parent, start))
    }

    /// Records a per-call layer as one row inside its parent span of `rep`.
    fn aggregate(
        &mut self,
        name: &'static str,
        rep: usize,
        parent: &'static str,
        calls: &CallSnapshot,
    ) {
        let Some(p) = self
            .rows
            .iter()
            .rev()
            .find(|r| r.rep == rep && r.name == parent)
        else {
            return;
        };
        let row = SpanRow {
            name,
            rep,
            parent,
            start_ns: p.start_ns,
            end_ns: p.end_ns,
            busy_ns: calls.busy_ns,
            calls: calls.calls,
        };
        self.rows.push(row);
    }
}

/// Counts operations and collects metric samples over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tally {
    /// Counts `results` as `ops_each` operations apiece and returns the
    /// successful ones.
    fn ops<T>(&mut self, what: &str, ops_each: u64, results: Vec<Result<T, String>>) -> Vec<T> {
        let mut ok = Vec::with_capacity(results.len());
        for (i, r) in results.into_iter().enumerate() {
            self.attempted += ops_each;
            match r {
                Ok(v) => ok.push(v),
                Err(e) => {
                    eprintln!("benchmark: {what} rep {i} failed: {e}");
                    self.failed += ops_each;
                }
            }
        }
        ok
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn put_all(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, value) in values {
            self.put(name, value);
        }
    }

    /// The median of each metric of `table` (0 for one never sampled).
    fn outcome(self, table: &'static [Metric], spans: Spans) -> Outcome {
        for name in self.samples.keys() {
            assert!(
                table.iter().any(|m| m.name == *name),
                "metric {name} is not in the catalogue table being reported"
            );
        }
        let metrics = table
            .iter()
            .map(|m| (m, self.samples.get(m.name).map_or(0.0, |v| median(v))))
            .collect();
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            spans: spans.rows,
        }
    }
}

/// Runs `rep(i)` for `i = 0, 1, ...` at least `min_reps` times, then while
/// another rep as long as the last one still fits in `budget_s`, stopping
/// only after a multiple of `step` reps. Clears the timing cache before
/// each rep; a panic fails only its rep.
fn repeat<T>(
    budget_s: f64,
    min_reps: usize,
    step: usize,
    mut rep: impl FnMut(usize) -> Result<T, String>,
) -> Vec<Result<T, String>> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last_s = 0.0;
    while out.len() < min_reps
        || out.len() % step != 0
        || start.elapsed().as_secs_f64() + last_s <= budget_s
    {
        let t0 = Instant::now();
        global_cache().clear();
        let i = out.len();
        let result = catch_unwind(AssertUnwindSafe(|| rep(i))).unwrap_or_else(|payload| {
            Err(payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_owned()))
        });
        out.push(result);
        last_s = t0.elapsed().as_secs_f64();
    }
    out
}

/// The seed of a run's input `k`: the run seed itself for `k = 0`, then
/// successive outputs of a SplitMix64 stream seeded with it.
fn input_seed(seed: u64, k: usize) -> u64 {
    let mut stream = SplitMix64(seed);
    (0..k).fold(seed, |_, _| stream.next_u64())
}

fn committed_digest(key: &str) -> Option<u64> {
    include_str!("../digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut fields = l.split_whitespace();
            if fields.next() != Some(key) {
                return None;
            }
            u64::from_str_radix(fields.next()?, 16).ok()
        })
}

/// Checks the `(input, digest)` of every successful rep. Reps of one input
/// must agree with each other and, when `committed`, with the committed
/// digest `<key>.<input>` where there is one; input 0 must have one.
/// Returns the number of reps that fail.
fn check_digests(key: &str, digests: &[(usize, u64)], committed: bool) -> u64 {
    let mut by_input: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for &(input, digest) in digests {
        by_input.entry(input).or_default().push(digest);
    }
    let mut bad = 0;
    for (input, group) in by_input {
        let name = format!("{key}.{input}");
        eprintln!("digest {name} {:016x}", group[0]);
        let expected = match (committed, committed_digest(&name)) {
            (true, Some(d)) => d,
            (true, None) if input == 0 => {
                eprintln!("benchmark: no committed digest {name} (see README: re-baselining)");
                bad += group.len() as u64;
                continue;
            }
            _ => group[0],
        };
        for (i, &d) in group.iter().enumerate() {
            if d != expected {
                eprintln!("benchmark: {name} rep {i}: digest {d:016x}, expected {expected:016x}");
                bad += 1;
            }
        }
    }
    bad
}

/// Prints the spread of a per-rep series to stderr.
fn describe(workload: &str, name: &str, values: &[f64]) {
    let (q1, q3) = quartiles(values);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    eprintln!(
        "{workload} {name}: n={} min={min:.6} q1={q1:.6} median={:.6} q3={q3:.6} max={max:.6}",
        values.len(),
        median(values)
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `workload` once under `opts`.
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    eprintln!(
        "benchmark: {} seed={:#x} seconds={} trace={} quick={} host_threads={}",
        workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.quick,
        host_threads()
    );
    let mut spans = Spans::new();
    let tally = match workload {
        Workload::Replay(kind) => run_replay(kind, opts, &mut spans),
        Workload::PaperSweep => run_sweep(opts, &mut spans),
    };
    let table = if opts.trace {
        &catalog::PER_LAYER[..]
    } else {
        &catalog::END_TO_END[..]
    };
    tally.outcome(table, spans)
}

/// The process's peak RSS when `rep` is the first rep, which runs on a
/// fresh heap; later reps add only allocator fragmentation, which varies
/// from run to run.
fn first_rep_rss_mb(rep: usize) -> Result<Option<f64>, String> {
    if rep == 0 {
        peak_rss_mb().map(Some)
    } else {
        Ok(None)
    }
}

// ---------------------------------------------------------------- replays

fn service_day_trace(seed: u64, n: usize) -> Vec<ClusterRequest> {
    synthesize(&SyntheticSpec::service_day(seed, n, RATE_PER_S))
        .into_iter()
        .enumerate()
        .map(|(id, r)| ClusterRequest {
            id,
            arrival_s: r.arrival_s,
            prompt_len: r.prompt_len,
            gen_len: r.gen_len,
            ..ClusterRequest::default()
        })
        .collect()
}

fn chat_trace(seed: u64, sessions: usize) -> Vec<ClusterRequest> {
    synthesize_sessions(&SessionSpec::chat_day(seed, sessions, SESSION_RATE_PER_S))
        .into_iter()
        .enumerate()
        .map(|(id, r)| ClusterRequest {
            id,
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

/// `replicas` warm SPR replicas serving OPT-13B, all sharing `backend`
/// (one `Arc`, so one prediction-cache group).
fn spr_fleet(backend: &Arc<dyn CostModel + Send + Sync>, replicas: usize) -> ClusterConfig {
    let replicas = (0..replicas)
        .map(|_| ReplicaConfig::warm(backend.clone()))
        .collect();
    ClusterConfig::new(replicas, vec![families::opt_13b()])
}

impl Replay {
    fn name(self) -> &'static str {
        Workload::Replay(self).name()
    }

    fn trace(self, seed: u64, opts: &Options) -> Vec<ClusterRequest> {
        match self {
            Replay::ServiceDay => service_day_trace(seed, opts.size(200_000)),
            Replay::ChatPaged => chat_trace(seed ^ SESSION_SEED_TAG, opts.size(20_000)),
            Replay::ChaosFlaky => service_day_trace(seed ^ CHAOS_SEED_TAG, opts.size(100_000)),
        }
    }

    fn fleet(
        self,
        backend: &Arc<dyn CostModel + Send + Sync>,
        requests: &[ClusterRequest],
        seed: u64,
    ) -> (ClusterConfig, Box<dyn RouterPolicy>) {
        let fleet = spr_fleet(backend, REPLICAS);
        match self {
            Replay::ServiceDay => (fleet, Box::new(JoinShortestQueue)),
            Replay::ChatPaged => (fleet.with_kv(KvConfig::new()), Box::new(PrefixAware::new())),
            Replay::ChaosFlaky => {
                let scenario = ChaosScenario {
                    mtbf_s: 600.0,
                    fault_horizon_s: requests.iter().map(|r| r.arrival_s).fold(0.0, f64::max),
                    retry_budget: None,
                    ..ChaosScenario::flaky_network()
                };
                let slo = SloTargets {
                    ttft_s: scenario.ttft_slo_s,
                    e2e_s: scenario.e2e_slo_s,
                };
                let fleet = fleet
                    .with_slo(slo)
                    .with_chaos(ChaosConfig::from_scenario(seed, &scenario));
                (fleet, Box::new(HealthAware::new(JoinShortestQueue, seed)))
            }
        }
    }
}

struct ReplayRep {
    input: usize,
    requests: usize,
    setup_s: f64,
    replay_s: f64,
    digest: u64,
    rss_mb: Option<f64>,
    /// Per-layer values of a traced rep (empty when untraced).
    layers: Vec<(&'static str, f64)>,
}

/// Digest of a fleet report: its rendering plus the `Debug` form of every
/// outcome and replica summary.
fn report_digest(report: &FleetReport, rendered: &str) -> Fnv {
    let mut fnv = Fnv::new();
    fnv.update(rendered.as_bytes());
    write!(fnv, "{:?}{:?}", report.outcomes, report.replicas).expect("hashing cannot fail");
    fnv
}

/// Conservation: every request reaches exactly one terminal state.
fn check_conservation(report: &FleetReport, requests: usize) -> Result<(), String> {
    let terminal = report.completed() + report.rejected() + report.failed();
    if terminal == requests && report.outcomes.len() == requests {
        Ok(())
    } else {
        Err(format!(
            "conservation broken: {terminal} terminal outcomes, {} records, {requests} requests",
            report.outcomes.len()
        ))
    }
}

/// What the tracing wrappers saw during one replay.
struct LayerCalls {
    prefill: CallSnapshot,
    decode: CallSnapshot,
    other: CallSnapshot,
    router: CallSnapshot,
    records: CallSnapshot,
    finishes: CallSnapshot,
}

/// Everything one traced replay measured, outside the wrappers.
struct ReplayMeasures<'a> {
    requests: &'a [ClusterRequest],
    report: &'a FleetReport,
    synth_s: f64,
    replay_s: f64,
    render_s: f64,
    /// Timing-cache lookups, misses and entries after the replay.
    timing: (f64, f64, f64),
    span_bytes: f64,
}

/// The per-layer values of one traced replay. `engine.self_s` is the replay
/// time the wrapped layers do not account for.
fn replay_layers(m: &ReplayMeasures, c: &LayerCalls) -> Vec<(&'static str, f64)> {
    let n = m.requests.len() as f64;
    let pricing_s = c.prefill.busy_s() + c.decode.busy_s() + c.other.busy_s();
    let sink_s = c.records.busy_s() + c.finishes.busy_s();
    let self_s = m.replay_s - pricing_s - c.router.busy_s() - sink_s;
    let events = m.report.events_processed as f64;
    let (lookups, misses, entries) = m.timing;
    let priced_ops = (c.prefill.calls + c.decode.calls) as f64;
    let prompt_tokens: u64 = m.requests.iter().map(|r| r.prompt_len).sum();
    let kv_peak = m
        .report
        .replicas
        .iter()
        .map(|r| r.kv_peak_occupancy)
        .fold(0.0, f64::max);
    vec![
        ("workload.synth_s", m.synth_s),
        ("workload.requests", n),
        ("engine.replay_s", m.replay_s),
        ("engine.events", events),
        ("engine.events_per_request", ratio(events, n)),
        ("engine.self_s", self_s),
        ("engine.self_ns_per_event", ratio(self_s * 1e9, events)),
        ("engine.peak_in_flight", m.report.peak_in_flight as f64),
        ("predict.prefill_calls", c.prefill.calls as f64),
        ("predict.decode_calls", c.decode.calls as f64),
        (
            "predict.decode_calls_per_request",
            ratio(c.decode.calls as f64, n),
        ),
        ("pricing.decode_s", c.decode.busy_s()),
        ("pricing.decode_ns_p50", c.decode.percentile_ns(50.0)),
        ("pricing.decode_ns_p99", c.decode.percentile_ns(99.0)),
        ("pricing.prefill_s", c.prefill.busy_s()),
        ("pricing.other_s", c.other.busy_s()),
        ("pricing.share", ratio(pricing_s, m.replay_s)),
        ("timing_cache.lookups", lookups),
        ("timing_cache.misses", misses),
        ("timing_cache.entries", entries),
        (
            "timing_cache.lookups_per_priced_op",
            ratio(lookups, priced_ops),
        ),
        ("router.calls", c.router.calls as f64),
        ("router.calls_per_request", ratio(c.router.calls as f64, n)),
        ("router.s", c.router.busy_s()),
        (
            "router.ns_per_call",
            ratio(c.router.busy_ns as f64, c.router.calls as f64),
        ),
        ("faults.crashes", m.report.crashes as f64),
        ("faults.retries", m.report.retries as f64),
        ("faults.hedges", m.report.hedges as f64),
        ("faults.wasted_tokens", m.report.wasted_tokens as f64),
        ("kv.prefix_hit_tokens", m.report.prefix_hit_tokens as f64),
        (
            "kv.prefix_hit_frac",
            ratio(m.report.prefix_hit_tokens as f64, prompt_tokens as f64),
        ),
        ("kv.preemptions", m.report.preemptions as f64),
        ("kv.peak_occupancy", kv_peak),
        ("spans.records", c.records.calls as f64),
        ("spans.bytes", m.span_bytes),
        ("spans.s", sink_s),
        ("spans.bytes_per_s", ratio(m.span_bytes, sink_s)),
        ("report.render_s", m.render_s),
    ]
}

/// One rep: builds input `input` of the run and its fleet (the set-up),
/// replays it, and checks and digests the output.
fn replay_rep(
    kind: Replay,
    opts: &Options,
    input: usize,
    rep: usize,
    traced: bool,
    spans: &mut Spans,
) -> Result<ReplayRep, String> {
    let seed = input_seed(opts.seed, input);
    let rep_start = Instant::now();
    let (requests, synth_s) = spans.time("synth", rep, "setup", || kind.trace(seed, opts));
    let cost = traced.then(|| Arc::new(TracedCost::new(CpuBackend::paper_spr())));
    let backend: Arc<dyn CostModel + Send + Sync> = match &cost {
        Some(c) => c.clone(),
        None => Arc::new(CpuBackend::paper_spr()),
    };
    let (config, mut router) = kind.fleet(&backend, &requests, seed);
    let mut stream = (kind == Replay::ChatPaged).then(|| StreamSink::jsonl(Fnv::new()));
    let setup_s = spans.close("setup", rep, "rep", rep_start);

    let mut null = NullSink;
    let sink: &mut dyn SpanSink = match stream.as_mut() {
        Some(s) => s,
        None => &mut null,
    };
    let replay_start = Instant::now();
    let (report, calls) = match &cost {
        Some(cost) => {
            let mut r = TracedRouter::new(router.as_mut());
            let mut s = TracedSink::new(sink);
            let report = simulate_fleet_traced(&config, &mut r, &requests, &mut s);
            let calls = LayerCalls {
                prefill: cost.prefill.snapshot(),
                decode: cost.decode.snapshot(),
                other: cost.other.snapshot(),
                router: r.stats.snapshot(),
                records: s.records.snapshot(),
                finishes: s.finishes.snapshot(),
            };
            (report, Some(calls))
        }
        None => (
            simulate_fleet_traced(&config, router.as_mut(), &requests, sink),
            None,
        ),
    };
    let replay_s = spans.close("replay", rep, "rep", replay_start);
    let cache = global_cache();
    let timing = (
        (cache.hits() + cache.misses()) as f64,
        cache.misses() as f64,
        cache.len() as f64,
    );

    let (rendered, render_s) = spans.time("render", rep, "rep", || report.render());
    check_conservation(&report, requests.len())?;
    let mut fnv = report_digest(&report, &rendered);
    let mut span_bytes = 0.0;
    if let Some(stream) = stream {
        let spans_fnv = stream
            .finish_into()
            .map_err(|e| format!("span stream failed: {e}"))?;
        fnv.update(&spans_fnv.digest().to_le_bytes());
        fnv.update(&spans_fnv.bytes().to_le_bytes());
        span_bytes = spans_fnv.bytes() as f64;
    }

    let layers = match calls {
        Some(calls) => {
            for (name, snap) in [
                ("pricing.prefill", &calls.prefill),
                ("pricing.decode", &calls.decode),
                ("pricing.other", &calls.other),
                ("router", &calls.router),
                ("spans.record", &calls.records),
            ] {
                spans.aggregate(name, rep, "replay", snap);
            }
            let measures = ReplayMeasures {
                requests: &requests,
                report: &report,
                synth_s,
                replay_s,
                render_s,
                timing,
                span_bytes,
            };
            replay_layers(&measures, &calls)
        }
        None => Vec::new(),
    };
    spans.close("rep", rep, "-", rep_start);
    Ok(ReplayRep {
        input,
        requests: requests.len(),
        setup_s,
        replay_s,
        digest: fnv.digest(),
        rss_mb: first_rep_rss_mb(rep)?,
        layers,
    })
}

/// Replays untraced, in pairs of reps on one input (input `k` is reps `2k`
/// and `2k + 1`): the pair checks determinism, and a run's medians average
/// over several inputs, because host time differs from one seed's trace to
/// another's. With `trace`, traced reps then replay input 0, the run seed's
/// own trace, so per-layer counts are exact and comparable to the
/// untraced reps of that input.
fn run_replay(kind: Replay, opts: &Options, spans: &mut Spans) -> Tally {
    let mut tally = Tally::default();
    let budget_s = opts.phase_budget_s();
    let plain = repeat(budget_s, opts.min_reps(), 2, |i| {
        replay_rep(kind, opts, i / 2, i, false, spans)
    });
    let plain = tally.ops(kind.name(), 1, plain);
    let traced = if opts.trace {
        let first = tally.attempted as usize;
        let traced = repeat(budget_s, 2, 1, |i| {
            replay_rep(kind, opts, 0, first + i, true, spans)
        });
        tally.ops(kind.name(), 1, traced)
    } else {
        Vec::new()
    };
    let digests: Vec<(usize, u64)> = plain
        .iter()
        .chain(&traced)
        .map(|r| (r.input, r.digest))
        .collect();
    tally.failed += check_digests(kind.name(), &digests, opts.committed());

    let replay_s: Vec<f64> = plain.iter().map(|r| r.replay_s).collect();
    let setup_s: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    describe(kind.name(), "replay_s", &replay_s);
    describe(kind.name(), "setup_s", &setup_s);
    if !opts.trace {
        tally.put_all(
            plain
                .iter()
                .map(|r| ("req_per_s", r.requests as f64 / r.replay_s)),
        );
        tally.put_all(replay_s.iter().map(|&s| ("rep_s", s)));
        tally.put_all(setup_s.iter().map(|&s| ("setup_s", s)));
        tally.put_all(
            plain
                .first()
                .and_then(|r| r.rss_mb)
                .map(|mb| ("peak_rss_mb", mb)),
        );
        return tally;
    }

    let traced_s: Vec<f64> = traced.iter().map(|r| r.replay_s).collect();
    let input0_s: Vec<f64> = plain
        .iter()
        .filter(|r| r.input == 0)
        .map(|r| r.replay_s)
        .collect();
    describe(kind.name(), "traced replay_s", &traced_s);
    for rep in &traced {
        tally.put_all(rep.layers.iter().copied());
    }
    if !input0_s.is_empty() && !traced_s.is_empty() {
        tally.put(
            "trace.overhead_frac",
            median(&traced_s) / median(&input0_s) - 1.0,
        );
    }
    if kind == Replay::ServiceDay {
        let first = tally.attempted as usize;
        shard_diagnostic(opts, first, &mut tally, spans);
    }
    tally
}

// ------------------------------------------------------ shard diagnostic

struct ShardRep {
    serial_s: f64,
    parallel_s: f64,
    merge_s: Vec<f64>,
    digest: u64,
}

/// Replays every cell, on `threads` scoped threads (cell `i` on thread
/// `i % threads`), and returns the reports in cell order.
fn replay_cells(cells: &[FleetShard], threads: usize) -> Vec<FleetReport> {
    let replay =
        |cell: &FleetShard| simulate_fleet(&cell.config, &mut JoinShortestQueue, &cell.requests);
    if threads <= 1 {
        return cells.iter().map(replay).collect();
    }
    let mut reports: Vec<Option<FleetReport>> = vec![None; cells.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    cells
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % threads == t)
                        .map(|(i, cell)| (i, replay(cell)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, report) in done {
                reports[i] = Some(report);
            }
        }
    });
    reports
        .into_iter()
        .map(|r| r.expect("every cell was replayed"))
        .collect()
}

/// Replays the same cells serially and on every host thread, merging each
/// time, and checks the two merged reports are identical.
fn shard_rep(
    cells: &[FleetShard],
    threads: usize,
    rep: usize,
    spans: &mut Spans,
) -> Result<ShardRep, String> {
    let rep_start = Instant::now();
    let mut times = [0.0; 2];
    let mut merge_s = Vec::new();
    let mut digests = Vec::new();
    for (slot, (t, name)) in [(1, "shard.serial"), (threads, "shard.parallel")]
        .into_iter()
        .enumerate()
    {
        global_cache().clear();
        let (reports, secs) = spans.time(name, rep, "rep", || replay_cells(cells, t));
        times[slot] = secs;
        let (merged, secs) = spans.time("merge", rep, name, || merge_reports(cells, reports));
        merge_s.push(secs);
        check_conservation(&merged, cells.iter().map(|c| c.requests.len()).sum())?;
        digests.push(report_digest(&merged, &merged.render()).digest());
    }
    if digests[0] != digests[1] {
        return Err(format!("merged report differs at 1 and {threads} threads"));
    }
    spans.close("rep", rep, "-", rep_start);
    Ok(ShardRep {
        serial_s: times[0],
        parallel_s: times[1],
        merge_s,
        digest: digests[0],
    })
}

/// Deals a `service_day` trace into one 4-replica cell per host thread and
/// replays the same cells at 1 thread and at all host threads.
fn shard_diagnostic(opts: &Options, first: usize, tally: &mut Tally, spans: &mut Spans) {
    let threads = host_threads();
    let backend: Arc<dyn CostModel + Send + Sync> = Arc::new(CpuBackend::paper_spr());
    let requests = service_day_trace(opts.seed, opts.size(100_000));
    let cells = shard_fleet(&spr_fleet(&backend, CELL_REPLICAS), &requests, threads);
    let reps = repeat(0.0, SHARD_REPS, 1, |i| {
        shard_rep(&cells, threads, first + i, spans)
    });
    let reps = tally.ops("shard", 1, reps);
    let digests: Vec<(usize, u64)> = reps.iter().map(|r| (0, r.digest)).collect();
    tally.failed += check_digests("shard", &digests, false);

    let serial: Vec<f64> = reps.iter().map(|r| r.serial_s).collect();
    let parallel: Vec<f64> = reps.iter().map(|r| r.parallel_s).collect();
    describe("service_day", "shard serial_s", &serial);
    describe("service_day", "shard parallel_s", &parallel);
    let min = parallel.iter().copied().fold(f64::INFINITY, f64::min);
    let max = parallel.iter().copied().fold(0.0, f64::max);
    tally.put("shard.threads", threads as f64);
    tally.put("shard.cells", cells.len() as f64);
    tally.put_all(serial.iter().map(|&s| ("shard.serial_s", s)));
    tally.put_all(parallel.iter().map(|&s| ("shard.parallel_s", s)));
    if !reps.is_empty() {
        tally.put("shard.parallel_min_s", min);
        tally.put("shard.parallel_max_s", max);
        tally.put(
            "shard.parallel_speedup",
            median(&serial) / median(&parallel),
        );
    }
    tally.put_all(
        reps.iter()
            .flat_map(|r| r.merge_s.iter().map(|&s| ("shard.merge_s", s))),
    );
}

// ------------------------------------------------------------ paper sweep

struct GridPoint {
    backend: usize,
    model: usize,
    request: Request,
}

/// The single-request grid: {SPR, ICL} x NUMA modes x core counts x paper
/// models x batches x sequence lengths, generating 32 tokens, with the
/// backends a CPU cannot build left out. Run in a seed-permuted order.
struct Grid {
    backends: Vec<CpuBackend>,
    models: Vec<ModelConfig>,
    points: Vec<GridPoint>,
    order: Vec<usize>,
}

fn grid(opts: &Options) -> Result<Grid, SimError> {
    let mut backends = Vec::new();
    for cpu in [presets::spr_max_9468(), presets::icl_8352y()] {
        for numa in NumaConfig::PAPER_SWEEP {
            for cores in PAPER_CORE_COUNTS {
                if let Ok(b) = CpuBackend::new(cpu.clone(), numa, cores, DType::Bf16) {
                    backends.push(b);
                }
            }
        }
    }
    let models = families::all_paper_models();
    let mut points = Vec::new();
    for backend in 0..backends.len() {
        for model in 0..models.len() {
            for batch in PAPER_BATCHES {
                for prompt in PAPER_SEQ_LENS {
                    points.push(GridPoint {
                        backend,
                        model,
                        request: Request::try_new(batch, prompt, 32)?,
                    });
                }
            }
        }
    }
    if opts.quick {
        points = points.into_iter().step_by(QUICK_DIVISOR).collect();
    }
    let mut order: Vec<usize> = (0..points.len()).collect();
    SplitMix64(opts.seed).shuffle(&mut order);
    Ok(Grid {
        backends,
        models,
        points,
        order,
    })
}

struct SweepRep {
    calls: usize,
    setup_s: f64,
    grid_s: f64,
    figures_s: f64,
    grid_digest: u64,
    figures_digest: u64,
    rss_mb: Option<f64>,
    layers: Vec<(&'static str, f64)>,
}

/// One pass: builds the grid, runs every point (timing each call when
/// `call_ns` is given), then renders every paper figure serially.
fn sweep_rep(
    opts: &Options,
    rep: usize,
    call_ns: Option<&mut Vec<u64>>,
    spans: &mut Spans,
) -> Result<SweepRep, String> {
    let rep_start = Instant::now();
    let g = grid(opts).map_err(|e| format!("grid: {e}"))?;
    let setup_s = spans.close("setup", rep, "rep", rep_start);

    let mut results: Vec<Option<Result<InferenceReport, SimError>>> = vec![None; g.points.len()];
    let run = |i: usize| {
        let p = &g.points[i];
        g.backends[p.backend].run(&g.models[p.model], &p.request)
    };
    let grid_start = Instant::now();
    let traced = call_ns.is_some();
    let mut call_busy_ns = 0u64;
    match call_ns {
        Some(samples) => {
            for &i in &g.order {
                let t0 = Instant::now();
                results[i] = Some(run(i));
                let ns = ns_between(t0, Instant::now());
                call_busy_ns += ns;
                samples.push(ns);
            }
        }
        None => {
            for &i in &g.order {
                results[i] = Some(run(i));
            }
        }
    }
    let grid_s = spans.close("grid", rep, "rep", grid_start);
    let cache = global_cache();
    let (lookups, misses, entries) = (cache.hits() + cache.misses(), cache.misses(), cache.len());

    let mut grid_fnv = Fnv::new();
    let mut errors = 0;
    for r in &results {
        let r = r.as_ref().ok_or("grid point never ran")?;
        errors += usize::from(r.is_err());
        write!(grid_fnv, "{r:?}").expect("hashing cannot fail");
    }
    let (figures, figures_s) = spans.time("figures", rep, "rep", || render_all_with_workers(1));
    let mut figures_fnv = Fnv::new();
    figures_fnv.update(figures.as_bytes());

    let layers = if traced {
        vec![
            ("workload.synth_s", setup_s),
            ("workload.requests", g.points.len() as f64),
            ("timing_cache.lookups", lookups as f64),
            ("timing_cache.misses", misses as f64),
            ("timing_cache.entries", entries as f64),
            ("run.calls", g.points.len() as f64),
            ("run.errors", errors as f64),
            ("run.s", call_busy_ns as f64 * 1e-9),
            ("figures.render_s", figures_s),
        ]
    } else {
        Vec::new()
    };
    spans.close("rep", rep, "-", rep_start);
    Ok(SweepRep {
        calls: g.points.len(),
        setup_s,
        grid_s,
        figures_s,
        grid_digest: grid_fnv.digest(),
        figures_digest: figures_fnv.digest(),
        rss_mb: first_rep_rss_mb(rep)?,
        layers,
    })
}

fn run_sweep(opts: &Options, spans: &mut Spans) -> Tally {
    let mut tally = Tally::default();
    let budget_s = opts.phase_budget_s();
    // A pass is two operations: the grid and the figures render.
    let plain = repeat(budget_s, opts.min_reps(), 1, |i| {
        sweep_rep(opts, i, None, spans)
    });
    let plain = tally.ops("paper_sweep", 2, plain);
    let mut call_ns = Vec::new();
    let traced = if opts.trace {
        let first = plain.len();
        let traced = repeat(budget_s, 2, 1, |i| {
            sweep_rep(opts, first + i, Some(&mut call_ns), spans)
        });
        tally.ops("paper_sweep", 2, traced)
    } else {
        Vec::new()
    };
    let all = || plain.iter().chain(&traced);
    let grid_digests: Vec<(usize, u64)> = all().map(|r| (0, r.grid_digest)).collect();
    let figure_digests: Vec<(usize, u64)> = all().map(|r| (0, r.figures_digest)).collect();
    tally.failed += check_digests("paper_sweep.grid", &grid_digests, opts.committed());
    tally.failed += check_digests("paper_sweep.figures", &figure_digests, opts.committed());

    let grid_s: Vec<f64> = plain.iter().map(|r| r.grid_s).collect();
    let pass_s: Vec<f64> = plain.iter().map(|r| r.grid_s + r.figures_s).collect();
    let setup_s: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    describe("paper_sweep", "grid_s", &grid_s);
    describe("paper_sweep", "pass_s", &pass_s);
    describe("paper_sweep", "setup_s", &setup_s);
    if !opts.trace {
        if let Some(first) = plain.first() {
            tally.put("req_per_s", first.calls as f64 / median(&grid_s));
            tally.put_all(first.rss_mb.map(|mb| ("peak_rss_mb", mb)));
        }
        tally.put_all(pass_s.iter().map(|&s| ("rep_s", s)));
        tally.put_all(setup_s.iter().map(|&s| ("setup_s", s)));
        return tally;
    }

    for rep in &traced {
        tally.put_all(rep.layers.iter().copied());
    }
    let traced_grid_s: Vec<f64> = traced.iter().map(|r| r.grid_s).collect();
    if !plain.is_empty() && !traced.is_empty() {
        tally.put(
            "trace.overhead_frac",
            median(&traced_grid_s) / median(&grid_s) - 1.0,
        );
    }
    call_ns.sort_unstable();
    eprintln!("paper_sweep run latency samples: {}", call_ns.len());
    for (name, p) in [("run.p50_us", 50.0), ("run.p999_us", 99.9)] {
        tally.put(
            name,
            crate::stats::percentile_sorted(&call_ns, p) as f64 * 1e-3,
        );
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_follow_the_catalogue() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let catalogued: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, catalogued);
        assert_eq!(
            Workload::from_name("chat_paged"),
            Some(Workload::Replay(Replay::ChatPaged))
        );
        assert_eq!(Workload::from_name("nosuch"), None);
    }

    #[test]
    fn committed_digests_cover_every_output() {
        for key in [
            "service_day.0",
            "chat_paged.0",
            "chaos_flaky.0",
            "paper_sweep.grid.0",
            "paper_sweep.figures.0",
        ] {
            assert!(committed_digest(key).is_some(), "{key}");
        }
    }

    #[test]
    fn digest_checks_count_mismatches() {
        assert_eq!(check_digests("t", &[(0, 1), (0, 1), (0, 2)], false), 1);
        assert_eq!(check_digests("t", &[(0, 1), (1, 2), (1, 2)], false), 0);
        assert_eq!(check_digests("t", &[], false), 0);
        // Input 0 needs a committed digest at the default seed.
        assert_eq!(check_digests("no-such-key", &[(0, 1), (0, 1)], true), 2);
        // A committed digest is the reference for its input.
        let service = committed_digest("service_day.0").expect("committed");
        assert_eq!(
            check_digests("service_day", &[(0, service), (0, 1)], true),
            1
        );
    }

    #[test]
    fn inputs_derive_from_the_run_seed() {
        assert_eq!(input_seed(42, 0), 42);
        assert_eq!(input_seed(42, 2), input_seed(42, 2));
        assert_ne!(input_seed(42, 1), input_seed(42, 2));
        assert_ne!(input_seed(42, 1), input_seed(43, 1));
    }

    /// Tracing wrappers must not change a single output byte: on a small
    /// `chaos_flaky`-shaped trace (crashes, retries, hedges, breaker), the
    /// traced rep's digest equals the untraced one.
    #[test]
    fn traced_replay_is_byte_identical_to_untraced() {
        let opts = Options {
            seed: 3,
            seconds: 0.0,
            trace: true,
            quick: true,
        };
        let mut spans = Spans::new();
        for kind in [Replay::ChaosFlaky, Replay::ChatPaged] {
            let plain = replay_rep(kind, &opts, 0, 0, false, &mut spans).expect("plain rep");
            let traced = replay_rep(kind, &opts, 0, 1, true, &mut spans).expect("traced rep");
            assert_eq!(plain.requests, traced.requests);
            assert_eq!(plain.digest, traced.digest, "{kind:?}");
            assert!(plain.layers.is_empty() && !traced.layers.is_empty());
        }
        let chaos = replay_rep(Replay::ChaosFlaky, &opts, 0, 2, true, &mut spans).expect("rep");
        let value = |name: &str| chaos.layers.iter().find(|(n, _)| *n == name).map(|p| p.1);
        assert!(
            value("faults.hedges") > Some(0.0),
            "the trace exercises hedging"
        );
        assert!(
            value("router.calls") > value("workload.requests"),
            "observe is traced"
        );
    }
}
