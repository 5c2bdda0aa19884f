//! The benchmark's catalogue: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root and the
//! `--list` output are both rendered from these tables, and a test keeps
//! the committed file equal to the rendering.

/// How the benchmark is invoked from the repository root.
#[cfg(test)]
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories holding the benchmark and nothing else.
#[cfg(test)]
pub const PATHS: [&str; 1] = ["benchmark"];

/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u32 = 20;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "service_day",
        why:
            "Pricing-bound replay: most host time is decode_step_time behind PredictCache misses, \
              so pricing, PredictCache and isa::timing changes show here first.",
    },
    WorkloadInfo {
        name: "chat_paged",
        why:
            "Event-loop, paged-KV and span-sink replay with ~4x the events per request and pricing \
              under half of host time: engine, KV and sink changes show here, pricing gains shrink.",
    },
    WorkloadInfo {
        name: "chaos_flaky",
        why: "The only workload running crashes, partitions, slowdowns, retries, hedges and \
              RouterPolicy::observe, so it guards the fault path against slowing.",
    },
    WorkloadInfo {
        name: "paper_sweep",
        why: "Single-request Backend::run grid plus the paper's figures: pricing without \
              PredictCache, so a replay-only pricing shortcut must not slow it.",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// The workloads on which the metric measures something; elsewhere it
    /// is reported as 0.
    pub applies: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        applies: "all",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    applies: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        applies,
    }
}

use Better::{Higher, Lower};

const REPLAYS: &str = "service_day,chat_paged,chaos_flaky";

/// Metrics a user of the simulator sees, measured with tracing off.
pub const END_TO_END: [Metric; 4] = [
    e2e("req_per_s", "req/s", Higher, 0.2),
    e2e("rep_s", "s", Lower, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.1),
];

/// Metrics of single layers, measured by the `--trace` run.
pub const PER_LAYER: [Metric; 53] = [
    layer("workload.synth_s", "s", Lower, "all"),
    layer("workload.requests", "count", Higher, "all"),
    layer("engine.replay_s", "s", Lower, REPLAYS),
    layer("engine.events", "count", Lower, REPLAYS),
    layer("engine.events_per_request", "ratio", Lower, REPLAYS),
    layer("engine.self_s", "s", Lower, REPLAYS),
    layer("engine.self_ns_per_event", "ns", Lower, REPLAYS),
    layer("engine.peak_in_flight", "count", Lower, REPLAYS),
    layer("predict.prefill_calls", "count", Lower, REPLAYS),
    layer("predict.decode_calls", "count", Lower, REPLAYS),
    layer("predict.decode_calls_per_request", "ratio", Lower, REPLAYS),
    layer("pricing.decode_s", "s", Lower, REPLAYS),
    layer("pricing.decode_ns_p50", "ns", Lower, REPLAYS),
    layer("pricing.decode_ns_p99", "ns", Lower, REPLAYS),
    layer("pricing.prefill_s", "s", Lower, REPLAYS),
    layer("pricing.other_s", "s", Lower, REPLAYS),
    layer("pricing.share", "ratio", Lower, REPLAYS),
    layer("timing_cache.lookups", "count", Lower, "all"),
    layer("timing_cache.misses", "count", Lower, "all"),
    layer("timing_cache.entries", "count", Lower, "all"),
    layer(
        "timing_cache.lookups_per_priced_op",
        "ratio",
        Lower,
        REPLAYS,
    ),
    layer("router.calls", "count", Lower, REPLAYS),
    layer("router.calls_per_request", "ratio", Lower, REPLAYS),
    layer("router.s", "s", Lower, REPLAYS),
    layer("router.ns_per_call", "ns", Lower, REPLAYS),
    layer("faults.crashes", "count", Lower, "chaos_flaky"),
    layer("faults.retries", "count", Lower, "chaos_flaky"),
    layer("faults.hedges", "count", Lower, "chaos_flaky"),
    layer("faults.wasted_tokens", "tokens", Lower, "chaos_flaky"),
    layer("kv.prefix_hit_tokens", "tokens", Higher, "chat_paged"),
    layer("kv.prefix_hit_frac", "ratio", Higher, "chat_paged"),
    layer("kv.preemptions", "count", Lower, "chat_paged"),
    layer("kv.peak_occupancy", "ratio", Lower, "chat_paged"),
    layer("spans.records", "count", Higher, "chat_paged"),
    layer("spans.bytes", "B", Lower, "chat_paged"),
    layer("spans.s", "s", Lower, "chat_paged"),
    layer("spans.bytes_per_s", "B/s", Higher, "chat_paged"),
    layer("report.render_s", "s", Lower, REPLAYS),
    layer("shard.threads", "count", Higher, "service_day"),
    layer("shard.cells", "count", Higher, "service_day"),
    layer("shard.serial_s", "s", Lower, "service_day"),
    layer("shard.parallel_s", "s", Lower, "service_day"),
    layer("shard.parallel_min_s", "s", Lower, "service_day"),
    layer("shard.parallel_max_s", "s", Lower, "service_day"),
    layer("shard.parallel_speedup", "ratio", Higher, "service_day"),
    layer("shard.merge_s", "s", Lower, "service_day"),
    layer("run.calls", "count", Higher, "paper_sweep"),
    layer("run.errors", "count", Lower, "paper_sweep"),
    layer("run.s", "s", Lower, "paper_sweep"),
    layer("run.p50_us", "us", Lower, "paper_sweep"),
    layer("run.p999_us", "us", Lower, "paper_sweep"),
    layer("figures.render_s", "s", Lower, "paper_sweep"),
    layer("trace.overhead_frac", "ratio", Lower, "all"),
];

/// The catalogued metric called `name`, in either table.
#[cfg(test)]
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
fn json_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", quoted.join(", "))
}

/// The text of `BENCHMARK.json`.
#[cfg(test)]
pub fn benchmark_json() -> String {
    let rows = |items: Vec<String>| items.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_str(w.name),
                    json_str(w.why)
                )
            })
            .collect(),
    );
    let metric_row = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label())
        )
    };
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        json_list(&COMMAND),
        json_list(&PATHS),
        rows(END_TO_END.iter().map(metric_row).collect()),
        rows(PER_LAYER.iter().map(metric_row).collect()),
    )
}

/// The `--list` table: workloads, then every metric with its unit,
/// direction, bound and the workloads it measures.
pub fn list() -> String {
    let mut out = String::from("# workload  why\n");
    for w in &WORKLOADS {
        out.push_str(&format!("{:<12} {}\n", w.name, w.why));
    }
    out.push_str("\n# metric  unit  better  bound  kind  workloads\n");
    for (kind, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        for m in table {
            let bound = m.bound.map_or("-".to_owned(), |b| b.to_string());
            out.push_str(&format!(
                "{:<36} {:<6} {:<6} {:<5} {:<10} {}\n",
                m.name,
                m.unit,
                m.better.label(),
                bound,
                kind,
                m.applies
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json is committed");
        let rendered = benchmark_json();
        assert!(
            committed == rendered,
            "BENCHMARK.json is stale; it should read:\n{rendered}"
        );
    }

    #[test]
    fn catalogue_obeys_the_benchmark_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(is_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                (1..=16).contains(&m.unit.len())
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
            for w in m.applies.split(',') {
                assert!(
                    w == "all" || WORKLOADS.iter().any(|x| x.name == w),
                    "{}: {w}",
                    m.name
                );
            }
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = metric("setup_s").expect("setup_s is catalogued");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics have bounds");
            assert!(
                b > 0.0 && b <= 0.25 && b <= setup.bound.unwrap_or(0.0),
                "{}",
                m.name
            );
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn list_names_every_metric_once() {
        let text = list();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let rows = text
                .lines()
                .filter(|l| l.split_whitespace().next() == Some(m.name))
                .count();
            assert_eq!(rows, 1, "{}", m.name);
        }
    }
}
