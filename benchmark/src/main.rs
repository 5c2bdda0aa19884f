//! `benchmark` — the repository benchmark. See README.md.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>|all] [--seed N] [--seconds S] [--trace [0|1]] \
//!     [--quick] [--out FILE] [--trace-out FILE] [--list]
//! ```
//!
//! Prints every metric as `<workload> <metric> <value> <unit>`, then one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`, which it also
//! writes to `--out`. `all` runs each workload in a fresh child process,
//! one at a time.

mod catalog;
mod layers;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Options, Outcome, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: benchmark [--workload <name>|all] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--quick] [--out FILE] [--trace-out FILE] [--list]";

#[derive(Debug)]
struct Args {
    workload: String,
    opts: Options,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    list: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        opts: Options {
            seed: DEFAULT_SEED,
            seconds: f64::from(catalog::RUN_SECONDS),
            trace: false,
            quick: false,
        },
        out: None,
        trace_out: None,
        list: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.opts.seed = parse_u64(&v).ok_or(format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            // A bare `--trace` turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.opts.trace = true;
                if let Some(v @ ("0" | "1")) = it.peek().map(|s| s.as_str()) {
                    args.opts.trace = v == "1";
                    it.next();
                }
            }
            "--quick" => args.opts.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && Workload::from_name(&args.workload).is_none() {
        return Err(format!("unknown workload {}", args.workload));
    }
    Ok(args)
}

/// The text lines and the JSON line of one workload's outcome.
fn render(workload: &str, outcome: &Outcome) -> (String, String) {
    let mut lines = String::new();
    let mut json = Vec::new();
    for (m, v) in &outcome.metrics {
        assert!(v.is_finite(), "{workload} {} is not finite", m.name);
        lines.push_str(&format!("{workload} {} {v} {}\n", m.name, m.unit));
        json.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    (lines, json)
}

fn spans_tsv(outcome: &Outcome) -> String {
    let mut tsv = String::from("name\trep\tparent\tstart_ns\tend_ns\tbusy_ns\tcalls\n");
    for s in &outcome.spans {
        tsv.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.name, s.rep, s.parent, s.start_ns, s.end_ns, s.busy_ns, s.calls
        ));
    }
    tsv
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn default_path(name: &str) -> PathBuf {
    PathBuf::from("target").join("benchmark").join(name)
}

fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let outcome = workloads::run(workload, &args.opts);
    let (lines, json) = render(workload.name(), &outcome);
    print!("{lines}");
    println!("{json}");
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| default_path(&format!("{}.json", workload.name())));
    write_file(&out, &format!("{json}\n"))?;
    if args.opts.trace {
        let spans = args
            .trace_out
            .clone()
            .unwrap_or_else(|| default_path(&format!("{}-spans.tsv", workload.name())));
        write_file(&spans, &spans_tsv(&outcome))?;
    }
    Ok(outcome.failed == 0 && outcome.attempted > 0)
}

/// Runs every workload in its own child process, one after another, and
/// prints their lines followed by one JSON object keyed by workload.
fn run_all(argv: &[String], args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                // Each child writes its own default files.
                "--workload" | "--out" | "--trace-out" => {
                    it.next();
                }
                _ => child_args.push(a.clone()),
            }
        }
        child_args.extend(["--workload".to_owned(), workload.name().to_owned()]);
        let output = Command::new(&exe)
            .args(&child_args)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let json = lines.pop().unwrap_or("null");
        for line in lines {
            println!("{line}");
        }
        all_ok &= output.status.success();
        results.push(format!("\"{}\": {json}", workload.name()));
    }
    let json = format!("{{{}}}", results.join(", "));
    println!("{json}");
    let out = args.out.clone().unwrap_or_else(|| default_path("all.json"));
    write_file(&out, &format!("{json}\n"))?;
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", catalog::list());
        return ExitCode::SUCCESS;
    }
    let result = match Workload::from_name(&args.workload) {
        Some(workload) => run_one(workload, &args),
        None => run_all(&argv, &args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        parse_args(&argv)
    }

    #[test]
    fn parses_flags_and_rejects_bad_ones() {
        let a = args("--workload chat_paged --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, "chat_paged");
        assert_eq!(
            (a.opts.seed, a.opts.seconds, a.opts.trace),
            (7, 10.0, false)
        );
        let a = args("--trace 1 --seed 0x10").unwrap();
        assert!(a.opts.trace);
        assert_eq!(a.opts.seed, 16);
        let a = args("--trace --quick").unwrap();
        assert!(a.opts.trace && a.opts.quick);
        assert_eq!(a.workload, "all");
        assert_eq!(a.opts.seed, DEFAULT_SEED);
        assert!(args("--workload nosuch").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }

    #[test]
    fn json_keys_come_in_contract_order() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![
                (catalog::metric("req_per_s").unwrap(), 1.5),
                (catalog::metric("setup_s").unwrap(), 0.25),
            ],
            spans: Vec::new(),
        };
        let (lines, json) = render("service_day", &outcome);
        assert_eq!(
            lines,
            "service_day req_per_s 1.5 req/s\nservice_day setup_s 0.25 s\n"
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"req_per_s\": {\"value\": 1.5, \"unit\": \"req/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let failed = Outcome {
            failed: 1,
            ..outcome
        };
        assert!(render("x", &failed).1.starts_with("{\"correct\": false, "));
    }

    /// Every workload at 1/50 size, untraced and traced: every catalogued
    /// metric is emitted with its unit, and nothing fails.
    #[test]
    fn quick_runs_emit_every_metric() {
        for trace in [false, true] {
            let table: &[catalog::Metric] = if trace {
                &catalog::PER_LAYER
            } else {
                &catalog::END_TO_END
            };
            for workload in Workload::ALL {
                let opts = Options {
                    seed: 11,
                    seconds: 0.0,
                    trace,
                    quick: true,
                };
                let outcome = workloads::run(workload, &opts);
                assert_eq!(outcome.failed, 0, "{workload:?} trace={trace}");
                assert!(outcome.attempted >= 2);
                let (lines, _) = render(workload.name(), &outcome);
                let emitted: Vec<(&str, &str)> = lines
                    .lines()
                    .map(|l| {
                        let f: Vec<&str> = l.split(' ').collect();
                        (f[1], f[3])
                    })
                    .collect();
                let expected: Vec<(&str, &str)> = table.iter().map(|m| (m.name, m.unit)).collect();
                assert_eq!(emitted, expected, "{workload:?} trace={trace}");
                if !trace {
                    for (m, v) in &outcome.metrics {
                        assert!(*v > 0.0, "{workload:?} {} is 0", m.name);
                    }
                }
            }
        }
    }
}
