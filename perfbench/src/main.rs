//! perfbench: the predsim benchmark.
//!
//! ```text
//! perfbench --predsim PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --predsim PATH --self-test
//! ```
//!
//! Runs one workload (`serve-predict`, `sweep-paper` or `scale-p`; see
//! `workloads.rs`), checks every answer, prints a report and, as the last
//! line of standard output, one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, and the run's spans are written to
//! `perfbench/out/<workload>-seed<N>.spans.jsonl`. Exits 1 on any wrong
//! answer, 2 when the run could not be made.

mod http;
mod inputs;
mod layers;
mod selftest;
mod stats;
mod trace;
mod workloads;

use std::sync::OnceLock;
use std::time::Instant;
use workloads::{Config, Outcome};

/// The instant every span is stamped relative to.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub const WORKLOADS: [&str; 3] = ["serve-predict", "sweep-paper", "scale-p"];

const USAGE: &str = "usage: perfbench --predsim PATH (--workload NAME --seed N --seconds S --trace 0|1 | --self-test)";

pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    match workload {
        "serve-predict" => workloads::serve_predict(cfg),
        "sweep-paper" => workloads::sweep_paper(cfg),
        "scale-p" => workloads::scale_p(cfg),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Whether the run got every answer right and every metric is a number.
pub fn correct(outcome: &Outcome) -> bool {
    outcome.failed == 0
        && outcome.mismatches.is_empty()
        && outcome.metrics.iter().all(|(_, v, _)| v.is_finite())
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct(outcome),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

struct Args {
    predsim: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        predsim: None,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--predsim" => args.predsim = Some(value),
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

fn main() {
    epoch();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(predsim) = args.predsim else {
        eprintln!("perfbench: --predsim is required\n{USAGE}");
        std::process::exit(2);
    };
    if args.self_test {
        match selftest::run(&predsim) {
            Ok(()) => println!("self-test passed"),
            Err(e) => {
                eprintln!("perfbench: self-test failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload is required\n{USAGE}");
        std::process::exit(2);
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        predsim,
        min_ops: workloads::MIN_OPS,
    };
    let outcome = run(&workload, &cfg).unwrap_or_else(|e| {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(2);
    });

    println!(
        "{workload} seed {} ({} s, trace {})",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for line in &outcome.report {
        println!("{line}");
    }
    for m in &outcome.mismatches {
        println!("mismatch: {m}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<28} {value:>16.4} {unit}");
    }
    if cfg.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("{workload}-seed{}.spans.jsonl", cfg.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, outcome.spans.to_jsonl()));
        match written {
            Ok(()) => println!(
                "spans: {} ({} spans)",
                path.display(),
                outcome.spans.spans().len()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    println!("{}", result_json(&outcome));
    if !correct(&outcome) {
        std::process::exit(1);
    }
}
