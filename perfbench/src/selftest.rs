//! `--self-test`: the benchmark checks itself.
//!
//! * The same seed gives byte-identical inputs; another seed gives a
//!   different mix of the same shape.
//! * A short run of every workload, untraced and traced, answers
//!   everything correctly and prints exactly the metrics `BENCHMARK.json`
//!   names, each with its unit.

use crate::inputs::{self, ServeStream, SERVE_POOL};
use crate::workloads::Config;
use std::collections::BTreeMap;

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

fn stream(seed: u64, n: usize) -> Vec<usize> {
    let mut s = ServeStream::new(seed);
    (0..n).map(|_| s.next_index()).collect()
}

/// The generator family of a body (`ge`, `stencil`, ...).
fn family(body: &str) -> &str {
    let source = crate::http::str_field(body, "source").unwrap_or("");
    source.split(':').next().unwrap_or("")
}

fn families(bodies: &[String]) -> BTreeMap<&str, usize> {
    let mut out = BTreeMap::new();
    for b in bodies {
        *out.entry(family(b)).or_default() += 1;
    }
    out
}

/// Bodies per `serve-predict` family, collectives counted together.
fn mix(bodies: &[String]) -> BTreeMap<&str, usize> {
    let mut out = BTreeMap::new();
    for b in bodies {
        let f = match family(b) {
            "bcast" | "reduce" | "allreduce" => "collective",
            f => f,
        };
        *out.entry(f).or_default() += 1;
    }
    out
}

fn inputs_are_seeded() -> Result<(), String> {
    let (a, b) = (inputs::serve_pool(11), inputs::serve_pool(12));
    check(
        a == inputs::serve_pool(11),
        "serve pool differs for the same seed",
    )?;
    check(a != b, "serve pool is the same for different seeds")?;
    check(
        a.len() == SERVE_POOL && b.len() == SERVE_POOL,
        "serve pool size",
    )?;
    check(
        mix(&a) == mix(&b),
        "serve pools of two seeds have different family mixes",
    )?;

    check(
        stream(11, 4096) == stream(11, 4096),
        "request stream differs for the same seed",
    )?;
    check(
        stream(11, 4096) != stream(12, 4096),
        "request stream is the same for different seeds",
    )?;
    for seed in [11, 12] {
        let s = stream(seed, 2 * SERVE_POOL);
        let mut seen = vec![false; SERVE_POOL];
        let fresh = s
            .iter()
            .filter(|&&i| !std::mem::replace(&mut seen[i], true))
            .count();
        check(
            fresh == SERVE_POOL,
            "half the requests of a pool cycle must repeat an earlier body",
        )?;
    }

    let (x, y) = (inputs::scale_batches(11), inputs::scale_batches(12));
    check(
        x == inputs::scale_batches(11),
        "scale-p batches differ for the same seed",
    )?;
    check(x != y, "scale-p batches are the same for different seeds")?;
    let (fx, fy): (Vec<_>, Vec<_>) = (
        x.iter().map(|b| families(b)).collect(),
        y.iter().map(|b| families(b)).collect(),
    );
    check(
        fx == fy,
        "scale-p batches of two seeds have different shapes",
    )?;

    check(
        inputs::sweep_bodies().len() == 56,
        "the paper sweep has 56 jobs",
    )?;
    check(
        inputs::submission_order(11, 3, 56) == inputs::submission_order(11, 3, 56),
        "submission order differs for the same seed",
    )?;
    check(
        inputs::submission_order(11, 3, 56) != inputs::submission_order(12, 3, 56),
        "submission order is the same for different seeds",
    )?;
    Ok(())
}

/// The string value of the first `"key": "value"` in `text` at or after
/// `from`, and where the match ends.
fn string_after(text: &str, from: usize, key: &str) -> Option<(String, usize)> {
    let quoted = format!("\"{key}\"");
    let at = from + text[from..].find(&quoted)? + quoted.len();
    let rest = text[at..]
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('"')?;
    let start = text.len() - rest.len();
    let end = start + rest.find('"')?;
    Some((text[start..end].to_string(), end))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`
/// (`end_to_end` precedes `per_layer` in the file).
fn declared(text: &str, list: &str) -> Result<Vec<(String, String)>, String> {
    let start = text
        .find(&format!("\"{list}\""))
        .ok_or_else(|| format!("BENCHMARK.json has no '{list}' list"))?;
    let end = start + text[start..].find(']').ok_or("unterminated list")?;
    let section = &text[..end];
    let mut out = Vec::new();
    let mut at = start;
    while let Some((name, after)) = string_after(section, at, "name") {
        let (unit, after) = string_after(section, after, "unit")
            .ok_or_else(|| format!("metric '{name}' has no unit"))?;
        out.push((name, unit));
        at = after;
    }
    Ok(out)
}

pub fn run(predsim: &str) -> Result<(), String> {
    inputs_are_seeded()?;
    println!("inputs: same seed identical, other seed same shape");

    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    for workload in crate::WORKLOADS {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            // Two seeds untraced: the in-process results must match the
            // same memo-off reference whatever the submission order.
            for seed in if trace { vec![7] } else { vec![7, 8] } {
                let cfg = Config {
                    seed,
                    seconds: 1.0,
                    trace,
                    predsim: predsim.to_string(),
                    min_ops: 5,
                };
                let outcome = crate::run(workload, &cfg)?;
                check(
                    crate::correct(&outcome),
                    &format!(
                        "{workload} seed {seed}: wrong answers: {:?}",
                        outcome.report
                    ),
                )?;
                let printed: Vec<(String, String)> = outcome
                    .metrics
                    .iter()
                    .map(|(n, _, u)| (n.to_string(), u.to_string()))
                    .collect();
                let wanted = declared(&text, list)?;
                check(
                    printed.len() == wanted.len() && wanted.iter().all(|w| printed.contains(w)),
                    &format!("{workload} --trace {}: printed {printed:?}, BENCHMARK.json names {wanted:?}", u8::from(trace)),
                )?;
                println!(
                    "{workload} --trace {} seed {seed}: {} metrics, {} operations, all correct",
                    u8::from(trace),
                    printed.len(),
                    outcome.attempted
                );
            }
        }
    }
    Ok(())
}
