//! The layer pass: each job of a workload taken through the same public
//! functions the server and the engine call, one span per layer call.
//!
//! Nothing inside the program is instrumented; every number here is a
//! span the benchmark opened around a call into `serve::api`, `engine`,
//! `lint`, `core` or `commsim`.

use crate::inputs::PRESETS;
use crate::stats::{median, weighted_median};
use crate::trace::{request_ids, Spans};
use predsim_core::{record_program, simulate_program, CommAlgo, SimOptions};
use predsim_engine::{Engine, EngineConfig, JobOutcome, JobResult, JobSpec};
use predsim_serve::api;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layer spans on the server's blocking path for one `/v1/predict`,
/// in call order; `serve.layer_sum_ms` adds these up.
pub const SERVED_PATH: [&str; 5] = [
    "serve.api.parse",
    "serve.api.gate",
    "engine.run",
    "lint.bounds",
    "serve.api.render",
];

/// What the pass measured, aggregated over the jobs by their weights.
pub struct Layers {
    /// Weighted mean self time per layer span name, ns.
    pub mean_ns: BTreeMap<&'static str, f64>,
    /// Weighted median over jobs of the served-path sum, ns.
    pub layer_sum_ns: f64,
    /// Communication steps the replay re-timed / simulated in full.
    pub replayed: usize,
    pub resimulated: usize,
    /// Weighted mean messages per job the commsim pass simulated.
    pub msgs: f64,
    /// Disagreements between layers that must agree (memo vs no memo,
    /// replay vs re-simulation).
    pub mismatches: Vec<String>,
}

/// The preset after the job's own machine: where the replay re-times it.
fn other_preset(body: &str) -> &'static str {
    let machine = crate::http::str_field(body, "machine").unwrap_or("meiko");
    let at = PRESETS.iter().position(|p| *p == machine).unwrap_or(0);
    PRESETS[(at + 1) % PRESETS.len()]
}

/// `opts` on another machine preset, everything else unchanged.
pub fn on_preset(opts: &SimOptions, preset: &str, procs: usize) -> SimOptions {
    let mut other = *opts;
    other.cfg.params = loggp::presets::by_name(preset, procs).expect("built-in preset");
    other
}

/// Simulate every communication step of `spec`'s program on its own,
/// from idle processors, with the spec's algorithm. Returns the message
/// count.
pub fn commsim_pass(program: &predsim_core::Program, opts: &SimOptions) -> usize {
    let mut msgs = 0;
    for step in program.steps().iter().filter(|s| !s.comm.is_empty()) {
        let result = match opts.algo {
            CommAlgo::Standard => commsim::standard::simulate(&step.comm, &opts.cfg),
            CommAlgo::WorstCase => commsim::worstcase::simulate(&step.comm, &opts.cfg),
        };
        std::hint::black_box(result.finish);
        msgs += step.comm.len();
    }
    msgs
}

/// Take each `(body, weight)` through every layer once (the engine run
/// twice: once to warm its memo, once timed).
pub fn layer_pass(jobs: &[(String, f64)], spans: &mut Spans) -> Result<Layers, String> {
    let engine = Engine::new(EngineConfig::default().with_jobs(1));
    let mut out = Layers {
        mean_ns: BTreeMap::new(),
        layer_sum_ns: 0.0,
        replayed: 0,
        resimulated: 0,
        msgs: 0.0,
        mismatches: Vec::new(),
    };
    let first = spans.spans().len();
    let base = request_ids(jobs.len() as u64);
    let total_weight: f64 = jobs.iter().map(|(_, w)| w).sum();
    for (i, (body, weight)) in jobs.iter().enumerate() {
        let id = base + i as u64;
        let root = spans.open("layers.job", None, id);
        let req = spans
            .time("serve.api.parse", root, id, || api::parse_predict(body))
            .map_err(|e| format!("parsing {body}: {}", e.body))?;
        let gate = [(req.name.clone(), req.spec.clone())];
        spans
            .time("serve.api.gate", root, id, || api::check_jobs(&gate))
            .map_err(|e| format!("gate refused {body}: {}", e.body))?;
        let spec = &req.spec;
        let program = spans.time("engine.build", root, id, || spec.source.build());
        engine.run_one(spec);
        let prediction = spans.time("engine.run", root, id, || engine.run_one(spec));
        let bounds = spans.time("lint.bounds", root, id, || {
            predsim_engine::static_bounds(spec)
        });
        let result = JobResult {
            index: 0,
            label: spec.label.clone(),
            outcome: JobOutcome::Done {
                prediction: prediction.clone(),
                attempts: 1,
            },
        };
        let rendered = spans.time("serve.api.render", root, id, || {
            api::render_predict(&result, bounds.as_ref(), api::Tier::Full)
        });
        std::hint::black_box(rendered);
        let direct = spans.time("core.simulate", root, id, || {
            simulate_program(&program, &spec.opts)
        });
        if direct.total != prediction.total {
            out.mismatches
                .push(format!("{body}: memo run differs from direct simulation"));
        }

        let other = on_preset(&spec.opts, other_preset(body), program.procs());
        let (_, recording) = record_program(&program, &spec.opts);
        let (replayed, stats) = spans.time("core.replay", root, id, || {
            recording.predict(&program, &other)
        });
        let resim = spans.time("core.resim", root, id, || {
            simulate_program(&program, &other)
        });
        if replayed != resim {
            out.mismatches
                .push(format!("{body}: replay differs from re-simulation"));
        }
        out.replayed += stats.replayed;
        out.resimulated += stats.resimulated;
        let msgs = spans.time("commsim.simulate", root, id, || {
            commsim_pass(&program, &spec.opts)
        });
        out.msgs += msgs as f64 * weight / total_weight;
        spans.close(root);
    }

    // Per job and layer: self time, from the spans just recorded.
    let own = spans.self_ns();
    let mut per_job: Vec<BTreeMap<&'static str, f64>> = vec![BTreeMap::new(); jobs.len()];
    for (s, ns) in spans.spans()[first..].iter().zip(&own[first..]) {
        *per_job[(s.request - base) as usize]
            .entry(s.name)
            .or_default() += *ns as f64;
    }
    for (layers, (_, w)) in per_job.iter().zip(jobs) {
        for (name, ns) in layers {
            *out.mean_ns.entry(name).or_default() += ns * w / total_weight;
        }
    }
    let sums: Vec<(f64, f64)> = per_job
        .iter()
        .zip(jobs)
        .map(|(layers, (_, w))| (SERVED_PATH.iter().map(|n| layers[n]).sum(), *w))
        .collect();
    out.layer_sum_ns = weighted_median(&sums);
    Ok(out)
}

/// Per-message cost of commsim on the given jobs' patterns, grouped by
/// processor count: `P → (messages, ns)`. Each span is named after its P.
pub fn commsim_by_procs(jobs: &[JobSpec], spans: &mut Spans) -> BTreeMap<usize, (usize, f64)> {
    let mut out: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
    for spec in jobs {
        let program = spec.source.build();
        let name = match program.procs() {
            64 => "commsim.p64",
            256 => "commsim.p256",
            1024 => "commsim.p1024",
            _ => "commsim.other",
        };
        let start = Instant::now();
        let msgs = spans.time(name, None, request_ids(1), || {
            commsim_pass(&program, &spec.opts)
        });
        let e = out.entry(program.procs()).or_default();
        e.0 += msgs;
        e.1 += start.elapsed().as_nanos() as f64;
    }
    out
}

/// Parallel efficiency of a batch: the sum of one-at-a-time `run_one`
/// times on a fresh engine over the median batch wall times the worker
/// count (median of three fresh-engine batches).
pub fn parallel_efficiency(specs: &[JobSpec]) -> f64 {
    let single = Engine::new(EngineConfig::default().with_jobs(1));
    let seq: f64 = specs
        .iter()
        .map(|s| {
            let t = Instant::now();
            std::hint::black_box(single.run_one(s));
            t.elapsed().as_secs_f64()
        })
        .sum();
    let config = EngineConfig::default();
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            let engine = Engine::new(config);
            let t = Instant::now();
            std::hint::black_box(engine.run(specs));
            t.elapsed().as_secs_f64()
        })
        .collect();
    seq / (median(&walls) * config.effective_jobs() as f64)
}
