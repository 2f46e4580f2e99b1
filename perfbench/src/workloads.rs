//! The three workloads: what one operation is, how it is driven, and how
//! its answers are checked.
//!
//! * `serve-predict` — a child `predsim serve` driven in a closed loop by
//!   two keep-alive clients; one operation is one `/v1/predict`.
//! * `sweep-paper` — the paper's GE block-size sweep through
//!   `Engine::run`, then the best block per layout re-timed on five
//!   presets through `ProgramRecording::predict`; one operation is one
//!   whole sweep.
//! * `scale-p` — stencil and collectives at P up to 1024 through
//!   `Engine::run`; one operation is one batch.

use crate::http::{int_field, Client, Metrics, Server};
use crate::inputs;
use crate::layers::{self, Layers};
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{request_ids, Spans};
use predsim_core::{record_program, simulate_program, CommAlgo};
use predsim_engine::{Engine, EngineConfig, JobSpec};
use predsim_serve::api;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Operations a measured phase needs at least; a phase runs until both
/// this and `--seconds` are met. 100 would give every p90 ten samples
/// beyond it, but a paper sweep takes about half a second, and a hundred
/// of them per run spread a set of runs over so many minutes that the
/// drift of a shared host's speed outgrows the bounds (NOTES.md).
pub const MIN_OPS: usize = 40;
/// A measured phase stops here whatever [`MIN_OPS`] says.
const MAX_PHASE: Duration = Duration::from_secs(120);
/// Set-ups timed before the measured phase, and (served) after it;
/// `setup_s` is the median of all set-ups of the run. In process, one
/// more set-up is timed after each measured operation, so the samples
/// span the whole run rather than one moment of the host's load.
const SETUP_SAMPLES: usize = 9;
/// Warm-up before measuring: requests (served) or operations (in process).
const WARMUP_REQUESTS: usize = 16;
const WARMUP_OPS: usize = 2;
/// Closed-loop client connections on `serve-predict`.
const CLIENTS: usize = 2;
/// Prediction workers of `predsim serve`'s default configuration.
const SERVE_WORKERS: f64 = 2.0;

/// What a run asks for.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub predsim: String,
    /// Operations a measured phase needs at least ([`MIN_OPS`] unless a
    /// self-test asks for a short run).
    pub min_ops: usize,
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// A workload run's result.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Disagreements found outside the measured operations (layer
    /// cross-checks); any makes the run incorrect.
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub report: Vec<String>,
    pub spans: Spans,
}

/// Operations sent, answered correctly, and failed in one phase.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    sent: u64,
    ok: u64,
    failed: u64,
}

/// One phase's measurements.
#[derive(Default)]
struct Phase {
    counts: Counts,
    /// Host time per operation, ms.
    latency_ms: Vec<f64>,
    /// Correct predictions delivered.
    predictions: u64,
    wall: Duration,
    /// Body index of each request sent (served phases).
    sent: Vec<usize>,
    errors: Vec<String>,
    /// Set-up times sampled between operations (in-process phases).
    setup: Vec<f64>,
    /// Memo lookups and engine phase time (in-process phases).
    hits: u64,
    misses: u64,
    build_ns: u64,
    simulate_ns: u64,
    jobs: u64,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.counts.sent += other.counts.sent;
        self.counts.ok += other.counts.ok;
        self.counts.failed += other.counts.failed;
        self.latency_ms.extend(other.latency_ms);
        self.predictions += other.predictions;
        self.sent.extend(other.sent);
        self.errors.extend(other.errors);
    }

    fn line(&self, name: &str) -> String {
        let c = self.counts;
        format!(
            "{name:<11} sent {:>6}  succeeded {:>6}  failed {:>3}  wall {:.3} s",
            c.sent,
            c.ok,
            c.failed,
            self.wall.as_secs_f64()
        )
    }
}

/// When a phase ends.
#[derive(Clone, Copy)]
enum Until {
    /// After exactly this many operations.
    Count(usize),
    /// Once both this much time and this many operations are done.
    Time(Duration, usize),
}

impl Until {
    fn run(cfg: &Config) -> Until {
        Until::Time(Duration::from_secs_f64(cfg.seconds), cfg.min_ops)
    }

    /// Half a run, for the untraced and the traced halves of a traced run;
    /// these report means, so they need fewer operations.
    fn half(cfg: &Config) -> Until {
        Until::Time(Duration::from_secs_f64(cfg.seconds / 2.0), cfg.min_ops / 10)
    }
}

/// Reference totals: each body's spec on a memo-off, one-job engine —
/// `Engine::run_one`, the same per-job path the server's workers use.
fn reference_totals(bodies: &[String]) -> Result<Vec<i64>, String> {
    let specs = parse_all(bodies)?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = vec![0i64; specs.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let specs = &specs;
                s.spawn(move || {
                    let engine = Engine::new(EngineConfig::default().with_jobs(1).with_memo(false));
                    (t..specs.len())
                        .step_by(threads)
                        .map(|i| (i, engine.run_one(&specs[i]).total.as_ps() as i64))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, total) in h.join().expect("reference thread panicked") {
                out[i] = total;
            }
        }
    });
    Ok(out)
}

fn parse_all(bodies: &[String]) -> Result<Vec<JobSpec>, String> {
    bodies
        .iter()
        .map(|b| {
            api::parse_predict(b)
                .map(|r| r.spec)
                .map_err(|e| format!("input {b} does not parse: {}", e.body))
        })
        .collect()
}

/// Check one served answer against its in-process reference total and
/// its own static bracket.
fn check_answer(reply: std::io::Result<(u16, String)>, expect: i64) -> Result<(), String> {
    let (status, body) = reply.map_err(|e| format!("gave up: {e}"))?;
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let total = int_field(&body, "total_ps").ok_or("answer carries no total_ps")?;
    if total != expect {
        return Err(format!(
            "total_ps {total}, in-process Engine::run_one {expect}"
        ));
    }
    let lo = int_field(&body, "static_lo_ps").ok_or("answer carries no static_lo_ps")?;
    let hi = int_field(&body, "static_hi_ps").ok_or("answer carries no static_hi_ps")?;
    if !(lo <= total && total <= hi) {
        return Err(format!("total_ps {total} outside its static [{lo}, {hi}]"));
    }
    Ok(())
}

/// Drive `/v1/predict` over [`CLIENTS`] keep-alive connections in a
/// closed loop: each client sends its next request only after the last
/// answer arrived. `next` yields the body index of the next request, or
/// `None` when the phase's inputs are spent.
fn drive(
    addr: &str,
    bodies: &[String],
    expect: &[i64],
    next: &(dyn Fn() -> Option<usize> + Sync),
    until: Until,
    spans: &mut Spans,
    traced: bool,
) -> Phase {
    let start = Instant::now();
    let claimed = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let parts: Vec<(Phase, Spans)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (claimed, done) = (&claimed, &done);
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut mine = Spans::new(traced);
                    let mut phase = Phase::default();
                    loop {
                        let go = match until {
                            Until::Count(n) => claimed.fetch_add(1, Ordering::SeqCst) < n,
                            Until::Time(d, min) => {
                                let t = start.elapsed();
                                t < MAX_PHASE && (t < d || done.load(Ordering::SeqCst) < min)
                            }
                        };
                        if !go {
                            break;
                        }
                        let Some(idx) = next() else {
                            break;
                        };
                        let id = request_ids(1);
                        let root = mine.open("serve.request", None, id);
                        let write = mine.open("client.write", root, id);
                        let mut read = None;
                        let t = Instant::now();
                        let reply = client.call("POST", "/v1/predict", &bodies[idx], || {
                            mine.close(write);
                            read = mine.open("client.read", root, id);
                        });
                        phase.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        mine.close(read);
                        mine.close(root);
                        phase.counts.sent += 1;
                        phase.sent.push(idx);
                        match check_answer(reply, expect[idx]) {
                            Ok(()) => {
                                phase.counts.ok += 1;
                                phase.predictions += 1;
                            }
                            Err(why) => {
                                phase.counts.failed += 1;
                                phase.errors.push(format!("{}: {why}", bodies[idx]));
                            }
                        }
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                    (phase, mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for (part, mine) in parts {
        phase.absorb(part);
        spans.absorb(mine);
    }
    phase.wall = start.elapsed();
    phase
}

/// Spawn the server `n` times; keep the last one running. Returns it with
/// each spawn-to-listening time.
fn spawn_timed(predsim: &str, n: usize) -> Result<(Server, Vec<f64>), String> {
    let mut ready = Vec::new();
    let mut server = None;
    for _ in 0..n {
        drop(server.take());
        let s = Server::spawn(predsim)?;
        ready.push(s.ready.as_secs_f64());
        server = Some(s);
    }
    Ok((server.expect("at least one spawn"), ready))
}

fn end_to_end(phase: &Phase, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        ("latency_p50_ms", percentile(&phase.latency_ms, 0.5), "ms"),
        ("latency_p90_ms", percentile(&phase.latency_ms, 0.9), "ms"),
        (
            "predictions_per_s",
            phase.predictions as f64 / phase.wall.as_secs_f64(),
            "1/s",
        ),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// Counts, error rate and percentile sample counts, for the report.
fn phase_report(report: &mut Vec<String>, warm: &Phase, measured: &[(&str, &Phase)]) {
    report.push(warm.line("warm-up"));
    for (name, p) in measured {
        report.push(p.line(name));
    }
    let (sent, failed) = measured.iter().fold((0, 0), |(s, f), (_, p)| {
        (s + p.counts.sent, f + p.counts.failed)
    });
    report.push(format!(
        "error_rate  {} (failed {failed} of {sent} attempted)",
        ratio(failed as f64, sent as f64)
    ));
    for (name, p) in measured {
        report.push(format!(
            "{name}: p50 {:.3} ms, p90 {:.3} ms over {} samples",
            percentile(&p.latency_ms, 0.5),
            percentile(&p.latency_ms, 0.9),
            p.latency_ms.len()
        ));
        for e in p.errors.iter().take(5) {
            report.push(format!("  failure: {e}"));
        }
    }
}

/// Mean server-side wall per request over a `/metrics` delta, ms.
fn server_wall_ms(delta: &Metrics) -> f64 {
    ratio(
        delta.total("serve_request_wall_ns_sum"),
        delta.total("serve_request_wall_ns_count"),
    ) / 1e6
}

/// The serve reconciliation rows from a client phase and the `/metrics`
/// delta around it.
fn served_rows(client: &Phase, delta: &Metrics, layer_sum_ms: f64) -> Vec<Metric> {
    let server_wall_ms = server_wall_ms(delta);
    vec![
        ("serve.layer_sum_ms", layer_sum_ms, "ms"),
        ("serve.server_wall_ms", server_wall_ms, "ms"),
        (
            "serve.unattributed_ms",
            mean(&client.latency_ms) - server_wall_ms,
            "ms",
        ),
        (
            "serve.reconcile_x",
            ratio(percentile(&client.latency_ms, 0.5), layer_sum_ms),
            "x",
        ),
        (
            "serve.tier_full",
            delta.series(r#"serve_tier_total{tier="full"}"#),
            "count",
        ),
        (
            "serve.tier_replay",
            delta.series(r#"serve_tier_total{tier="replay"}"#),
            "count",
        ),
        (
            "serve.tier_static",
            delta.series(r#"serve_tier_total{tier="static"}"#),
            "count",
        ),
        ("serve.sheds", delta.total("serve_sheds_total"), "count"),
    ]
}

/// Engine rows: per-job phase time, memo hit ratio, parallel efficiency.
fn engine_rows(
    build_ns: f64,
    simulate_ns: f64,
    jobs: f64,
    hits: f64,
    misses: f64,
    eff: f64,
) -> Vec<Metric> {
    vec![
        ("engine.phase_build_ms", ratio(build_ns, jobs) / 1e6, "ms"),
        (
            "engine.phase_simulate_ms",
            ratio(simulate_ns, jobs) / 1e6,
            "ms",
        ),
        ("engine.memo_hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("engine.parallel_eff", eff, "ratio"),
    ]
}

/// Rows from the layer pass and the commsim P-scaling pass.
fn layer_rows(l: &Layers, by_procs: &BTreeMap<usize, (usize, f64)>) -> Vec<Metric> {
    let us = |name: &str| l.mean_ns.get(name).copied().unwrap_or(0.0) / 1e3;
    let per_msg = |p: usize| {
        by_procs
            .get(&p)
            .map_or(0.0, |(m, ns)| ratio(*ns, *m as f64))
    };
    vec![
        ("serve.api.parse_us", us("serve.api.parse"), "us"),
        ("serve.api.gate_us", us("serve.api.gate"), "us"),
        ("engine.build_us", us("engine.build"), "us"),
        ("engine.run_us", us("engine.run"), "us"),
        ("lint.bounds_us", us("lint.bounds"), "us"),
        ("serve.api.render_us", us("serve.api.render"), "us"),
        (
            "engine.memo_net_us",
            us("engine.build") + us("core.simulate") - us("engine.run"),
            "us",
        ),
        ("core.simulate_us", us("core.simulate"), "us"),
        ("core.replay_us", us("core.replay"), "us"),
        ("core.resim_us", us("core.resim"), "us"),
        (
            "core.replay_step_share",
            ratio(l.replayed as f64, (l.replayed + l.resimulated) as f64),
            "ratio",
        ),
        ("commsim.msgs", l.msgs, "count"),
        (
            "commsim.ns_per_msg",
            ratio(us("commsim.simulate") * 1e3, l.msgs),
            "ns",
        ),
        ("commsim.ns_per_msg.p64", per_msg(64), "ns"),
        ("commsim.ns_per_msg.p256", per_msg(256), "ns"),
        ("commsim.ns_per_msg.p1024", per_msg(1024), "ns"),
    ]
}

/// The commsim P-scaling rows are always taken on the `scale-p` programs
/// of the run's seed (first variant), whatever the workload.
fn scale_commsim(seed: u64, spans: &mut Spans) -> Result<BTreeMap<usize, (usize, f64)>, String> {
    let specs = parse_all(&inputs::scale_batches(seed)[0])?;
    Ok(layers::commsim_by_procs(&specs, spans))
}

// ---------------------------------------------------------------------
// serve-predict

pub fn serve_predict(cfg: &Config) -> Result<Outcome, String> {
    let pool = inputs::serve_pool(cfg.seed);
    let expect = reference_totals(&pool)?;
    let (server, mut setup) = spawn_timed(&cfg.predsim, SETUP_SAMPLES)?;
    let stream = Mutex::new(inputs::ServeStream::new(cfg.seed));
    let next = || Some(stream.lock().expect("stream poisoned").next_index());
    let mut spans = Spans::new(cfg.trace);
    let mut report = Vec::new();

    let warm = drive(
        &server.addr,
        &pool,
        &expect,
        &next,
        Until::Count(WARMUP_REQUESTS),
        &mut spans,
        false,
    );
    if !cfg.trace {
        let before = server.metrics()?;
        let run = drive(
            &server.addr,
            &pool,
            &expect,
            &next,
            Until::run(cfg),
            &mut spans,
            false,
        );
        let delta = server.metrics()?.delta(&before);
        let rss = server.peak_rss_mb();
        drop(server);
        setup.extend(spawn_timed(&cfg.predsim, SETUP_SAMPLES)?.1);
        phase_report(&mut report, &warm, &[("measured", &run)]);
        let wall = server_wall_ms(&delta);
        report.push(format!(
            "serve.server_wall_ms {wall:.3} ms, serve.unattributed_ms {:.3} ms (client mean - server wall, /metrics deltas)",
            mean(&run.latency_ms) - wall
        ));
        return Ok(Outcome {
            attempted: run.counts.sent,
            failed: run.counts.failed,
            mismatches: Vec::new(),
            metrics: end_to_end(&run, median(&setup), rss),
            report,
            spans,
        });
    }

    let plain = drive(
        &server.addr,
        &pool,
        &expect,
        &next,
        Until::half(cfg),
        &mut spans,
        false,
    );
    let before = server.metrics()?;
    let traced = drive(
        &server.addr,
        &pool,
        &expect,
        &next,
        Until::half(cfg),
        &mut spans,
        true,
    );
    let delta = server.metrics()?.delta(&before);
    drop(server);
    phase_report(
        &mut report,
        &warm,
        &[("untraced", &plain), ("traced", &traced)],
    );

    // The layer pass weighs each distinct body by how often the traced
    // phase sent it.
    let mut weight: BTreeMap<usize, f64> = BTreeMap::new();
    for &i in &traced.sent {
        *weight.entry(i).or_default() += 1.0;
    }
    let jobs: Vec<(String, f64)> = weight.iter().map(|(&i, &w)| (pool[i].clone(), w)).collect();
    let layers = layers::layer_pass(&jobs, &mut spans)?;
    let by_procs = scale_commsim(cfg.seed, &mut spans)?;

    let mut metrics = layer_rows(&layers, &by_procs);
    metrics.extend(served_rows(&traced, &delta, layers.layer_sum_ns / 1e6));
    let busy_ns = delta.total("engine_job_wall_ns_sum");
    metrics.extend(engine_rows(
        delta.total("engine_phase_build_ns"),
        delta.total("engine_phase_simulate_ns"),
        delta.total("engine_jobs_total"),
        delta.series("engine_cache_hits"),
        delta.series("engine_cache_misses"),
        busy_ns / (traced.wall.as_nanos() as f64 * SERVE_WORKERS),
    ));
    metrics.push((
        "trace.overhead_x",
        ratio(mean(&traced.latency_ms), mean(&plain.latency_ms)),
        "x",
    ));
    Ok(Outcome {
        attempted: plain.counts.sent + traced.counts.sent,
        failed: plain.counts.failed + traced.counts.failed,
        mismatches: layers.mismatches,
        metrics,
        report,
        spans,
    })
}

// ---------------------------------------------------------------------
// sweep-paper and scale-p

/// An in-process workload: batches of job bodies, their parsed specs and
/// reference totals, and whether each operation re-times the best blocks.
struct Batches {
    seed: u64,
    bodies: Vec<Vec<String>>,
    specs: Vec<Vec<JobSpec>>,
    expect: Vec<Vec<i64>>,
    /// `sweep-paper` only: per layout, the reference best block and its
    /// totals on the five presets.
    retime: Option<Vec<(usize, Vec<i64>)>>,
}

/// Layouts of the sweep, by position in [`inputs::sweep_bodies`]: each
/// layout owns a contiguous half of the bodies.
fn layout_ranges(n: usize) -> [std::ops::Range<usize>; 2] {
    [0..n / 2, n / 2..n]
}

/// Index of the best standard-algorithm job of `range` by `total`
/// (lowest index wins ties).
fn best_standard(specs: &[JobSpec], totals: &[i64], range: std::ops::Range<usize>) -> usize {
    range
        .filter(|&i| matches!(specs[i].opts.algo, CommAlgo::Standard))
        .min_by_key(|&i| (totals[i], i))
        .expect("every layout has standard jobs")
}

/// Re-time job `best` on the five presets through one recording.
fn retime(spec: &JobSpec, spans: &mut Spans, root: Option<usize>, id: u64) -> Vec<i64> {
    let program = spec.source.build();
    let (_, recording) = spans.time("core.record", root, id, || {
        record_program(&program, &spec.opts)
    });
    inputs::PRESETS
        .iter()
        .map(|p| {
            let opts = layers::on_preset(&spec.opts, p, program.procs());
            let (prediction, _) = spans.time("core.replay", root, id, || {
                recording.predict(&program, &opts)
            });
            prediction.total.as_ps() as i64
        })
        .collect()
}

impl Batches {
    fn new(seed: u64, bodies: Vec<Vec<String>>, sweep: bool) -> Result<Batches, String> {
        let specs = bodies
            .iter()
            .map(|b| parse_all(b))
            .collect::<Result<Vec<_>, _>>()?;
        let expect = bodies
            .iter()
            .map(|b| reference_totals(b))
            .collect::<Result<Vec<_>, _>>()?;
        // The re-timing reference: full memo-off simulations.
        let retime = sweep.then(|| {
            layout_ranges(specs[0].len())
                .map(|r| {
                    let best = best_standard(&specs[0], &expect[0], r);
                    let spec = &specs[0][best];
                    let program = spec.source.build();
                    let totals = inputs::PRESETS
                        .iter()
                        .map(|p| {
                            let opts = layers::on_preset(&spec.opts, p, program.procs());
                            simulate_program(&program, &opts).total.as_ps() as i64
                        })
                        .collect();
                    (best, totals)
                })
                .to_vec()
        });
        Ok(Batches {
            seed,
            bodies,
            specs,
            expect,
            retime,
        })
    }

    /// One set-up as a user pays it: parse every input into specs and
    /// construct the engine.
    fn setup_once(&self) -> f64 {
        let t = Instant::now();
        let specs: Vec<_> = self.bodies.iter().map(|b| parse_all(b)).collect();
        let engine = Engine::new(EngineConfig::default());
        std::hint::black_box((specs, engine));
        t.elapsed().as_secs_f64()
    }

    /// Run operation `op`: batch variant `op mod variants`, submitted in
    /// a seeded order to a fresh engine; then, on `sweep-paper`, re-time
    /// the best block of each layout. Checks every total.
    fn op(&self, op: u64, spans: &mut Spans, phase: &mut Phase) {
        let v = op as usize % self.specs.len();
        let (specs, expect) = (&self.specs[v], &self.expect[v]);
        let order = inputs::submission_order(self.seed, op, specs.len());
        let batch: Vec<JobSpec> = order.iter().map(|&i| specs[i].clone()).collect();
        let id = request_ids(1);
        let t = Instant::now();
        let root = spans.open("op", None, id);
        let engine = Engine::new(EngineConfig::default());
        let results = spans.time("engine.run", root, id, || engine.run(&batch));
        let mut totals = vec![-1i64; specs.len()];
        for (r, &i) in results.iter().zip(&order) {
            if let Some((total, ..)) = r.outcome.totals() {
                totals[i] = total.as_ps() as i64;
            }
        }
        let mut errors: Vec<String> = (0..specs.len())
            .filter(|&i| totals[i] != expect[i])
            .map(|i| {
                format!(
                    "{}: total {} != reference {}",
                    self.bodies[v][i], totals[i], expect[i]
                )
            })
            .collect();
        let mut predictions = (specs.len() - errors.len()) as u64;
        if let Some(reference) = &self.retime {
            for (range, (ref_best, ref_totals)) in
                layout_ranges(specs.len()).into_iter().zip(reference)
            {
                let best = best_standard(specs, &totals, range);
                let got = retime(&specs[best], spans, root, id);
                if best != *ref_best || got != *ref_totals {
                    errors.push(format!(
                        "re-timing of {}: {got:?} != reference {ref_totals:?}",
                        self.bodies[v][best]
                    ));
                } else {
                    predictions += got.len() as u64;
                }
            }
        }
        spans.close(root);
        phase.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.counts.sent += 1;
        if errors.is_empty() {
            phase.counts.ok += 1;
        } else {
            phase.counts.failed += 1;
            phase.errors.extend(errors);
        }
        phase.predictions += predictions;
        let stats = engine.stats();
        phase.hits += stats.hits;
        phase.misses += stats.misses;
        let reg = engine.obs().registry();
        phase.build_ns += reg.counter("engine_phase_build_ns", "").get();
        phase.simulate_ns += reg.counter("engine_phase_simulate_ns", "").get();
        phase.jobs += specs.len() as u64;
    }

    /// Run operations from `*next_op` on until `until` says stop.
    fn drive(&self, next_op: &mut u64, until: Until, spans: &mut Spans) -> Phase {
        let start = Instant::now();
        let mut phase = Phase::default();
        loop {
            let n = phase.counts.sent as usize;
            let t = start.elapsed();
            let go = match until {
                Until::Count(c) => n < c,
                Until::Time(d, min) => t < MAX_PHASE && (t < d || n < min),
            };
            if !go {
                break;
            }
            self.op(*next_op, spans, &mut phase);
            *next_op += 1;
            if matches!(until, Until::Time(..)) {
                phase.setup.push(self.setup_once());
            }
        }
        phase.wall = start.elapsed();
        phase
    }
}

pub fn sweep_paper(cfg: &Config) -> Result<Outcome, String> {
    in_process(
        cfg,
        Batches::new(cfg.seed, vec![inputs::sweep_bodies()], true)?,
    )
}

pub fn scale_p(cfg: &Config) -> Result<Outcome, String> {
    in_process(
        cfg,
        Batches::new(cfg.seed, inputs::scale_batches(cfg.seed), false)?,
    )
}

fn in_process(cfg: &Config, w: Batches) -> Result<Outcome, String> {
    let mut setup: Vec<f64> = (0..SETUP_SAMPLES).map(|_| w.setup_once()).collect();
    let mut spans = Spans::new(false);
    let mut report = Vec::new();
    let mut next_op = 0u64;
    let warm = w.drive(&mut next_op, Until::Count(WARMUP_OPS), &mut spans);
    if !cfg.trace {
        let run = w.drive(&mut next_op, Until::run(cfg), &mut spans);
        setup.extend(&run.setup);
        phase_report(&mut report, &warm, &[("measured", &run)]);
        return Ok(Outcome {
            attempted: run.counts.sent,
            failed: run.counts.failed,
            mismatches: Vec::new(),
            metrics: end_to_end(
                &run,
                median(&setup),
                crate::http::peak_rss_mb("/proc/self/status"),
            ),
            report,
            spans,
        });
    }

    let plain = w.drive(&mut next_op, Until::half(cfg), &mut spans);
    let mut spans = Spans::new(true);
    let traced = w.drive(&mut next_op, Until::half(cfg), &mut spans);

    // Layers, on the first batch variant.
    let jobs: Vec<(String, f64)> = w.bodies[0].iter().map(|b| (b.clone(), 1.0)).collect();
    let layers = layers::layer_pass(&jobs, &mut spans)?;
    let by_procs = scale_commsim(cfg.seed, &mut spans)?;
    let eff = layers::parallel_efficiency(&w.specs[0]);

    // The same jobs served once each, for the serve reconciliation rows.
    let server = Server::spawn(&cfg.predsim)?;
    let cursor = AtomicUsize::new(0);
    let n = w.bodies[0].len();
    let next = || Some(cursor.fetch_add(1, Ordering::SeqCst)).filter(|&i| i < n);
    let before = server.metrics()?;
    let served = drive(
        &server.addr,
        &w.bodies[0],
        &w.expect[0],
        &next,
        Until::Count(n),
        &mut spans,
        true,
    );
    let delta = server.metrics()?.delta(&before);
    drop(server);
    phase_report(
        &mut report,
        &warm,
        &[
            ("untraced", &plain),
            ("traced", &traced),
            ("served", &served),
        ],
    );

    let mut metrics = layer_rows(&layers, &by_procs);
    metrics.extend(served_rows(&served, &delta, layers.layer_sum_ns / 1e6));
    metrics.extend(engine_rows(
        traced.build_ns as f64,
        traced.simulate_ns as f64,
        traced.jobs as f64,
        traced.hits as f64,
        traced.misses as f64,
        eff,
    ));
    metrics.push((
        "trace.overhead_x",
        ratio(mean(&traced.latency_ms), mean(&plain.latency_ms)),
        "x",
    ));
    Ok(Outcome {
        attempted: plain.counts.sent + traced.counts.sent + served.counts.sent,
        failed: plain.counts.failed + traced.counts.failed + served.counts.failed,
        mismatches: layers.mismatches,
        metrics,
        report,
        spans,
    })
}
