//! Property tests: the engine is a pure optimization.
//!
//! Whatever the worker count and whether the memo cache is on, a batch's
//! results must be bit-identical — same predicted times, same per-step
//! records, same per-processor step completions — to evaluating the same specs
//! sequentially with the direct simulator (which is what
//! `predsim_core::search::sweep` does).

use commsim::StepEnds;
use loggp::{presets, LogGpParams, Time};
use predsim_core::{
    search, simulate_request, DirectStepSimulator, Prediction, SimOptions, SimRequest, StepCall,
    StepSimulator,
};
use predsim_engine::{
    best_by_total, Engine, EngineConfig, EngineObs, JobSource, JobSpec, LayoutSpec, MemoCache,
    MemoStepSimulator,
};
use predsim_faults::{FaultPlan, FaultSpec};
use proptest::prelude::*;
use std::sync::Arc;

fn machine_for(idx: usize, procs: usize) -> LogGpParams {
    match idx % 5 {
        0 => presets::meiko_cs2(procs),
        1 => presets::intel_paragon(procs),
        2 => presets::myrinet_cluster(procs),
        3 => presets::ethernet_cluster(procs),
        _ => presets::ideal(procs),
    }
}

/// Decode one `(kind, param)` pair into a small GE / stencil / Cannon job
/// source — pure arithmetic so the whole grid derives from plain integers.
fn source_for(kind: usize, param: usize) -> JobSource {
    match kind % 3 {
        0 => {
            let n = [32, 48, 64][param % 3];
            let block = [8, 16][param % 2];
            let procs = 2 + param % 3;
            let layout = match param % 3 {
                0 => LayoutSpec::Diagonal(procs),
                1 => LayoutSpec::RowCyclic(procs),
                _ => LayoutSpec::ColCyclic(procs),
            };
            JobSource::Gauss { n, block, layout }
        }
        1 => JobSource::Stencil {
            n: 8 + param % 24,
            procs: 2 + param % 3,
            iters: 1 + param % 5,
            ps_per_flop: 200 + 100 * (param % 4) as u64,
        },
        _ => {
            let q = [2, 2, 4][param % 3];
            JobSource::Cannon {
                n: q * (4 + param % 5),
                q,
            }
        }
    }
}

fn specs_for(kinds: &[(usize, usize)], mach: usize, worst: bool) -> Vec<JobSpec> {
    kinds
        .iter()
        .enumerate()
        .map(|(i, &(kind, param))| {
            let source = source_for(kind, param);
            let mut opts =
                SimOptions::new(commsim::SimConfig::new(machine_for(mach, source.procs())));
            if worst {
                opts = opts.worst_case();
            }
            JobSpec::new(format!("job{i}"), source, opts)
        })
        .collect()
}

fn assert_predictions_identical(a: &Prediction, b: &Prediction, label: &str) {
    assert_eq!(a.total, b.total, "{label}: total");
    assert_eq!(a.comp_time, b.comp_time, "{label}: comp");
    assert_eq!(a.comm_time, b.comm_time, "{label}: comm");
    assert_eq!(a.per_proc_comp, b.per_proc_comp, "{label}: per-proc comp");
    assert_eq!(a.per_proc_comm, b.per_proc_comm, "{label}: per-proc comm");
    assert_eq!(
        a.per_proc_finish, b.per_proc_finish,
        "{label}: per-proc finish"
    );
    assert_eq!(a.forced_sends, b.forced_sends, "{label}: forced sends");
    assert_eq!(a.steps.len(), b.steps.len(), "{label}: step count");
    for (x, y) in a.steps.iter().zip(&b.steps) {
        assert_eq!(x.label, y.label, "{label}: step label");
        assert_eq!(
            (x.start, x.comp_end, x.comm_end),
            (y.start, y.comp_end, y.comm_end),
            "{label}: step '{}' times",
            x.label
        );
    }
}

/// A [`StepSimulator`] wrapper that also records what every step
/// committed — each processor's last operation and last receive, and the
/// forced sends — the "same schedule per step" half of the bit-identical
/// claim.
struct Counting<S> {
    inner: S,
    steps: Vec<StepEnds>,
    finishes: Vec<Time>,
}

impl<S> Counting<S> {
    fn new(inner: S) -> Self {
        Counting {
            inner,
            steps: Vec::new(),
            finishes: Vec::new(),
        }
    }
}

impl<S: StepSimulator> StepSimulator for Counting<S> {
    fn simulate_step(&mut self, call: &StepCall<'_>, ends: &mut StepEnds) {
        self.inner.simulate_step(call, ends);
        self.finishes
            .push(ends.comm_done.iter().copied().max().unwrap_or(Time::ZERO));
        self.steps.push(ends.clone());
    }
}

/// [`predsim_core::simulate_program`] on a caller-supplied backend.
fn simulate_on(
    program: &predsim_core::Program,
    opts: &SimOptions,
    backend: &mut dyn StepSimulator,
) -> Prediction {
    simulate_request(program, opts, SimRequest::default().with_backend(backend)).prediction
}

fn same_steps(a: &[StepEnds], b: &[StepEnds]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.comm_done == y.comm_done
                && x.last_recv_done == y.last_recv_done
                && x.forced_sends == y.forced_sends
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// N workers, with and without memo, reproduce the sequential direct
    /// path exactly, and pick the same optimum `search::sweep` picks.
    #[test]
    fn engine_is_bit_identical_to_sequential_sweep(
        (kinds, mach, jobs, worst) in (
            proptest::collection::vec((0usize..3, 0usize..32), 1..6),
            0usize..5,
            2usize..5,
            proptest::bool::ANY,
        )
    ) {
        let specs = specs_for(&kinds, mach, worst);

        // The reference: one thread, no memo — exactly what a plain loop
        // over `simulate_program` computes.
        let baseline = Engine::new(EngineConfig::default().with_jobs(1).with_memo(false)).run(&specs);

        for memo in [false, true] {
            let engine = Engine::new(EngineConfig::default().with_jobs(jobs).with_memo(memo));
            let results = engine.run(&specs);
            prop_assert_eq!(results.len(), baseline.len());
            for (r, b) in results.iter().zip(&baseline) {
                prop_assert_eq!(r.index, b.index);
                prop_assert_eq!(&r.label, &b.label);
                assert_predictions_identical(
                    r.prediction(),
                    b.prediction(),
                    &format!("jobs={jobs} memo={memo} {}", r.label),
                );
            }
        }

        // Optimum selection agrees with the sequential search primitive.
        let totals: Vec<Time> = baseline.iter().map(|r| r.prediction().total).collect();
        let idx: Vec<usize> = (0..totals.len()).collect();
        let sweep = search::sweep(&idx, |i| totals[i]);
        let engine_best = best_by_total(&baseline).unwrap();
        prop_assert_eq!(sweep.best, engine_best);
        prop_assert_eq!(sweep.best_time, baseline[engine_best].prediction().total);
    }

    /// The memoizing step simulator commits the same schedule ends (every
    /// processor's completion and last receive, forced sends, per-step
    /// finish times) as the direct one, even when many lookups hit the
    /// cache.
    #[test]
    fn memo_preserves_step_ends(
        (kind, param, mach, worst) in (0usize..3, 0usize..64, 0usize..5, proptest::bool::ANY)
    ) {
        let source = source_for(kind, param);
        let mut opts = SimOptions::new(commsim::SimConfig::new(machine_for(mach, source.procs())));
        if worst {
            opts = opts.worst_case();
        }
        let program = source.build();

        let mut direct = Counting::new(DirectStepSimulator::new());
        let direct_pred = simulate_on(&program, &opts, &mut direct);

        let cache = MemoCache::new(4, 1024);
        let mut memo = Counting::new(MemoStepSimulator::new(&cache));
        let memo_pred = simulate_on(&program, &opts, &mut memo);

        assert_predictions_identical(&direct_pred, &memo_pred, "memo vs direct");
        prop_assert!(same_steps(&direct.steps, &memo.steps), "per-step schedule ends differ");
        prop_assert_eq!(direct.finishes, memo.finishes, "per-step finish times differ");

        // Re-running the same program is answered largely from the cache
        // and still identical.
        let mut warm = Counting::new(MemoStepSimulator::new(&cache));
        let warm_pred = simulate_on(&program, &opts, &mut warm);
        assert_predictions_identical(&direct_pred, &warm_pred, "warm memo vs direct");
        prop_assert!(same_steps(&direct.steps, &warm.steps));
        let stats = cache.stats();
        prop_assert!(stats.hits >= stats.misses, "second run must hit: {:?}", stats);
    }

    /// Tracing and metrics are purely observational: an engine with a
    /// sink and a registry attached returns bit-identical results to the
    /// bare sequential engine, whatever the worker count, and traces
    /// every job exactly once.
    #[test]
    fn observability_is_bit_identical(
        (kinds, mach, jobs, worst) in (
            proptest::collection::vec((0usize..3, 0usize..32), 1..6),
            0usize..5,
            1usize..5,
            proptest::bool::ANY,
        )
    ) {
        let specs = specs_for(&kinds, mach, worst);
        let baseline =
            Engine::new(EngineConfig::default().with_jobs(1).with_memo(false)).run(&specs);

        let sink = Arc::new(predsim_obs::MemorySink::new());
        let obs = EngineObs::new().with_sink(sink.clone());
        let engine = Engine::with_obs(EngineConfig::default().with_jobs(jobs), obs);
        let report = engine.run_report(&specs);

        prop_assert_eq!(report.results.len(), baseline.len());
        for (r, b) in report.results.iter().zip(&baseline) {
            prop_assert_eq!(r.index, b.index);
            assert_predictions_identical(
                r.prediction(),
                b.prediction(),
                &format!("obs-on jobs={jobs} {}", r.label),
            );
        }

        let events = sink.events();
        let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
        prop_assert_eq!(count("job_start"), specs.len());
        prop_assert_eq!(count("job_finish"), specs.len());
        prop_assert_eq!(count("worker_assign"), specs.len());
        // Memo events account for every cache lookup the run made.
        prop_assert_eq!(
            (count("memo_hit") as u64, count("memo_miss") as u64),
            (report.cache.hits, report.cache.misses)
        );
        prop_assert_eq!(
            report.metrics.scalar("engine_jobs_total", &[]),
            Some(specs.len() as u64)
        );
    }

    /// Fault injection is deterministic across worker counts: the same
    /// specs under the same seeded plan produce bit-identical outcomes
    /// with `--jobs 1` and `--jobs N`, and a zero-rate plan reproduces
    /// the fault-free batch exactly.
    #[test]
    fn faulted_batches_are_identical_across_worker_counts(
        (kinds, mach, jobs, drop_ppm, seed) in (
            proptest::collection::vec((0usize..3, 0usize..32), 1..5),
            0usize..5,
            2usize..5,
            prop_oneof![Just(0u32), 1u32..400_000],
            any::<u64>(),
        )
    ) {
        let plan = FaultPlan::new(
            FaultSpec {
                drop_ppm,
                max_attempts: 4,
                ..FaultSpec::default()
            },
            seed,
        );
        let specs: Vec<JobSpec> = specs_for(&kinds, mach, false)
            .into_iter()
            .map(|s| s.with_faults(plan.clone()))
            .collect();

        let sequential = Engine::new(EngineConfig::default().with_jobs(1)).run(&specs);
        let parallel = Engine::new(EngineConfig::default().with_jobs(jobs)).run(&specs);
        prop_assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            prop_assert_eq!(s.index, p.index);
            prop_assert_eq!(&s.outcome, &p.outcome, "jobs={} {}", jobs, s.label);
        }

        if drop_ppm == 0 {
            let clean =
                Engine::new(EngineConfig::default().with_jobs(1)).run(&specs_for(&kinds, mach, false));
            for (s, c) in sequential.iter().zip(&clean) {
                assert_predictions_identical(
                    s.prediction(),
                    c.prediction(),
                    &format!("zero plan vs clean {}", s.label),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Static bounds: simulation-free intervals bracket every engine result, and
// the hi-ranked dispatch order stays a pure optimization.
// ---------------------------------------------------------------------------

#[test]
fn static_bounds_bracket_engine_results() {
    let kinds: Vec<(usize, usize)> = (0..9).map(|i| (i % 3, i * 7)).collect();
    for mach in 0..5 {
        for worst in [false, true] {
            let specs = specs_for(&kinds, mach, worst);
            let results = Engine::new(EngineConfig::default().with_jobs(3)).run(&specs);
            for (spec, result) in specs.iter().zip(&results) {
                let bounds = predsim_engine::static_bounds(spec)
                    .unwrap_or_else(|| panic!("{}: no bounds for a clean spec", spec.label));
                let total = result.prediction().total;
                assert!(
                    bounds.lo <= total && total <= bounds.hi,
                    "{} (mach {mach}, worst {worst}): {} outside [{}, {}]",
                    spec.label,
                    total,
                    bounds.lo,
                    bounds.hi
                );
            }
        }
    }
}

#[test]
fn static_bounds_are_unavailable_for_faulted_and_infeasible_jobs() {
    let opts = SimOptions::new(commsim::SimConfig::new(presets::meiko_cs2(4)));
    let clean = JobSpec::new(
        "clean",
        JobSource::Stencil {
            n: 32,
            procs: 4,
            iters: 2,
            ps_per_flop: 500,
        },
        opts,
    );
    assert!(predsim_engine::static_bounds(&clean).is_some());

    let plan = FaultPlan::new(
        FaultSpec {
            drop_ppm: 1000,
            ..FaultSpec::default()
        },
        7,
    );
    assert!(predsim_engine::static_bounds(&clean.clone().with_faults(plan)).is_none());

    let infeasible = JobSpec::new(
        "bad",
        JobSource::Gauss {
            n: 10,
            block: 24,
            layout: LayoutSpec::Diagonal(4),
        },
        opts,
    );
    assert!(predsim_engine::static_bounds(&infeasible).is_none());
}

/// The ranked dispatch path (workers > 1) must produce results identical
/// to the sequential path even when the batch mixes clean, faulted and
/// wildly different-sized jobs — ranking reorders only the work queue.
#[test]
fn ranked_dispatch_is_bit_identical_to_sequential() {
    let plan = FaultPlan::new(
        FaultSpec {
            drop_ppm: 0,
            ..FaultSpec::default()
        },
        3,
    );
    let mut specs = Vec::new();
    for (i, (kind, param)) in [(0usize, 5usize), (1, 20), (2, 9), (1, 3), (0, 16)]
        .iter()
        .enumerate()
    {
        let source = source_for(*kind, *param);
        let procs = source.build().procs();
        let opts = SimOptions::new(commsim::SimConfig::new(machine_for(i, procs)));
        let mut spec = JobSpec::new(format!("mix{i}"), source, opts);
        if i == 2 {
            spec = spec.with_faults(plan.clone());
        }
        specs.push(spec);
    }
    let sequential = Engine::new(EngineConfig::default().with_jobs(1)).run(&specs);
    let ranked = Engine::new(EngineConfig::default().with_jobs(4)).run(&specs);
    assert_eq!(sequential.len(), ranked.len());
    for (s, r) in sequential.iter().zip(&ranked) {
        assert_eq!(s.index, r.index);
        assert_eq!(&s.outcome, &r.outcome, "{}", s.label);
    }
}
