//! Integration tests for the trace hooks and the metrics bridge: the
//! traced simulators must (a) change nothing about the computed timeline,
//! (b) emit a complete, consistent event stream, and (c) agree with the
//! figures the `stats`/`gantt` render paths report.

use commsim::observe::StepTracer;
use commsim::{
    patterns, standard, stats, worstcase, CommAlgo, CommPattern, SimConfig, SimResult, SimScratch,
    StepRequest,
};
use loggp::{presets, Time};
use predsim_obs::{HorizonProfile, MemorySink, Registry, TraceEvent};

fn meiko_cfg(procs: usize) -> SimConfig {
    SimConfig::new(presets::meiko_cs2(procs))
}

fn simulate_traced(
    algo: CommAlgo,
    pattern: &CommPattern,
    cfg: &SimConfig,
    ready: &[Time],
    tracer: &StepTracer<'_>,
) -> SimResult {
    algo.simulate(
        StepRequest::new(pattern, cfg, ready).with_tracer(tracer),
        &mut SimScratch::new(),
    )
}

#[test]
fn tracing_does_not_change_the_standard_timeline() {
    let pattern = patterns::figure3();
    let cfg = meiko_cfg(pattern.procs());
    let ready = vec![Time::ZERO; pattern.procs()];
    let plain = standard::simulate(&pattern, &cfg);
    let sink = MemorySink::new();
    let tracer = StepTracer::new(&sink, 0);
    let traced = simulate_traced(CommAlgo::Standard, &pattern, &cfg, &ready, &tracer);
    assert_eq!(plain.timeline.events(), traced.timeline.events());
    assert_eq!(plain.finish, traced.finish);
    assert!(!sink.is_empty());
}

#[test]
fn tracing_does_not_change_the_worstcase_timeline() {
    let pattern = patterns::ring(6, 256);
    let cfg = meiko_cfg(6).with_seed(7);
    let ready = vec![Time::ZERO; 6];
    let plain = worstcase::simulate(&pattern, &cfg);
    let sink = MemorySink::new();
    let tracer = StepTracer::new(&sink, 3);
    let traced = simulate_traced(CommAlgo::WorstCase, &pattern, &cfg, &ready, &tracer);
    assert_eq!(plain.timeline.events(), traced.timeline.events());
    assert_eq!(plain.forced_sends, traced.forced_sends);
    // The cycle's deadlock-breaking transmissions are flagged in the trace.
    let forced = sink
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Send { forced: true, .. }))
        .count();
    assert_eq!(forced, traced.forced_sends);
}

#[test]
fn trace_covers_every_network_message() {
    let pattern = patterns::figure3();
    let cfg = meiko_cfg(pattern.procs());
    let ready = vec![Time::ZERO; pattern.procs()];
    let sink = MemorySink::new();
    let tracer = StepTracer::new(&sink, 0);
    let r = simulate_traced(CommAlgo::Standard, &pattern, &cfg, &ready, &tracer);
    let events = sink.events();
    let sends = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Send { .. }))
        .count();
    let recvs = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Recv { .. }))
        .count();
    let network = pattern.network_messages().count();
    assert_eq!(sends, network);
    assert_eq!(recvs, network);
    assert_eq!(r.timeline.len(), sends + recvs);
    // Every event's times agree with the committed timeline.
    for ev in &events {
        if let TraceEvent::Recv {
            arrival_ps,
            start_ps,
            end_ps,
            ..
        } = ev
        {
            assert!(start_ps >= arrival_ps, "receive before arrival: {ev:?}");
            assert!(end_ps > start_ps);
        }
    }
}

#[test]
fn gap_stalls_match_stats_queueing() {
    // gather(6, 0, 100): all senders hit P0 at once, so all but the first
    // message queue. The trace's GapStall events and the analytical
    // `stats::analyze` queueing decomposition must agree exactly.
    let pattern = patterns::gather(6, 0, 100);
    let cfg = meiko_cfg(6);
    let ready = vec![Time::ZERO; 6];
    let sink = MemorySink::new();
    let tracer = StepTracer::new(&sink, 0);
    let r = simulate_traced(CommAlgo::Standard, &pattern, &cfg, &ready, &tracer);
    let st = stats::analyze(&pattern, &cfg, &r.timeline);
    let stalled_total: u64 = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::GapStall { waited_ps, .. } => Some(*waited_ps),
            _ => None,
        })
        .sum();
    assert_eq!(Time::from_ps(stalled_total), st.total_queueing());
    assert!(stalled_total > 0);
}

#[test]
fn registry_figures_match_stats_and_gantt_on_figure3() {
    let pattern = patterns::figure3();
    let cfg = meiko_cfg(pattern.procs());
    let r = standard::simulate(&pattern, &cfg);
    let st = stats::analyze(&pattern, &cfg, &r.timeline);

    let registry = Registry::new();
    stats::record_metrics(&st, &registry);
    let snap = registry.snapshot();

    for ps in &st.procs {
        let proc = ps.proc.to_string();
        let labels: &[(&str, &str)] = &[("proc", &proc)];
        assert_eq!(
            snap.scalar("predsim_proc_busy_ps_total", labels),
            Some(ps.busy.as_ps()),
            "busy mismatch for P{proc}"
        );
        assert_eq!(
            snap.scalar("predsim_proc_idle_ps_total", labels),
            Some(ps.idle.as_ps()),
            "idle mismatch for P{proc}"
        );
        assert_eq!(
            snap.scalar("predsim_proc_sends_total", labels),
            Some(ps.sends as u64)
        );
        assert_eq!(
            snap.scalar("predsim_proc_recvs_total", labels),
            Some(ps.recvs as u64)
        );
        // The registry's busy figure is the same quantity the timeline
        // accessor (used by the gantt render path) reports.
        assert_eq!(
            snap.scalar("predsim_proc_busy_ps_total", labels),
            Some(r.timeline.busy_time(ps.proc).as_ps())
        );
    }
    assert_eq!(snap.scalar("predsim_steps_simulated_total", &[]), Some(1));
    assert_eq!(
        snap.scalar("predsim_step_completion_ps_max", &[]),
        Some(st.completion.as_ps())
    );
    assert_eq!(
        snap.scalar("predsim_queueing_ps_total", &[]),
        Some(st.total_queueing().as_ps())
    );
    assert_eq!(
        snap.histogram_totals("predsim_step_completion_ps"),
        Some((1, st.completion.as_ps()))
    );

    // Render paths still work and reflect the same completion time.
    let chart = commsim::gantt::render(&r.timeline, 72);
    assert!(
        chart.contains(&format!("completion: {}", st.completion)),
        "{chart}"
    );
    let prom = registry.render_prometheus();
    assert!(
        prom.contains("# TYPE predsim_proc_busy_ps_total counter"),
        "{prom}"
    );
}

#[test]
fn record_metrics_accumulates_across_steps() {
    let mut pattern = CommPattern::new(2);
    pattern.add(0, 1, 500);
    let cfg = meiko_cfg(2);
    let r = standard::simulate(&pattern, &cfg);
    let st = stats::analyze(&pattern, &cfg, &r.timeline);
    let registry = Registry::new();
    stats::record_metrics(&st, &registry);
    stats::record_metrics(&st, &registry);
    let snap = registry.snapshot();
    assert_eq!(snap.scalar("predsim_steps_simulated_total", &[]), Some(2));
    assert_eq!(
        snap.scalar("predsim_proc_busy_ps_total", &[("proc", "0")]),
        Some(2 * st.procs[0].busy.as_ps())
    );
}

#[test]
fn horizon_profile_from_manual_fronts() {
    // Front events are emitted by the core whole-program simulator; here we
    // check the aggregation downstream of commsim's per-proc completions.
    let pattern = patterns::figure3();
    let cfg = meiko_cfg(pattern.procs());
    let r = standard::simulate(&pattern, &cfg);
    let fronts: Vec<TraceEvent> = r
        .timeline
        .per_proc_completion()
        .into_iter()
        .enumerate()
        .map(|(proc, t)| TraceEvent::Front {
            step: 0,
            proc,
            ps: t.as_ps(),
        })
        .collect();
    let profile = HorizonProfile::from_events(&fronts);
    assert_eq!(profile.steps.len(), 1);
    assert_eq!(profile.steps[0].max, r.finish);
    assert!(profile.steps[0].spread > Time::ZERO);
}
