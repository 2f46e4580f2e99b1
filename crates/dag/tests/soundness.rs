//! Lowering soundness, verified against the simulator's own timeline.
//!
//! For random DAGs × schedulers × machines (uniform and heterogeneous):
//!
//! * the lowered program is lint-clean — no `PS01xx` well-formedness or
//!   `PS0201` deadlock *errors*;
//! * no task's step starts before every predecessor's edge message has
//!   arrived: for every cross-processor edge `u → v`, the simulator's
//!   trace shows the receive on `proc(v)` completing no later than the
//!   virtual-time front of `proc(v)` after step `level(v) - 1` — i.e.
//!   before `v`'s computation can begin.

use loggp::{presets, LinkOverride, MachineSpec};
use predsim_core::{simulate_program, simulate_request, SimOptions, SimRequest};
use predsim_dag::{generate, lower, SchedulerKind};
use predsim_lint::{check_program, LintOptions, Severity};
use predsim_obs::{MemorySink, TraceEvent};
use proptest::prelude::*;

fn machine_for(procs: usize, hetero: u8) -> MachineSpec {
    let base = presets::meiko_cs2(procs);
    let mut spec = MachineSpec::uniform(base);
    if hetero % 2 == 1 {
        spec.speed_permille = (0..procs)
            .map(|p| 500 + 250 * ((p as u64 + hetero as u64) % 7))
            .collect();
    }
    if hetero % 3 == 2 && procs >= 2 {
        spec.links = vec![LinkOverride {
            src: 0,
            dst: procs - 1,
            latency: base.latency.saturating_mul(3),
            overhead: base.overhead,
            gap: base.gap,
            gap_per_byte: base.gap_per_byte,
        }];
    }
    spec.validate().expect("generated machine is valid");
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lowered_dags_are_lint_clean_and_timeline_sound(
        seed in 0u64..1000,
        layers in 1usize..6,
        width in 1usize..6,
        procs in 1usize..6,
        hetero in 0u8..6,
        kind_idx in 0usize..3,
    ) {
        let dag = generate::random_layered(seed, layers, width, 20_000, 4096);
        dag.validate().expect("generator output validates");
        let machine = machine_for(procs, hetero);
        let kind = SchedulerKind::ALL[kind_idx];
        let lowered = lower(&dag, &kind.place(&dag, &machine), &machine);

        // Dependency edges always cross a step boundary.
        for e in dag.edges() {
            prop_assert!(lowered.level_of[e.src] < lowered.level_of[e.dst]);
        }

        // Lint-clean: no Error-severity diagnostics of any kind.
        let report = check_program(
            &lowered.program,
            &LintOptions {
                params: Some(machine.base),
                ..LintOptions::default()
            },
        );
        for d in report.diagnostics() {
            prop_assert!(
                d.severity != Severity::Error,
                "lint error on lowered program: {}",
                d.render()
            );
        }

        // Timeline: replay under the tracing simulator and check every
        // cross-processor edge's receive against the destination
        // processor's virtual-time front before its task's step.
        let opts = SimOptions::new(commsim::SimConfig::new(machine.base));
        let sink = MemorySink::new();
        let traced = simulate_request(&lowered.program, &opts, SimRequest::default().with_sink(&sink))
            .prediction;
        let untraced = simulate_program(&lowered.program, &opts);
        prop_assert_eq!(traced.total, untraced.total, "tracing is bit-identical");

        let events = sink.events();
        let mut fronts = std::collections::HashMap::new();
        for ev in &events {
            if let TraceEvent::Front { step, proc, ps } = ev {
                fronts.insert((*step, *proc), *ps);
            }
        }
        for e in dag.edges() {
            let (src_proc, dst_proc) =
                (lowered.placement.proc_of[e.src], lowered.placement.proc_of[e.dst]);
            if src_proc == dst_proc {
                continue;
            }
            let msg_step = lowered.level_of[e.src] as u64;
            let dst_level = lowered.level_of[e.dst] as u64;
            // The latest matching receive in the message's step bounds
            // when this edge's payload was fully drained.
            let recv_end = events
                .iter()
                .filter_map(|ev| match ev {
                    TraceEvent::Recv { step, proc, peer, bytes, end_ps, .. }
                        if *step == msg_step
                            && *proc == dst_proc
                            && *peer == src_proc
                            && *bytes == e.bytes =>
                    {
                        Some(*end_ps)
                    }
                    _ => None,
                })
                .max();
            let recv_end = recv_end.expect("cross-processor edge produced a receive");
            let front = *fronts
                .get(&(dst_level - 1, dst_proc))
                .expect("front recorded for every proc and step");
            prop_assert!(
                recv_end <= front,
                "edge {} -> {} ({} bytes) arrives at {} after proc {}'s front {} \
                 before step {} ({:?}, {} procs)",
                e.src, e.dst, e.bytes, recv_end, dst_proc, front, dst_level, kind, procs
            );
        }
    }
}
