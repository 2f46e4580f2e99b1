//! Wiring a [`FaultPlan`] into the whole-program simulation.
//!
//! A [`FaultPlan`] is a [`FaultHook`]: the whole-program fold asks it for
//! every computation charge (transient slowdowns and fail-stop outages),
//! and the communication algorithms ask it — through a
//! [`StepFaultView`](predsim_core::StepFaultView) — how often each message
//! is dropped. A faulted run is therefore an ordinary
//! [`predsim_core::simulate_request`] with
//! [`SimRequest::with_faults`](predsim_core::SimRequest::with_faults).

use crate::plan::FaultPlan;
use commsim::Message;
use loggp::Time;
use predsim_core::FaultHook;
use predsim_obs::{TraceEvent, TraceSink};

impl FaultHook for FaultPlan {
    fn comp_charge(
        &self,
        step: usize,
        proc: usize,
        base: Time,
        sink: Option<&dyn TraceSink>,
    ) -> Time {
        let step = step as u64;
        let mut charge = base;
        if let Some(pct) = self.slow_factor(step, proc) {
            // Integer slowdown: extra = base · (pct − 100) / 100, widened so
            // factor × picoseconds cannot overflow.
            let extra_wide = (u128::from(base.as_ps()) * u128::from(pct - 100)) / 100;
            let extra = Time::from_ps(extra_wide.min(u128::from(u64::MAX)) as u64);
            if extra > Time::ZERO {
                charge = charge.saturating_add(extra);
                if let Some(s) = sink {
                    s.emit(&TraceEvent::Slowdown {
                        step,
                        proc,
                        factor_pct: u64::from(pct),
                        base_ps: base.as_ps(),
                        extra_ps: extra.as_ps(),
                    });
                }
            }
        }
        if let Some(outage) = self.outage(step, proc) {
            // The processor is silent for the outage, then rejoins and works
            // through everything it owes — the same schedule as serving its
            // queued receives after a restart.
            charge = charge.saturating_add(outage);
            if let Some(s) = sink {
                s.emit(&TraceEvent::Fail {
                    step,
                    proc,
                    outage_ps: outage.as_ps(),
                });
                s.emit(&TraceEvent::Restart { step, proc });
            }
        }
        charge
    }

    fn attempts(&self, step: usize, msg: &Message) -> u32 {
        FaultPlan::attempts(self, step as u64, msg.id as u64)
    }

    fn rto(&self, attempt: u32) -> Time {
        FaultPlan::rto(self, attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultSpec;
    use commsim::{CommPattern, SimConfig};
    use loggp::presets;
    use predsim_core::{
        simulate_program, simulate_request, CommAlgo, Prediction, Program, SimBudget, SimHalt,
        SimOptions, SimRequest, Step,
    };
    use predsim_obs::MemorySink;

    fn simulate_faulted(
        prog: &Program,
        opts: &SimOptions,
        plan: &FaultPlan,
        sink: Option<&dyn TraceSink>,
    ) -> Prediction {
        let req = SimRequest {
            sink,
            ..SimRequest::default().with_faults(plan)
        };
        simulate_request(prog, opts, req).prediction
    }

    fn plan(text: &str, seed: u64) -> FaultPlan {
        FaultPlan::new(FaultSpec::parse(text).unwrap(), seed)
    }

    fn ring_program(procs: usize, steps: usize) -> Program {
        let mut prog = Program::new(procs);
        for s in 0..steps {
            let mut c = CommPattern::new(procs);
            for p in 0..procs {
                c.add(p, (p + 1) % procs, 256);
            }
            prog.push(
                Step::new(format!("ring-{s}"))
                    .with_comp(vec![Time::from_us(10.0); procs])
                    .with_comm(c),
            );
        }
        prog
    }

    fn opts(procs: usize, algo: CommAlgo) -> SimOptions {
        let mut o = SimOptions::new(SimConfig::new(presets::meiko_cs2(procs)));
        o.algo = algo;
        o
    }

    #[test]
    fn zero_plan_reproduces_the_faultless_prediction_exactly() {
        let prog = ring_program(4, 3);
        for algo in [CommAlgo::Standard, CommAlgo::WorstCase] {
            let o = opts(4, algo);
            let clean = simulate_program(&prog, &o);
            let faulted = simulate_faulted(&prog, &o, &plan("none", 123), None);
            assert_eq!(faulted, clean);
        }
    }

    #[test]
    fn drops_cost_time_and_are_traced() {
        let prog = ring_program(4, 3);
        let o = opts(4, CommAlgo::Standard);
        let clean = simulate_program(&prog, &o);
        let sink = MemorySink::new();
        let faulted = simulate_faulted(&prog, &o, &plan("drop:0.9:50:6", 3), Some(&sink));
        assert!(faulted.total > clean.total);
        let kinds: Vec<&str> = sink.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"drop"), "{kinds:?}");
        assert!(kinds.contains(&"retransmit"), "{kinds:?}");
        assert!(kinds.contains(&"front"), "fronts still emitted: {kinds:?}");
    }

    #[test]
    fn slowdown_multiplies_the_compute_charge() {
        let mut prog = Program::new(2);
        prog.push(Step::new("work").with_comp(vec![Time::from_us(100.0); 2]));
        let o = opts(2, CommAlgo::Standard);
        let sink = MemorySink::new();
        let faulted = simulate_faulted(&prog, &o, &plan("slow:1:2.5", 0), Some(&sink));
        assert_eq!(faulted.total, Time::from_us(250.0));
        assert_eq!(faulted.comp_time, Time::from_us(250.0));
        let slows = sink
            .events()
            .iter()
            .filter(|e| e.kind() == "slowdown")
            .count();
        assert_eq!(slows, 2, "one slowdown event per processor");
    }

    #[test]
    fn fail_stop_charges_the_outage_and_emits_fail_restart() {
        let mut prog = Program::new(2);
        prog.push(Step::new("work").with_comp(vec![Time::from_us(10.0); 2]));
        let o = opts(2, CommAlgo::Standard);
        let sink = MemorySink::new();
        let faulted = simulate_faulted(&prog, &o, &plan("fail:1@0+500", 0), Some(&sink));
        assert_eq!(faulted.total, Time::from_us(510.0));
        let kinds: Vec<&str> = sink.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"fail"), "{kinds:?}");
        assert!(kinds.contains(&"restart"), "{kinds:?}");
    }

    #[test]
    fn worst_case_stays_above_standard_under_faults() {
        let prog = ring_program(4, 4);
        let p = plan("drop:0.5:100:6,slow:0.3:2,fail:2@1+200", 11);
        let std_pred = simulate_faulted(&prog, &opts(4, CommAlgo::Standard), &p, None);
        let wc_pred = simulate_faulted(&prog, &opts(4, CommAlgo::WorstCase), &p, None);
        assert!(
            wc_pred.total >= std_pred.total,
            "wc {} < std {}",
            wc_pred.total,
            std_pred.total
        );
    }

    #[test]
    fn budgets_cut_faulted_runs_short() {
        let prog = ring_program(4, 5);
        let o = opts(4, CommAlgo::Standard);
        let plan = plan("drop:0.5", 1);
        let run = simulate_request(
            &prog,
            &o,
            SimRequest {
                budget: SimBudget::steps(2),
                ..SimRequest::default().with_faults(&plan)
            },
        );
        assert_eq!(run.halt, SimHalt::StepBudget { at_step: 2 });
        assert_eq!(run.prediction.steps.len(), 2);
    }
}
