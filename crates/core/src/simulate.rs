//! The whole-program simulator: alternate computation charges with
//! LogGP-simulated communication steps.

use crate::program::Program;
use commsim::faults::StepFaults;
use commsim::{
    CommPattern, Message, SimConfig, SimResult, SimScratch, StepEnds, StepRequest, StepTracer,
};
use loggp::Time;
use predsim_obs::{TraceEvent, TraceSink};

pub use commsim::CommAlgo;

/// How processors synchronize between steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Synchronization {
    /// A processor starts the next step as soon as *it* has finished its
    /// own communication operations of the current one (the systolic
    /// behaviour of the paper's Split-C programs). Default.
    PerProcessor,
    /// All processors wait for the whole step to complete (BSP-style
    /// superstep barrier); useful as an ablation and for BSP comparisons.
    Barrier,
}

/// Whether communication may overlap the next computation phase — the
/// paper's class forbids it ("non-overlapping"); `RecvOnly` implements the
/// §7 future-work extension approximately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overlap {
    /// No overlap: next computation starts after the processor's last
    /// communication operation of the step (the paper's model).
    None,
    /// A processor may resume computing after its last *receive*; trailing
    /// sends are charged to the communication section but do not delay the
    /// next computation phase. Approximation: the send overhead is assumed
    /// to be hidden under the following computation.
    RecvOnly,
}

/// Options of the whole-program simulation.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Machine model + seeds for the communication algorithms.
    pub cfg: SimConfig,
    /// Communication algorithm.
    pub algo: CommAlgo,
    /// Step synchronization.
    pub sync: Synchronization,
    /// Communication/computation overlap extension.
    pub overlap: Overlap,
}

impl SimOptions {
    /// Paper defaults: standard algorithm, per-processor chaining, no
    /// overlap.
    pub fn new(cfg: SimConfig) -> Self {
        SimOptions {
            cfg,
            algo: CommAlgo::Standard,
            sync: Synchronization::PerProcessor,
            overlap: Overlap::None,
        }
    }

    /// Use the worst-case communication algorithm.
    pub fn worst_case(mut self) -> Self {
        self.algo = CommAlgo::WorstCase;
        self
    }

    /// Use barrier synchronization between steps.
    pub fn with_barrier(mut self) -> Self {
        self.sync = Synchronization::Barrier;
        self
    }

    /// Enable the receive-only overlap extension.
    pub fn with_overlap(mut self) -> Self {
        self.overlap = Overlap::RecvOnly;
        self
    }
}

/// Timing record of one program step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// The step's label.
    pub label: String,
    /// When the first processor entered the step's computation phase.
    pub start: Time,
    /// When the last processor finished the step's computation phase.
    pub comp_end: Time,
    /// When the last communication operation of the step completed
    /// (equals `comp_end` for communication-free steps).
    pub comm_end: Time,
    /// Forced transmissions the worst-case algorithm needed in this step.
    pub forced_sends: usize,
}

/// The output of [`simulate_program`]: the paper's predicted quantities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted total running time (Figure 7's quantity).
    pub total: Time,
    /// Computation time: the largest per-processor sum of computation
    /// charges (Figure 9's quantity — what a processor would spend if
    /// communication were free).
    pub comp_time: Time,
    /// Communication time: the largest per-processor sum of communication
    /// *section* durations — the time from entering each communication
    /// phase to finishing one's own operations in it (Figure 8's
    /// quantity).
    pub comm_time: Time,
    /// Per-processor computation sums.
    pub per_proc_comp: Vec<Time>,
    /// Per-processor communication-section sums.
    pub per_proc_comm: Vec<Time>,
    /// Per-processor completion times.
    pub per_proc_finish: Vec<Time>,
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Total forced transmissions (worst-case algorithm on cyclic steps).
    pub forced_sends: usize,
}

impl Prediction {
    /// The processor that finishes last.
    pub fn critical_proc(&self) -> usize {
        self.per_proc_finish
            .iter()
            .enumerate()
            .max_by_key(|(_, t)| **t)
            .map(|(p, _)| p)
            .unwrap_or(0)
    }

    /// Idle (waiting) time of a processor: finish − computation − comm
    /// sections can overlap slack; this reports `total − comp − comm` for
    /// the critical processor, clamped at zero.
    pub fn critical_idle(&self) -> Time {
        let p = self.critical_proc();
        self.total
            .saturating_sub(self.per_proc_comp[p])
            .saturating_sub(self.per_proc_comm[p])
    }

    /// One-line human summary of the prediction.
    pub fn summary(&self) -> String {
        format!(
            "total {} (comp {}, comm {}, critical P{}, {} steps{})",
            self.total,
            self.comp_time,
            self.comm_time,
            self.critical_proc(),
            self.steps.len(),
            if self.forced_sends > 0 {
                format!(", {} forced sends", self.forced_sends)
            } else {
                String::new()
            }
        )
    }

    /// Per-processor breakdown as a rendered text table.
    pub fn per_proc_table(&self) -> String {
        let mut t = crate::report::Table::new(["proc", "comp (ms)", "comm (ms)", "finish (ms)"]);
        for p in 0..self.per_proc_comp.len() {
            t.row([
                format!("P{p}"),
                crate::report::ms(self.per_proc_comp[p]),
                crate::report::ms(self.per_proc_comm[p]),
                crate::report::ms(self.per_proc_finish[p]),
            ]);
        }
        t.render()
    }

    /// The `k` most expensive steps by communication span, as
    /// `(label, comm duration)` — the bottleneck list.
    pub fn slowest_comm_steps(&self, k: usize) -> Vec<(String, Time)> {
        let mut spans: Vec<(String, Time)> = self
            .steps
            .iter()
            .map(|s| (s.label.clone(), s.comm_end.saturating_sub(s.comp_end)))
            .collect();
        spans.sort_by_key(|s| std::cmp::Reverse(s.1));
        spans.truncate(k);
        spans
    }
}

/// Fault injection into the whole-program fold, keyed by program step
/// index. One hook answers both halves: the fold asks it for every
/// computation charge (transient slowdowns, fail-stop outages), and the
/// communication algorithms ask it — through a [`StepFaultView`] — how
/// often each message is dropped. Decisions must not depend on virtual
/// time, so the standard and the worst-case algorithm see identical
/// faults.
pub trait FaultHook {
    /// The effective computation charge of processor `proc` in step
    /// `step`. `base` is the program's own charge ([`Time::ZERO`] on
    /// computation-free steps); the returned value replaces it in the fold
    /// and in the computation ledger. Trace events describing the fault go
    /// to `sink` when the run is traced.
    fn comp_charge(
        &self,
        step: usize,
        proc: usize,
        base: Time,
        sink: Option<&dyn TraceSink>,
    ) -> Time;

    /// Total transmission attempts of `msg` in step `step`, at least 1;
    /// the network drops every attempt but the last.
    fn attempts(&self, step: usize, msg: &Message) -> u32;

    /// Retransmission timeout armed after the given (zero-based) dropped
    /// attempt.
    fn rto(&self, attempt: u32) -> Time;
}

/// A [`FaultHook`] narrowed to one program step: the
/// [`commsim::faults::StepFaults`] view the communication algorithms
/// consult for per-message drop decisions.
#[derive(Clone, Copy)]
pub struct StepFaultView<'a> {
    hook: &'a dyn FaultHook,
    step: usize,
}

impl<'a> StepFaultView<'a> {
    /// The view of `hook` at program step `step`.
    pub fn new(hook: &'a dyn FaultHook, step: usize) -> Self {
        StepFaultView { hook, step }
    }
}

impl StepFaults for StepFaultView<'_> {
    fn attempts(&self, msg: &Message) -> u32 {
        self.hook.attempts(self.step, msg)
    }

    fn rto(&self, attempt: u32) -> Time {
        self.hook.rto(attempt)
    }
}

/// One communication step as the whole-program fold hands it to a
/// [`StepSimulator`].
#[derive(Clone, Copy)]
pub struct StepCall<'a> {
    /// Index of the program step.
    pub index: usize,
    /// The step's communication pattern.
    pub comm: &'a CommPattern,
    /// The run's options.
    pub opts: &'a SimOptions,
    /// Processor `p` may not start communicating before `ready[p]`.
    pub ready: &'a [Time],
    /// Trace sink of a traced run: every committed operation is emitted,
    /// stamped with [`StepCall::index`].
    pub sink: Option<&'a dyn TraceSink>,
    /// Fault hook of a fault-injected run.
    pub faults: Option<&'a dyn FaultHook>,
}

impl StepCall<'_> {
    /// True when the step is neither traced nor fault-injected: its result
    /// is then a pure function of the pattern, the options and the ready
    /// times, which is what caching and replaying backends rely on.
    pub fn is_plain(&self) -> bool {
        self.sink.is_none() && self.faults.is_none()
    }

    /// Run the step on the direct [`commsim`] algorithms in `scratch`,
    /// with the call's tracer and fault view attached.
    pub fn run(&self, scratch: &mut SimScratch) -> SimResult {
        let tracer = self.sink.map(|s| StepTracer::new(s, self.index as u64));
        let view = self.faults.map(|h| StepFaultView::new(h, self.index));
        let mut req = StepRequest::new(self.comm, &self.opts.cfg, self.ready);
        if let Some(t) = &tracer {
            req = req.with_tracer(t);
        }
        if let Some(v) = &view {
            req = req.with_faults(v);
        }
        self.opts.algo.simulate(req, scratch)
    }
}

/// Pluggable communication-step backend of the whole-program fold.
///
/// The fold is the same for every run; everything expensive happens inside
/// the per-step LogGP simulation. Abstracting that one call lets
/// alternative backends — `predsim-engine`'s fingerprint-memoizing cache,
/// the recording and replaying backends of [`crate::replay`] — slot under
/// the unchanged program loop while guaranteeing identical results.
pub trait StepSimulator {
    /// Simulate one communication step and leave its per-processor
    /// completion times in `ends`: exactly what
    /// [`StepEnds::reset`]`(call.ready)` followed by [`StepEnds::absorb`]
    /// of [`StepCall::run`]'s result would leave there.
    fn simulate_step(&mut self, call: &StepCall<'_>, ends: &mut StepEnds);
}

/// The direct backend: the [`commsim`] algorithms, plain, traced or
/// fault-injected as the [`StepCall`] asks.
///
/// Owns a [`commsim::SimScratch`] that is reused across steps, so the
/// per-step queue/heap/arena allocations of the hot loop are amortized
/// over the whole program instead of being rebuilt for every pattern.
/// Results are bit-identical to fresh per-step simulations.
#[derive(Debug, Default)]
pub struct DirectStepSimulator {
    pub(crate) scratch: SimScratch,
}

impl DirectStepSimulator {
    /// A backend with a fresh scratch.
    pub fn new() -> Self {
        DirectStepSimulator::default()
    }
}

impl StepSimulator for DirectStepSimulator {
    fn simulate_step(&mut self, call: &StepCall<'_>, ends: &mut StepEnds) {
        let result = call.run(&mut self.scratch);
        ends.reset(call.ready);
        ends.absorb(&result);
    }
}

/// Per-run simulation budgets; the default is unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimBudget {
    /// Maximum number of program steps to simulate.
    pub max_steps: Option<usize>,
    /// Halt once any processor's virtual-time front exceeds this.
    pub max_virtual: Option<Time>,
}

impl SimBudget {
    /// No limits.
    pub fn unlimited() -> Self {
        SimBudget::default()
    }

    /// A budget of at most `n` program steps.
    pub fn steps(n: usize) -> Self {
        SimBudget {
            max_steps: Some(n),
            ..SimBudget::default()
        }
    }

    /// A budget on simulated virtual time.
    pub fn virtual_time(t: Time) -> Self {
        SimBudget {
            max_virtual: Some(t),
            ..SimBudget::default()
        }
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none() && self.max_virtual.is_none()
    }
}

/// Why a budgeted simulation stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimHalt {
    /// The whole program was simulated.
    Completed,
    /// The step budget ran out before step `at_step` could be simulated.
    StepBudget {
        /// Index of the first step *not* simulated.
        at_step: usize,
    },
    /// A processor's front crossed the virtual-time budget after `at_step`.
    VirtualBudget {
        /// Index of the last step that *was* simulated.
        at_step: usize,
    },
}

impl SimHalt {
    /// True iff the program ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, SimHalt::Completed)
    }
}

/// A (possibly budget-truncated) simulation outcome: the prediction covers
/// the steps that were simulated, and [`SimHalt`] says whether that was all
/// of them.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// Prediction over the simulated prefix of the program.
    pub prediction: Prediction,
    /// Whether (and where) the budget cut the run short.
    pub halt: SimHalt,
}

/// Simulate a whole program; see [`Prediction`] for what comes back.
pub fn simulate_program(prog: &Program, opts: &SimOptions) -> Prediction {
    simulate_request(prog, opts, SimRequest::default()).prediction
}

/// Everything a whole-program run can be given besides the program and
/// its [`SimOptions`]. The default is the plain run: the direct backend,
/// no tracing, no faults, no budget.
#[derive(Default)]
pub struct SimRequest<'a> {
    /// Communication backend; `None` runs a fresh [`DirectStepSimulator`].
    pub backend: Option<&'a mut dyn StepSimulator>,
    /// Trace sink: per-operation events from the communication algorithms
    /// plus one [`TraceEvent::Front`] per processor per step. Tracing
    /// never changes the prediction.
    pub sink: Option<&'a dyn TraceSink>,
    /// Fault injection (computation charges and message drops).
    pub faults: Option<&'a dyn FaultHook>,
    /// Simulation budget; the run halts early once it is spent.
    pub budget: SimBudget,
}

impl<'a> SimRequest<'a> {
    /// Run the communication steps on `backend`.
    pub fn with_backend(mut self, backend: &'a mut dyn StepSimulator) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Trace the run into `sink`.
    pub fn with_sink(mut self, sink: &'a dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Inject the faults `hook` decides.
    pub fn with_faults(mut self, hook: &'a dyn FaultHook) -> Self {
        self.faults = Some(hook);
        self
    }
}

/// The whole-program fold with every input exposed: a pluggable
/// communication backend, a trace sink, a fault hook and a simulation
/// budget (see [`SimRequest`]). With [`SimRequest::default`] this computes
/// exactly what [`simulate_program`] does.
pub fn simulate_request(prog: &Program, opts: &SimOptions, req: SimRequest<'_>) -> SimRun {
    let SimRequest {
        backend,
        sink,
        faults,
        budget,
    } = req;
    let mut direct = DirectStepSimulator::default();
    let backend = backend.unwrap_or(&mut direct);
    let procs = prog.procs();
    let mut ready = vec![Time::ZERO; procs];
    let mut per_proc_comp = vec![Time::ZERO; procs];
    let mut per_proc_comm = vec![Time::ZERO; procs];
    let mut steps = Vec::with_capacity(prog.len());
    let mut forced_sends = 0usize;
    let mut halt = SimHalt::Completed;

    // Fold buffers, hoisted out of the step loop: the fold itself must not
    // allocate per step (the per-step simulation is the only place heap
    // traffic is acceptable, and the scratch-carrying backends remove most
    // of it there too).
    let mut comp_end = vec![Time::ZERO; procs];
    let mut ends = StepEnds::default();

    for (step_idx, step) in prog.steps().iter().enumerate() {
        if let Some(max) = budget.max_steps {
            if step_idx >= max {
                halt = SimHalt::StepBudget { at_step: step_idx };
                break;
            }
        }
        let start = ready.iter().copied().min().unwrap_or(Time::ZERO);

        // Computation phase. A step without computation charges has base
        // cost zero on every processor; a fault hook may still inflate it
        // (fail-stop outages apply to communication-only steps too).
        for p in 0..procs {
            let base = if step.comp.is_empty() {
                Time::ZERO
            } else {
                step.comp[p]
            };
            let charge = match faults {
                Some(hook) => hook.comp_charge(step_idx, p, base, sink),
                None => base,
            };
            comp_end[p] = ready[p] + charge;
            per_proc_comp[p] += charge;
        }
        let comp_end_max = comp_end.iter().copied().max().unwrap_or(Time::ZERO);

        // Communication phase.
        let comm_end_max = if step.comm.is_empty() {
            ready.copy_from_slice(&comp_end);
            comp_end_max
        } else {
            let call = StepCall {
                index: step_idx,
                comm: &step.comm,
                opts,
                ready: &comp_end,
                sink,
                faults,
            };
            backend.simulate_step(&call, &mut ends);
            forced_sends += ends.forced_sends;

            // Per-processor end of the communication section.
            for p in 0..procs {
                per_proc_comm[p] += ends.comm_done[p] - comp_end[p];
            }
            ready.copy_from_slice(match opts.overlap {
                Overlap::None => &ends.comm_done,
                Overlap::RecvOnly => &ends.last_recv_done,
            });
            ends.comm_done.iter().copied().max().unwrap_or(comp_end_max)
        };

        if opts.sync == Synchronization::Barrier {
            let max = ready.iter().copied().max().unwrap_or(Time::ZERO);
            ready.fill(max);
        }

        steps.push(StepRecord {
            label: step.label.clone(),
            start,
            comp_end: comp_end_max,
            comm_end: comm_end_max,
            forced_sends,
        });
        if let Some(sink) = sink {
            // The per-processor virtual-time front: each processor's
            // readiness for the next step (the horizon profile's input).
            for (proc, t) in ready.iter().enumerate() {
                sink.emit(&TraceEvent::Front {
                    step: step_idx as u64,
                    proc,
                    ps: t.as_ps(),
                });
            }
        }

        if let Some(max) = budget.max_virtual {
            let front = ready.iter().copied().max().unwrap_or(Time::ZERO);
            if front > max {
                halt = SimHalt::VirtualBudget { at_step: step_idx };
                break;
            }
        }
    }

    let total = ready.iter().copied().max().unwrap_or(Time::ZERO);
    let prediction = Prediction {
        total,
        comp_time: per_proc_comp.iter().copied().max().unwrap_or(Time::ZERO),
        comm_time: per_proc_comm.iter().copied().max().unwrap_or(Time::ZERO),
        per_proc_comp,
        per_proc_comm,
        per_proc_finish: ready,
        steps,
        forced_sends,
    };
    SimRun { prediction, halt }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Step;
    use commsim::CommPattern;
    use loggp::presets;

    fn opts(procs: usize) -> SimOptions {
        SimOptions::new(SimConfig::new(presets::meiko_cs2(procs)))
    }

    fn traced(prog: &Program, opts: &SimOptions, sink: &dyn TraceSink) -> Prediction {
        simulate_request(prog, opts, SimRequest::default().with_sink(sink)).prediction
    }

    /// A [`FaultHook`] that only reshapes computation charges.
    struct Charges<F>(F);

    impl<F: Fn(usize, usize, Time) -> Time> FaultHook for Charges<F> {
        fn comp_charge(
            &self,
            step: usize,
            proc: usize,
            base: Time,
            _sink: Option<&dyn TraceSink>,
        ) -> Time {
            (self.0)(step, proc, base)
        }
        fn attempts(&self, _step: usize, _msg: &Message) -> u32 {
            1
        }
        fn rto(&self, _attempt: u32) -> Time {
            Time::ZERO
        }
    }

    fn one_msg(procs: usize, src: usize, dst: usize, bytes: usize) -> CommPattern {
        let mut c = CommPattern::new(procs);
        c.add(src, dst, bytes);
        c
    }

    #[test]
    fn empty_program_is_zero() {
        let prog = Program::new(4);
        let pred = simulate_program(&prog, &opts(4));
        assert_eq!(pred.total, Time::ZERO);
        assert_eq!(pred.comp_time, Time::ZERO);
        assert_eq!(pred.comm_time, Time::ZERO);
    }

    #[test]
    fn computation_only_program() {
        let mut prog = Program::new(2);
        prog.push(Step::new("c1").with_comp(vec![Time::from_us(10.0), Time::from_us(30.0)]));
        prog.push(Step::new("c2").with_comp(vec![Time::from_us(5.0), Time::from_us(1.0)]));
        let pred = simulate_program(&prog, &opts(2));
        assert_eq!(pred.total, Time::from_us(31.0));
        assert_eq!(pred.comp_time, Time::from_us(31.0));
        assert_eq!(pred.comm_time, Time::ZERO);
        assert_eq!(
            pred.per_proc_comp,
            vec![Time::from_us(15.0), Time::from_us(31.0)]
        );
        assert_eq!(pred.critical_proc(), 1);
    }

    #[test]
    fn comm_follows_comp() {
        let cfg = SimConfig::new(presets::meiko_cs2(2));
        let mut prog = Program::new(2);
        prog.push(
            Step::new("s")
                .with_comp(vec![Time::from_us(100.0), Time::from_us(20.0)])
                .with_comm(one_msg(2, 0, 1, 1000)),
        );
        let pred = simulate_program(&prog, &SimOptions::new(cfg));
        // P0 computes 100us, then the message costs o+wire+L+o.
        let expect = Time::from_us(100.0) + cfg.params.message_cost(1000);
        assert_eq!(pred.total, expect);
        // P1's comm section spans from its comp end (20us) to recv end.
        assert_eq!(pred.per_proc_comm[1], expect - Time::from_us(20.0));
        assert_eq!(pred.comm_time, pred.per_proc_comm[1]);
    }

    #[test]
    fn per_processor_chaining_pipelines_steps() {
        // P0 computes long in step 1; P1 is free to finish its own step-1
        // work and start step 2 before P0 is done.
        let mut prog = Program::new(2);
        prog.push(Step::new("1").with_comp(vec![Time::from_us(100.0), Time::from_us(1.0)]));
        prog.push(Step::new("2").with_comp(vec![Time::from_us(1.0), Time::from_us(10.0)]));
        let per_proc = simulate_program(&prog, &opts(2));
        assert_eq!(per_proc.per_proc_finish[1], Time::from_us(11.0));
        // Under a barrier, P1 waits for P0's step-1 computation.
        let barrier = simulate_program(&prog, &opts(2).with_barrier());
        assert_eq!(barrier.per_proc_finish[1], Time::from_us(110.0));
        assert!(barrier.total >= per_proc.total);
    }

    #[test]
    fn worst_case_never_faster_on_dag_steps() {
        let mut prog = Program::new(3);
        let mut c = CommPattern::new(3);
        c.add(0, 1, 500);
        c.add(1, 2, 500);
        prog.push(
            Step::new("s")
                .with_comp(vec![Time::from_us(5.0); 3])
                .with_comm(c),
        );
        let st = simulate_program(&prog, &opts(3));
        let wc = simulate_program(&prog, &opts(3).worst_case());
        assert!(wc.total >= st.total);
        assert_eq!(wc.forced_sends, 0);
    }

    #[test]
    fn overlap_hides_trailing_sends() {
        // P0 sends one message, then computes again. With RecvOnly overlap
        // its second computation starts right after its (only) send... but
        // the send *is* its last op, so overlap lets it start at comp_end —
        // no wait for the message flight.
        let mut prog = Program::new(2);
        prog.push(Step::new("send").with_comm(one_msg(2, 0, 1, 64)));
        prog.push(Step::new("work").with_comp(vec![Time::from_us(50.0), Time::ZERO]));
        let none = simulate_program(&prog, &opts(2));
        let over = simulate_program(&prog, &opts(2).with_overlap());
        assert!(over.per_proc_finish[0] <= none.per_proc_finish[0]);
        // P0 under overlap: its send overhead can hide under computation,
        // so it finishes at exactly 50us.
        assert_eq!(over.per_proc_finish[0], Time::from_us(50.0));
    }

    #[test]
    fn step_records_cover_program() {
        let mut prog = Program::new(2);
        prog.push(Step::new("a").with_comp(vec![Time::from_us(10.0); 2]));
        prog.push(Step::new("b").with_comm(one_msg(2, 0, 1, 10)));
        let pred = simulate_program(&prog, &opts(2));
        assert_eq!(pred.steps.len(), 2);
        assert_eq!(pred.steps[0].label, "a");
        assert!(pred.steps[1].comm_end >= pred.steps[1].comp_end);
        assert_eq!(pred.steps[1].comm_end, pred.total);
    }

    #[test]
    fn summary_and_tables_render() {
        let mut prog = Program::new(2);
        prog.push(
            Step::new("s")
                .with_comp(vec![Time::from_us(40.0), Time::ZERO])
                .with_comm(one_msg(2, 0, 1, 100)),
        );
        let pred = simulate_program(&prog, &opts(2));
        let s = pred.summary();
        assert!(s.contains("total") && s.contains("critical P"), "{s}");
        let t = pred.per_proc_table();
        assert!(t.contains("P0") && t.contains("P1"), "{t}");
        let slow = pred.slowest_comm_steps(5);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].0, "s");
        assert!(slow[0].1 > Time::ZERO);
    }

    #[test]
    fn traced_simulation_is_bit_identical_and_emits_fronts() {
        use predsim_obs::{MemorySink, TraceEvent};
        let mut prog = Program::new(3);
        prog.push(Step::new("warm").with_comp(vec![Time::from_us(7.0); 3]));
        let mut c = CommPattern::new(3);
        c.add(0, 1, 500);
        c.add(1, 2, 500);
        prog.push(Step::new("chain").with_comm(c));
        for opts in [opts(3), opts(3).worst_case(), opts(3).with_barrier()] {
            let plain = simulate_program(&prog, &opts);
            let sink = MemorySink::new();
            let traced = traced(&prog, &opts, &sink);
            assert_eq!(plain.total, traced.total);
            assert_eq!(plain.per_proc_finish, traced.per_proc_finish);
            assert_eq!(plain.per_proc_comm, traced.per_proc_comm);
            // One Front event per processor per step, stamped in order.
            let fronts: Vec<(u64, usize)> = sink
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Front { step, proc, .. } => Some((*step, *proc)),
                    _ => None,
                })
                .collect();
            assert_eq!(fronts.len(), prog.len() * 3);
            assert_eq!(fronts[0], (0, 0));
            assert_eq!(fronts.last(), Some(&(1, 2)));
            // Communication events are stamped with the comm step's index.
            assert!(sink
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Send { step: 1, .. })));
        }
    }

    #[test]
    fn front_events_reflect_readiness_not_step_completion() {
        use predsim_obs::{MemorySink, TraceEvent};
        // Per-processor chaining: P1 finishes step 0 early and its front
        // must say so (it is *not* the step's max).
        let mut prog = Program::new(2);
        prog.push(Step::new("skew").with_comp(vec![Time::from_us(100.0), Time::from_us(1.0)]));
        let sink = MemorySink::new();
        let _ = traced(&prog, &opts(2), &sink);
        let fronts: Vec<u64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Front { ps, .. } => Some(*ps),
                _ => None,
            })
            .collect();
        assert_eq!(
            fronts,
            vec![Time::from_us(100.0).as_ps(), Time::from_us(1.0).as_ps()]
        );
    }

    #[test]
    fn custom_backend_sees_step_indices_and_matches_direct() {
        // A backend wrapping the direct one is driven through the same
        // fold, receives every communication step's program index, and
        // reproduces the plain prediction.
        struct Indexed {
            inner: DirectStepSimulator,
            seen: Vec<usize>,
        }
        impl StepSimulator for Indexed {
            fn simulate_step(&mut self, call: &StepCall<'_>, ends: &mut StepEnds) {
                self.seen.push(call.index);
                self.inner.simulate_step(call, ends);
            }
        }
        let mut prog = Program::new(2);
        prog.push(Step::new("c").with_comp(vec![Time::from_us(3.0); 2]));
        prog.push(Step::new("s").with_comm(one_msg(2, 0, 1, 100)));
        let mut backend = Indexed {
            inner: DirectStepSimulator::new(),
            seen: Vec::new(),
        };
        let a = simulate_program(&prog, &opts(2));
        let b = simulate_request(
            &prog,
            &opts(2),
            SimRequest::default().with_backend(&mut backend),
        );
        assert_eq!(a, b.prediction);
        assert_eq!(backend.seen, vec![1]);
    }

    #[test]
    fn default_request_with_unlimited_budget_matches_simulate() {
        let mut prog = Program::new(3);
        prog.push(Step::new("warm").with_comp(vec![Time::from_us(7.0); 3]));
        let mut c = CommPattern::new(3);
        c.add(0, 1, 500);
        c.add(1, 2, 500);
        prog.push(Step::new("chain").with_comm(c));
        for o in [opts(3), opts(3).worst_case()] {
            let plain = simulate_program(&prog, &o);
            let mut direct = DirectStepSimulator::new();
            let req = SimRequest {
                budget: SimBudget::unlimited(),
                ..SimRequest::default().with_backend(&mut direct)
            };
            let run = simulate_request(&prog, &o, req);
            assert!(run.halt.is_complete());
            assert_eq!(run.prediction.total, plain.total);
            assert_eq!(run.prediction.per_proc_finish, plain.per_proc_finish);
            assert_eq!(run.prediction.per_proc_comp, plain.per_proc_comp);
            assert_eq!(run.prediction.per_proc_comm, plain.per_proc_comm);
        }
    }

    #[test]
    fn step_budget_truncates_the_run() {
        let mut prog = Program::new(2);
        for i in 0..5 {
            prog.push(Step::new(format!("s{i}")).with_comp(vec![Time::from_us(10.0); 2]));
        }
        let run = simulate_request(
            &prog,
            &opts(2),
            SimRequest {
                budget: SimBudget::steps(2),
                ..SimRequest::default()
            },
        );
        assert_eq!(run.halt, SimHalt::StepBudget { at_step: 2 });
        assert_eq!(run.prediction.steps.len(), 2);
        assert_eq!(run.prediction.total, Time::from_us(20.0));
    }

    #[test]
    fn virtual_budget_halts_after_crossing_step() {
        let mut prog = Program::new(2);
        for i in 0..5 {
            prog.push(Step::new(format!("s{i}")).with_comp(vec![Time::from_us(10.0); 2]));
        }
        let run = simulate_request(
            &prog,
            &opts(2),
            SimRequest {
                budget: SimBudget::virtual_time(Time::from_us(25.0)),
                ..SimRequest::default()
            },
        );
        // Step 2 pushes the front to 30us > 25us; steps 3 and 4 never run.
        assert_eq!(run.halt, SimHalt::VirtualBudget { at_step: 2 });
        assert_eq!(run.prediction.steps.len(), 3);
        assert_eq!(run.prediction.total, Time::from_us(30.0));
    }

    #[test]
    fn fault_hook_inflates_charges_and_the_ledger() {
        let double_p1 =
            Charges(|_step, proc, base: Time| if proc == 1 { base + base } else { base });
        let mut prog = Program::new(2);
        prog.push(Step::new("c").with_comp(vec![Time::from_us(10.0); 2]));
        let run = simulate_request(
            &prog,
            &opts(2),
            SimRequest::default().with_faults(&double_p1),
        );
        assert_eq!(run.prediction.per_proc_comp[0], Time::from_us(10.0));
        assert_eq!(run.prediction.per_proc_comp[1], Time::from_us(20.0));
        assert_eq!(run.prediction.total, Time::from_us(20.0));
    }

    #[test]
    fn fault_hook_charges_apply_to_communication_only_steps() {
        // Fail-stop semantics: an outage charged by the hook on a step
        // with no computation still delays the processor's participation.
        let outage = Charges(|step, proc, base| {
            if step == 0 && proc == 0 {
                base + Time::from_us(100.0)
            } else {
                base
            }
        });
        let mut prog = Program::new(2);
        prog.push(Step::new("send").with_comm(one_msg(2, 0, 1, 1)));
        let cfg = SimConfig::new(presets::meiko_cs2(2));
        let run = simulate_request(
            &prog,
            &SimOptions::new(cfg),
            SimRequest::default().with_faults(&outage),
        );
        // P0's send starts only after the outage; the message is received
        // after it, i.e. queued receives drain once the sender restarts.
        assert_eq!(
            run.prediction.total,
            Time::from_us(100.0) + cfg.params.message_cost(1)
        );
    }

    #[test]
    fn critical_idle_accounts_waiting() {
        // P1 waits for a message without computing: all its time is comm
        // section, so idle is zero; P0 computes then sends.
        let mut prog = Program::new(2);
        prog.push(
            Step::new("s")
                .with_comp(vec![Time::from_us(40.0), Time::ZERO])
                .with_comm(one_msg(2, 0, 1, 1)),
        );
        let pred = simulate_program(&prog, &opts(2));
        assert_eq!(pred.critical_proc(), 1);
        assert_eq!(pred.critical_idle(), Time::ZERO);
    }
}
