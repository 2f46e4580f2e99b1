//! The one way in to the step simulators.
//!
//! A [`StepRequest`] names everything one communication step can be run
//! with — the pattern, the configuration, the per-processor ready times,
//! and the optional arrival model, tracer and fault view — and
//! [`CommAlgo::simulate`] runs it under the chosen algorithm in the
//! caller's [`SimScratch`]. [`crate::standard::simulate`] and
//! [`crate::worstcase::simulate`] are the two shorthands for the plain
//! case (all processors ready at zero, pure LogGP arrivals, a fresh
//! scratch).

use crate::faults::StepFaults;
use crate::observe::StepTracer;
use crate::pattern::{CommPattern, Message};
use crate::scratch::SimScratch;
use crate::timeline::SimResult;
use crate::{standard, worstcase, SimConfig};
use loggp::Time;

/// Which communication-step algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommAlgo {
    /// The paper's Figure 2 algorithm (receive priority, eager sends).
    Standard,
    /// The §4.2 overestimation algorithm (receive everything first).
    WorstCase,
}

/// An arrival model: `arrival(msg, send_start)` returns when the message
/// becomes available at its destination.
pub type ArrivalFn<'a> = dyn FnMut(&Message, Time) -> Time + 'a;

/// One communication step to simulate.
///
/// Built with [`StepRequest::new`] and the `with_*` setters; every
/// optional input left unset takes its fault-free, untraced default.
pub struct StepRequest<'a> {
    /// The communication pattern.
    pub pattern: &'a CommPattern,
    /// Machine model, tie-breaking, seed and gap rule.
    pub cfg: &'a SimConfig,
    /// Processor `p` may not start communicating before `ready[p]` (the
    /// whole-program simulator passes the end of each processor's
    /// computation phase).
    pub ready: &'a [Time],
    /// Custom arrival model; `None` is the pure LogGP arrival
    /// `send_start + o + (k−1)·G + L`.
    pub arrival: Option<&'a mut ArrivalFn<'a>>,
    /// Observer of every committed operation; tracing never changes the
    /// computed timeline.
    pub tracer: Option<&'a StepTracer<'a>>,
    /// Per-message drop decisions (see [`crate::faults`]).
    pub faults: Option<&'a dyn StepFaults>,
}

impl<'a> StepRequest<'a> {
    /// A plain request: pure LogGP arrivals, no tracer, no faults.
    pub fn new(pattern: &'a CommPattern, cfg: &'a SimConfig, ready: &'a [Time]) -> Self {
        StepRequest {
            pattern,
            cfg,
            ready,
            arrival: None,
            tracer: None,
            faults: None,
        }
    }

    /// Use a custom arrival model (the machine emulator plugs in jitter and
    /// link contention here). The hook's contract is
    /// `arrival ≥ send_start + o` (a message cannot arrive before its send
    /// overhead completes); a hook that returns an earlier time is
    /// **clamped** to `send_start + o`, in release builds too, so a
    /// misbehaving arrival model can delay messages but never yields an
    /// unsound timeline.
    pub fn with_arrival(mut self, arrival: &'a mut ArrivalFn<'a>) -> Self {
        self.arrival = Some(arrival);
        self
    }

    /// Report every committed operation to `tracer`. The worst-case
    /// algorithm flags its forced (deadlock-breaking) transmissions on
    /// their send events.
    pub fn with_tracer(mut self, tracer: &'a StepTracer<'a>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Inject message drops: each message may be dropped and retransmitted
    /// per [`StepFaults::attempts`], with every attempt charged at the
    /// sender and only the final attempt feeding the arrival model. Both
    /// algorithms consult the view identically, so the overestimation
    /// bound holds under injection.
    pub fn with_faults(mut self, faults: &'a dyn StepFaults) -> Self {
        self.faults = Some(faults);
        self
    }
}

impl CommAlgo {
    /// Simulate one communication step with this algorithm, reusing
    /// `scratch` (a whole-program simulation holds one scratch across
    /// steps, so repeated steps allocate nothing in the steady state).
    /// Self-messages in the pattern are ignored, as in the paper.
    pub fn simulate(self, req: StepRequest<'_>, scratch: &mut SimScratch) -> SimResult {
        let StepRequest {
            pattern,
            cfg,
            ready,
            arrival,
            tracer,
            faults,
        } = req;
        let params = cfg.params;
        let mut loggp_arrival = |m: &Message, start: Time| params.arrival_time(start, m.bytes);
        let arrival: &mut ArrivalFn<'_> = match arrival {
            Some(hook) => hook,
            None => &mut loggp_arrival,
        };
        match self {
            CommAlgo::Standard => {
                standard::sim_core(pattern, cfg, ready, arrival, tracer, faults, scratch, None)
            }
            CommAlgo::WorstCase => {
                worstcase::wc_core(pattern, cfg, ready, arrival, tracer, faults, scratch, None)
            }
        }
    }
}
